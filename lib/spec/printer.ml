open Ast

(* The printer works on a Buffer with explicit indentation rather than
   Format boxes: the paper's size metric is "lines of specification", so
   line breaks must be fully deterministic. *)

let string_of_ty = function
  | TBool -> "bool"
  | TInt w -> Printf.sprintf "int<%d>" w
  | TArray (w, n) -> Printf.sprintf "int<%d>[%d]" w n

type ctx = { buf : Buffer.t; mutable indent : int }

let line ctx fmt =
  Printf.ksprintf
    (fun s ->
      Buffer.add_string ctx.buf (String.make (2 * ctx.indent) ' ');
      Buffer.add_string ctx.buf s;
      Buffer.add_char ctx.buf '\n')
    fmt

let with_indent ctx f =
  ctx.indent <- ctx.indent + 1;
  f ();
  ctx.indent <- ctx.indent - 1

let string_of_value v = Format.asprintf "%a" Expr.pp_value v
let string_of_expr e = Expr.to_string e

let init_suffix = function
  | None -> ""
  | Some v -> Printf.sprintf " := %s" (string_of_value v)

let emit_var ctx v =
  line ctx "var %s : %s%s;" v.v_name (string_of_ty v.v_ty) (init_suffix v.v_init)

let emit_signal ctx s =
  line ctx "signal %s : %s%s;" s.s_name (string_of_ty s.s_ty)
    (init_suffix s.s_init)

let string_of_arg = function
  | Arg_expr e -> string_of_expr e
  | Arg_var x -> "out " ^ x

let rec emit_stmts ctx stmts = List.iter (emit_stmt ctx) stmts

and emit_stmt ctx = function
  | Assign (x, e) -> line ctx "%s := %s;" x (string_of_expr e)
  | Assign_idx (x, i, e) ->
    line ctx "%s[%s] := %s;" x (string_of_expr i) (string_of_expr e)
  | Signal_assign (s, e) -> line ctx "%s <= %s;" s (string_of_expr e)
  | If (branches, els) ->
    begin match branches with
    | [] -> ()
    | (c0, body0) :: rest ->
      line ctx "if %s then" (string_of_expr c0);
      with_indent ctx (fun () -> emit_stmts ctx body0);
      List.iter
        (fun (c, body) ->
          line ctx "elsif %s then" (string_of_expr c);
          with_indent ctx (fun () -> emit_stmts ctx body))
        rest;
      if els <> [] then begin
        line ctx "else";
        with_indent ctx (fun () -> emit_stmts ctx els)
      end;
      line ctx "end if;"
    end
  | While (c, body) ->
    line ctx "while %s do" (string_of_expr c);
    with_indent ctx (fun () -> emit_stmts ctx body);
    line ctx "end while;"
  | For (i, lo, hi, body) ->
    line ctx "for %s := %s to %s do" i (string_of_expr lo) (string_of_expr hi);
    with_indent ctx (fun () -> emit_stmts ctx body);
    line ctx "end for;"
  | Wait_until c -> line ctx "wait until %s;" (string_of_expr c)
  | Call (p, args) ->
    line ctx "call %s(%s);" p (String.concat ", " (List.map string_of_arg args))
  | Emit (tag, e) -> line ctx "emit %S %s;" tag (string_of_expr e)
  | Skip -> line ctx "skip;"

let string_of_target = function Goto b -> b | Complete -> "complete"

let string_of_transition t =
  match t.t_cond with
  | None -> string_of_target t.t_target
  | Some c ->
    Printf.sprintf "(%s) %s" (string_of_expr c) (string_of_target t.t_target)

let rec emit_behavior ctx b =
  let kind =
    match b.b_body with Leaf _ -> "leaf" | Seq _ -> "seq" | Par _ -> "par"
  in
  line ctx "behavior %s : %s is" b.b_name kind;
  with_indent ctx (fun () -> List.iter (emit_var ctx) b.b_vars);
  line ctx "begin";
  with_indent ctx (fun () ->
      match b.b_body with
      | Leaf stmts -> emit_stmts ctx stmts
      | Par bs ->
        List.iter
          (fun child ->
            emit_behavior ctx child;
            line ctx ";")
          bs
      | Seq arms ->
        List.iter
          (fun a ->
            emit_behavior ctx a.a_behavior;
            match a.a_transitions with
            | [] -> line ctx ";"
            | ts ->
              line ctx "-> %s;"
                (String.concat ", " (List.map string_of_transition ts)))
          arms);
  line ctx "end behavior"

let emit_param prm =
  let mode = match prm.prm_mode with Mode_in -> "in" | Mode_out -> "out" in
  Printf.sprintf "%s : %s %s" prm.prm_name mode (string_of_ty prm.prm_ty)

let emit_proc ctx pr =
  line ctx "procedure %s (%s) is" pr.prc_name
    (String.concat "; " (List.map emit_param pr.prc_params));
  with_indent ctx (fun () -> List.iter (emit_var ctx) pr.prc_vars);
  line ctx "begin";
  with_indent ctx (fun () -> emit_stmts ctx pr.prc_body);
  line ctx "end procedure;"

let emit_program ctx p =
  line ctx "program %s is" p.p_name;
  with_indent ctx (fun () ->
      List.iter (emit_var ctx) p.p_vars;
      List.iter (emit_signal ctx) p.p_signals;
      if p.p_servers <> [] then
        line ctx "servers %s;" (String.concat ", " p.p_servers);
      List.iter (emit_proc ctx) p.p_procs;
      emit_behavior ctx p.p_top);
  line ctx "end program"

let run ?(indent = 0) f =
  let ctx = { buf = Buffer.create 1024; indent } in
  f ctx;
  Buffer.contents ctx.buf

let program_to_string p = run (fun ctx -> emit_program ctx p)
let behavior_to_string ?indent b = run ?indent (fun ctx -> emit_behavior ctx b)
let stmts_to_string ?indent stmts = run ?indent (fun ctx -> emit_stmts ctx stmts)

let count_lines text =
  let n = ref 0 and blank = ref true in
  String.iter
    (function
      | '\n' ->
        if not !blank then incr n;
        blank := true
      | ' ' | '\012' | '\r' | '\t' -> ()
      | _ -> blank := false)
    text;
  if !blank then !n else !n + 1

let line_count p = count_lines (program_to_string p)

let pp_program ppf p = Format.pp_print_string ppf (program_to_string p)
let pp_behavior ppf b = Format.pp_print_string ppf (behavior_to_string b)
