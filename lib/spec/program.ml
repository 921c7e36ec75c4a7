open Ast

let make ?(vars = []) ?(signals = []) ?(procs = []) ?(servers = []) name top =
  {
    p_name = name;
    p_vars = vars;
    p_signals = signals;
    p_procs = procs;
    p_top = top;
    p_servers = servers;
  }

let behavior_names p = Behavior.names p.p_top
let var_names p = List.map (fun v -> v.v_name) p.p_vars

(* --- validation ------------------------------------------------------- *)

(* Each name declared more than once, in the order its second declaration
   appears. *)
let duplicates names =
  let seen = Hashtbl.create 64 and dups = Hashtbl.create 8 in
  List.filter
    (fun x ->
      if not (Hashtbl.mem seen x) then begin
        Hashtbl.add seen x ();
        false
      end
      else if Hashtbl.mem dups x then false
      else begin
        Hashtbl.add dups x ();
        true
      end)
    names

let check_unique what names errs =
  List.fold_left
    (fun errs d -> Printf.sprintf "duplicate %s name: %s" what d :: errs)
    errs (duplicates names)

(* Scope = the names visible as readable/writable data (variables,
   signals, parameters).  Scoping is by name; shadowing is allowed. *)

let rec check_stmts ix ~where scope errs stmts =
  List.fold_left (check_stmt ix ~where scope) errs stmts

and check_expr ~where scope errs e =
  List.fold_left
    (fun errs x ->
      if Scope.mem x scope then errs
      else Printf.sprintf "%s: unbound reference %s" where x :: errs)
    errs (Expr.refs e)

and check_target ~where scope errs x =
  if Scope.mem x scope then errs
  else Printf.sprintf "%s: assignment to undeclared name %s" where x :: errs

and check_stmt ix ~where scope errs = function
  | Assign (x, e) ->
    check_expr ~where scope (check_target ~where scope errs x) e
  | Assign_idx (x, i, e) ->
    let errs = check_target ~where scope errs x in
    let errs = check_expr ~where scope errs i in
    check_expr ~where scope errs e
  | Signal_assign (s, e) ->
    let errs =
      if Scope.mem s scope then errs
      else Printf.sprintf "%s: signal assignment to undeclared %s" where s :: errs
    in
    check_expr ~where scope errs e
  | If (branches, els) ->
    let errs =
      List.fold_left
        (fun errs (c, body) ->
          check_stmts ix ~where scope (check_expr ~where scope errs c) body)
        errs branches
    in
    check_stmts ix ~where scope errs els
  | While (c, body) ->
    check_stmts ix ~where scope (check_expr ~where scope errs c) body
  | For (i, lo, hi, body) ->
    let errs = check_target ~where scope errs i in
    let errs = check_expr ~where scope errs lo in
    let errs = check_expr ~where scope errs hi in
    check_stmts ix ~where scope errs body
  | Wait_until c -> check_expr ~where scope errs c
  | Call (name, args) ->
    begin match Index.proc ix name with
    | None -> Printf.sprintf "%s: call to unknown procedure %s" where name :: errs
    | Some pr ->
      let np = List.length pr.prc_params and na = List.length args in
      if np <> na then
        Printf.sprintf "%s: call to %s with %d arguments, expected %d" where
          name na np
        :: errs
      else
        List.fold_left2
          (fun errs prm a ->
            match (prm.prm_mode, a) with
            | Mode_in, Arg_expr e -> check_expr ~where scope errs e
            | Mode_out, Arg_var x -> check_target ~where scope errs x
            | Mode_in, Arg_var x ->
              (* Passing a variable to an [in] parameter is fine — it is
                 just the expression [Ref x]. *)
              check_expr ~where scope errs (Ref x)
            | Mode_out, Arg_expr _ ->
              Printf.sprintf
                "%s: call to %s passes an expression to out parameter %s"
                where name prm.prm_name
              :: errs)
          errs pr.prc_params args
    end
  | Emit (_, e) -> check_expr ~where scope errs e
  | Skip -> errs

let rec check_behavior ix scope errs b =
  let scope = Scope.push_names (List.map (fun v -> v.v_name) b.b_vars) scope in
  let where = Printf.sprintf "behavior %s" b.b_name in
  match b.b_body with
  | Leaf stmts -> check_stmts ix ~where scope errs stmts
  | Par bs -> List.fold_left (check_behavior ix scope) errs bs
  | Seq arms ->
    let siblings = Hashtbl.create (List.length arms) in
    List.iter (fun a -> Hashtbl.replace siblings a.a_behavior.b_name ()) arms;
    let errs =
      List.fold_left
        (fun errs a ->
          List.fold_left
            (fun errs t ->
              let errs =
                match t.t_cond with
                | Some c -> check_expr ~where scope errs c
                | None -> errs
              in
              match t.t_target with
              | Complete -> errs
              | Goto target ->
                if Hashtbl.mem siblings target then errs
                else
                  Printf.sprintf "%s: transition to non-sibling %s" where
                    target
                  :: errs)
            errs a.a_transitions)
        errs arms
    in
    List.fold_left
      (fun errs a -> check_behavior ix scope errs a.a_behavior)
      errs arms

let check_proc ix globals errs pr =
  let scope =
    Scope.push_names
      (List.map (fun prm -> prm.prm_name) pr.prc_params
      @ List.map (fun v -> v.v_name) pr.prc_vars)
      globals
  in
  let where = Printf.sprintf "procedure %s" pr.prc_name in
  check_stmts ix ~where scope errs pr.prc_body

let validate p =
  let ix = Index.of_program p in
  let errs = [] in
  let errs = check_unique "behavior" (behavior_names p) errs in
  let errs = check_unique "variable" (var_names p) errs in
  let errs =
    check_unique "signal" (List.map (fun s -> s.s_name) p.p_signals) errs
  in
  let errs =
    check_unique "procedure" (List.map (fun pr -> pr.prc_name) p.p_procs) errs
  in
  let errs =
    List.fold_left
      (fun errs srv ->
        match Index.behavior ix srv with
        | Some _ -> errs
        | None -> Printf.sprintf "server %s is not a behavior" srv :: errs)
      errs p.p_servers
  in
  let globals = Index.globals p ~var:ignore ~signal:ignore in
  let errs = List.fold_left (check_proc ix globals) errs p.p_procs in
  let errs = check_behavior ix globals errs p.p_top in
  match errs with [] -> Ok () | _ -> Error (List.rev errs)

let validate_exn p =
  match validate p with
  | Ok () -> p
  | Error msgs -> invalid_arg (String.concat "; " msgs)
