open Ast

type access_kind = Read | Write

type access = {
  ac_var : string;  (** a program-level variable *)
  ac_kind : access_kind;
  ac_count : int;  (** static execution-count estimate of the access site *)
}

(* Aggregate a list of raw (var, kind, count) accesses per (var, kind). *)
let aggregate raw =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (v, k, c) ->
      let key = (v, k) in
      let prev = match Hashtbl.find_opt tbl key with Some n -> n | None -> 0 in
      Hashtbl.replace tbl key (prev + c))
    raw;
  (* Deterministic order: by first occurrence in [raw]. *)
  let seen = Hashtbl.create 16 in
  List.filter_map
    (fun (v, k, _) ->
      if Hashtbl.mem seen (v, k) then None
      else begin
        Hashtbl.add seen (v, k) ();
        Some { ac_var = v; ac_kind = k; ac_count = Hashtbl.find tbl (v, k) }
      end)
    raw

(* Static loop-bound estimate: constant [for] bounds give the exact trip
   count, anything else falls back to [while_iterations]. *)
let for_trip_count ~while_iterations lo hi =
  match (Expr.eval_const lo, Expr.eval_const hi) with
  | Some (VInt a), Some (VInt b) -> max 0 (b - a + 1)
  | _ -> while_iterations

let rec raw_stmt_accesses ~while_iterations ~visible mult stmts =
  List.concat_map (raw_stmt ~while_iterations ~visible mult) stmts

and expr_reads ~visible mult e =
  List.filter_map
    (fun x -> if visible x then Some (x, Read, mult) else None)
    (Expr.refs e)

and write_of ~visible mult x = if visible x then [ (x, Write, mult) ] else []

and raw_stmt ~while_iterations ~visible mult = function
  | Assign (x, e) -> write_of ~visible mult x @ expr_reads ~visible mult e
  | Assign_idx (x, i, e) ->
    write_of ~visible mult x
    @ expr_reads ~visible mult i
    @ expr_reads ~visible mult e
  | Signal_assign (_, e) -> expr_reads ~visible mult e
  | If (branches, els) ->
    (* Branch bodies are weighted as if each branch executes once: the
       static estimator has no branch probabilities, and the paper's rate
       metric only needs relative magnitudes. *)
    List.concat_map
      (fun (c, body) ->
        expr_reads ~visible mult c
        @ raw_stmt_accesses ~while_iterations ~visible mult body)
      branches
    @ raw_stmt_accesses ~while_iterations ~visible mult els
  | While (c, body) ->
    let inner = mult * while_iterations in
    expr_reads ~visible inner c
    @ raw_stmt_accesses ~while_iterations ~visible inner body
  | For (i, lo, hi, body) ->
    let trips = for_trip_count ~while_iterations lo hi in
    let inner = mult * trips in
    write_of ~visible mult i
    @ expr_reads ~visible mult lo
    @ expr_reads ~visible mult hi
    @ raw_stmt_accesses ~while_iterations ~visible inner body
  | Wait_until c -> expr_reads ~visible mult c
  | Call (_, args) ->
    List.concat_map
      (function
        | Arg_expr e -> expr_reads ~visible mult e
        | Arg_var x -> write_of ~visible mult x)
      args
  | Emit (_, e) -> expr_reads ~visible mult e
  | Skip -> []

(* Walk the behavior tree collecting, for every behavior name, its accesses
   to the program-level variables.  Local declarations shadow program
   variables for the whole subtree.  TOC-condition reads are attributed to
   the arm's child behavior, because the refined protocol call is inserted
   at the end of that child (paper, Figure 6). *)
let behavior_accesses ?(while_iterations = 8) (p : program) :
    (string * access list) list =
  let ix = Index.of_program p in
  (* Every behavior's raw accesses, in reverse preorder; [cells] finds
     the entries of one name, which take its TOC reads. *)
  let result = ref [] and cells = Hashtbl.create 64 in
  let rec walk shadowed b =
    let shadowed =
      Scope.push_names (List.map (fun v -> v.v_name) b.b_vars) shadowed
    in
    let visible x = Index.is_var ix x && not (Scope.mem x shadowed) in
    let own =
      match b.b_body with
      | Leaf stmts -> raw_stmt_accesses ~while_iterations ~visible 1 stmts
      | Seq _ | Par _ -> []
    in
    let cell = ref own in
    result := (b.b_name, cell) :: !result;
    Hashtbl.add cells b.b_name cell;
    match b.b_body with
    | Leaf _ -> ()
    | Par children -> List.iter (walk shadowed) children
    | Seq arms ->
      List.iter
        (fun a ->
          let extra =
            List.concat_map
              (fun t ->
                match t.t_cond with
                | Some c -> expr_reads ~visible 1 c
                | None -> [])
              a.a_transitions
          in
          walk shadowed a.a_behavior;
          if extra <> [] then
            List.iter
              (fun c -> c := !c @ extra)
              (Hashtbl.find_all cells a.a_behavior.b_name))
        arms
  in
  walk Scope.empty p.p_top;
  List.rev_map (fun (n, cell) -> (n, aggregate !cell)) !result

(** Accesses of one named behavior (leaf statement accesses plus the TOC
    reads attributed to it). *)
let accesses_of ?while_iterations p name =
  match List.assoc_opt name (behavior_accesses ?while_iterations p) with
  | Some acc -> acc
  | None -> []

(** For every program variable, the behaviors that read or write it
    (deduplicated, in tree preorder). *)
let var_users ?while_iterations p =
  let per_behavior = behavior_accesses ?while_iterations p in
  List.map
    (fun v ->
      let users =
        List.filter_map
          (fun (bname, accs) ->
            if List.exists (fun a -> String.equal a.ac_var v.v_name) accs then
              Some bname
            else None)
          per_behavior
      in
      (v.v_name, users))
    p.p_vars

(** Names of all signals read or written anywhere in the program
    (behaviors and procedures), used by refinement checks. *)
let used_signal_names p =
  let ix = Index.of_program p in
  let from_stmts stmts =
    List.filter (Index.is_signal ix) (Stmt.reads stmts)
    @ Stmt.signal_writes stmts
  in
  let acc =
    Behavior.fold
      (fun acc b ->
        match b.b_body with
        | Leaf stmts -> from_stmts stmts @ acc
        | Seq _ | Par _ -> acc)
      [] p.p_top
  in
  let acc =
    List.fold_left (fun acc pr -> from_stmts pr.prc_body @ acc) acc p.p_procs
  in
  List.sort_uniq String.compare acc
