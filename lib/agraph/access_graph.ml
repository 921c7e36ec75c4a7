open Spec

type data_dir = Dread | Dwrite

type control_edge = {
  ce_src : string;
  ce_dst : string;
  ce_cond : Ast.expr option;
}

type data_edge = {
  de_behavior : string;
  de_variable : string;
  de_dir : data_dir;
  de_count : int;
  de_bits : int;
}

type t = {
  g_objects : string list;
  g_variables : string list;
  g_control : control_edge list;
  g_data : data_edge list;
}

let default_objects (p : Ast.program) =
  List.rev
    (Behavior.fold
       (fun acc b -> if Behavior.is_leaf b then b.Ast.b_name :: acc else acc)
       [] p.Ast.p_top)

let subtree_names ix name =
  match Index.behavior ix name with
  | None -> invalid_arg (Printf.sprintf "unknown object behavior %s" name)
  | Some b -> Behavior.names b

(* No object may sit inside another object's subtree.  Reports the first
   offending pair in object order (outer, then inner). *)
let check_objects subtrees =
  let is_object = Hashtbl.create 64 in
  List.iter (fun (o, _) -> Hashtbl.replace is_object o ()) subtrees;
  List.iter
    (fun (o, names) ->
      let nested = Hashtbl.create 8 in
      List.iter
        (fun n ->
          if (not (String.equal n o)) && Hashtbl.mem is_object n then
            Hashtbl.replace nested n ())
        names;
      match List.find_opt (fun (o', _) -> Hashtbl.mem nested o') subtrees with
      | Some (o', _) ->
        invalid_arg
          (Printf.sprintf "object %s is nested inside object %s" o' o)
      | None -> ())
    subtrees

let control_edges_of (p : Ast.program) =
  (* One edge list per sequential composition, in reverse preorder. *)
  let edges_of acc b =
    match b.Ast.b_body with
    | Ast.Seq arms ->
      let explicit =
        List.concat_map
          (fun a ->
            List.filter_map
              (fun t ->
                match t.Ast.t_target with
                | Ast.Goto dst ->
                  Some
                    {
                      ce_src = a.Ast.a_behavior.Ast.b_name;
                      ce_dst = dst;
                      ce_cond = t.Ast.t_cond;
                    }
                | Ast.Complete -> None)
              a.Ast.a_transitions)
          arms
      in
      (* Fall-through arcs for arms with no explicit transitions. *)
      let rec fallthrough = function
        | a :: (next :: _ as rest) ->
          let arc =
            if a.Ast.a_transitions = [] then
              [
                {
                  ce_src = a.Ast.a_behavior.Ast.b_name;
                  ce_dst = next.Ast.a_behavior.Ast.b_name;
                  ce_cond = None;
                };
              ]
            else []
          in
          arc @ fallthrough rest
        | [ _ ] | [] -> []
      in
      (explicit @ fallthrough arms) :: acc
    | Ast.Leaf _ | Ast.Par _ -> acc
  in
  List.concat (List.rev (Behavior.fold edges_of [] p.Ast.p_top))

let of_program ?while_iterations ?objects (p : Ast.program) =
  let objects =
    match objects with Some o -> o | None -> default_objects p
  in
  let ix = Index.of_program p in
  let subtrees = List.map (fun o -> (o, subtree_names ix o)) objects in
  check_objects subtrees;
  let per_behavior = Hashtbl.create 64 in
  List.iter
    (fun (n, accs) ->
      if not (Hashtbl.mem per_behavior n) then Hashtbl.add per_behavior n accs)
    (Analysis.behavior_accesses ?while_iterations p);
  let var_width x =
    match Index.var ix x with
    | Some v -> Ast.ty_width v.Ast.v_ty
    | None -> 0
  in
  let data =
    List.concat_map
      (fun (obj, names) ->
        let raw =
          List.concat_map
            (fun n ->
              match Hashtbl.find_opt per_behavior n with
              | Some accs -> accs
              | None -> [])
            names
        in
        (* Aggregate the subtree accesses per (variable, direction). *)
        let tbl = Hashtbl.create 8 in
        let order = ref [] in
        List.iter
          (fun (a : Analysis.access) ->
            let dir =
              match a.Analysis.ac_kind with
              | Analysis.Read -> Dread
              | Analysis.Write -> Dwrite
            in
            let key = (a.Analysis.ac_var, dir) in
            if not (Hashtbl.mem tbl key) then order := key :: !order;
            let prev =
              match Hashtbl.find_opt tbl key with Some n -> n | None -> 0
            in
            Hashtbl.replace tbl key (prev + a.Analysis.ac_count))
          raw;
        List.rev_map
          (fun (v, dir) ->
            {
              de_behavior = obj;
              de_variable = v;
              de_dir = dir;
              de_count = Hashtbl.find tbl (v, dir);
              de_bits = var_width v;
            })
          !order)
      subtrees
  in
  {
    g_objects = objects;
    g_variables = Program.var_names p;
    g_control = control_edges_of p;
    g_data = data;
  }

let data_edges_of_var g v =
  List.filter (fun e -> String.equal e.de_variable v) g.g_data

let data_edges_of_behavior g b =
  List.filter (fun e -> String.equal e.de_behavior b) g.g_data

let behaviors_accessing g v =
  List.sort_uniq String.compare
    (List.map (fun e -> e.de_behavior) (data_edges_of_var g v))

let channel_count g = List.length g.g_data
let edge_bits e = e.de_count * e.de_bits

let to_dot g =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "digraph access_graph {\n";
  List.iter
    (fun o -> Buffer.add_string buf (Printf.sprintf "  %S [shape=box];\n" o))
    g.g_objects;
  List.iter
    (fun v ->
      Buffer.add_string buf (Printf.sprintf "  %S [shape=ellipse];\n" v))
    g.g_variables;
  List.iter
    (fun e ->
      let label =
        match e.ce_cond with
        | Some c -> Printf.sprintf " [label=%S, style=dashed]" (Expr.to_string c)
        | None -> " [style=dashed]"
      in
      Buffer.add_string buf
        (Printf.sprintf "  %S -> %S%s;\n" e.ce_src e.ce_dst label))
    g.g_control;
  List.iter
    (fun e ->
      let src, dst =
        match e.de_dir with
        | Dread -> (e.de_variable, e.de_behavior)
        | Dwrite -> (e.de_behavior, e.de_variable)
      in
      Buffer.add_string buf
        (Printf.sprintf "  %S -> %S [label=\"%dx%db\"];\n" src dst e.de_count
           e.de_bits))
    g.g_data;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
