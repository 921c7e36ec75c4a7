type klass = Local | Global

type report = {
  locals : string list;
  globals : string list;
  unaccessed : string list;
}

let home_of part v =
  match Partition.part_of_variable part v with
  | Some i -> i
  | None -> invalid_arg (Printf.sprintf "Classify: variable %s unassigned" v)

let part_of_behavior part b =
  match Partition.part_of_behavior part b with
  | Some i -> i
  | None -> invalid_arg (Printf.sprintf "Classify: behavior %s unassigned" b)

let classify g part v =
  let home = home_of part v in
  let users = Agraph.Access_graph.behaviors_accessing g v in
  if List.for_all (fun b -> part_of_behavior part b = home) users then Local
  else Global

let report g part =
  (* The accessing behaviors of every variable, from one pass over the
     data edges. *)
  let users = Hashtbl.create 64 in
  List.iter
    (fun (e : Agraph.Access_graph.data_edge) ->
      Hashtbl.add users e.Agraph.Access_graph.de_variable
        e.Agraph.Access_graph.de_behavior)
    g.Agraph.Access_graph.g_data;
  let step (locals, globals, unaccessed) v =
    match Hashtbl.find_all users v with
    | [] -> (locals, globals, v :: unaccessed)
    | bs ->
      let home = home_of part v in
      if
        List.for_all
          (fun b -> part_of_behavior part b = home)
          (List.sort_uniq String.compare bs)
      then
        (v :: locals, globals, unaccessed)
      else (locals, v :: globals, unaccessed)
  in
  let locals, globals, unaccessed =
    List.fold_left step ([], [], []) g.Agraph.Access_graph.g_variables
  in
  {
    locals = List.rev locals;
    globals = List.rev globals;
    unaccessed = List.rev unaccessed;
  }

let ratio r =
  float_of_int (List.length r.locals)
  /. float_of_int (max 1 (List.length r.globals))
