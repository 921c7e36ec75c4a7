module M = Map.Make (String)

type 'a t = 'a M.t

let empty = M.empty

(* Added last to first, so the first binding of a name is the one
   left standing. *)
let push bindings scope =
  List.fold_left (fun s (x, v) -> M.add x v s) scope (List.rev bindings)

let of_list bindings = push bindings empty
let push_names names scope =
  List.fold_left (fun s x -> M.add x () s) scope names

let find_opt = M.find_opt
let mem = M.mem
