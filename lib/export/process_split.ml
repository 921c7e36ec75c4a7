(** Process splitting for the code-generation backends.

    Both backends map each parallel composition onto truly concurrent
    carriers (VHDL processes / documented threads), so parallel
    composition may only appear {e above} sequential composition in the
    tree: the refined outputs have this shape (components, memories and
    interfaces are parallel at the top, everything below is sequential),
    and so do typical functional specifications.  A [Par] nested beneath a
    [Seq] would need a fork/join protocol and is rejected with a clear
    error. *)

open Spec
open Spec.Ast

type proc_inst = {
  pi_name : string;  (** name of the process root behavior *)
  pi_behavior : behavior;  (** a Par-free subtree *)
  pi_shared_vars : var_decl list;
      (** variables declared on [Par] ancestors, visible to (and shared
          with) sibling processes *)
  pi_server : bool;
}

let rec check_no_par b =
  match b.b_body with
  | Par _ -> Error (Printf.sprintf "parallel composition %s is nested below a sequential composition" b.b_name)
  | Leaf _ -> Ok ()
  | Seq arms ->
    List.fold_left
      (fun acc a ->
        match acc with Error _ -> acc | Ok () -> check_no_par a.a_behavior)
      (Ok ()) arms

(** Split a program's behavior tree into its concurrent processes. *)
let split (p : program) : (proc_inst list, string) result =
  let ix = Index.of_program p in
  let is_server name = Index.is_server ix name in
  let rec walk shared inherited_server b =
    let server = inherited_server || is_server b.b_name in
    match b.b_body with
    | Par children ->
      let shared = shared @ b.b_vars in
      List.fold_left
        (fun acc c ->
          match acc with
          | Error _ -> acc
          | Ok procs ->
            begin match walk shared server c with
            | Ok more -> Ok (procs @ more)
            | Error e -> Error e
            end)
        (Ok []) children
    | Leaf _ | Seq _ ->
      begin match check_no_par b with
      | Error e -> Error e
      | Ok () ->
        Ok
          [
            {
              pi_name = b.b_name;
              pi_behavior = b;
              pi_shared_vars = shared;
              pi_server = server;
            };
          ]
      end
  in
  walk [] false p.p_top
