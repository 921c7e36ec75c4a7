(** Lexical scopes: a name -> binding map in which the innermost binding
    wins.  Every layer that resolves names under shadowing (validation,
    type checking, refinement, lint) uses this one type; a binding list
    is read the way [List.assoc] reads it, so within one list the first
    binding of a name wins. *)

type 'a t

val empty : 'a t

val of_list : (string * 'a) list -> 'a t
(** The first binding of a name in the list wins. *)

val push : (string * 'a) list -> 'a t -> 'a t
(** [push inner outer] opens a nested scope: the bindings of [inner]
    shadow those of [outer] (and, within [inner], the first binding of a
    name wins) — [List.assoc] over [inner @ outer]. *)

val push_names : string list -> unit t -> unit t
(** [push_names xs s] binds each of [xs] in a set-like scope. *)

val find_opt : string -> 'a t -> 'a option
val mem : string -> 'a t -> bool
