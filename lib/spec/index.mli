(** The name index of one program: its variables, signals, procedures,
    behaviors and servers by name, built once per program in one pass
    and then consulted in constant time.  Each table keeps the first
    declaration of a name (declaration order; behaviors in tree
    preorder), which is what a scan of the declaration list finds. *)

open Ast

type t

val of_program : program -> t

val var : t -> string -> var_decl option
(** Program-level (partitionable) variable. *)

val signal : t -> string -> sig_decl option
val proc : t -> string -> proc_decl option
val behavior : t -> string -> behavior option

val is_var : t -> string -> bool
val is_signal : t -> string -> bool
val is_server : t -> string -> bool

val globals :
  program -> var:(var_decl -> 'a) -> signal:(sig_decl -> 'a) -> 'a Scope.t
(** The program-wide data scope: every program variable and signal,
    mapped to a binding.  Variables and signals share one namespace and a
    program variable wins over a signal of the same name. *)
