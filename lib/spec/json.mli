(** JSON values: the one JSON type, printer, string escaper and parser
    of the code base.  Reports that print JSON ({!Diagnostic.to_json},
    lint, sweep, campaign and litmus reports) escape their strings with
    {!escape}; the serve wire protocol ({!Serve.Protocol}) re-exports
    the type and the parser.

    Self-contained: a hand-rolled parser and printer (no external
    dependency), covering objects, arrays, strings with standard escapes
    (including [\uXXXX], encoded to UTF-8), integers, floats, booleans
    and null. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val escape : string -> string
(** The body of a JSON string literal (without the quotes): ["\""],
    ["\\"], newline, carriage return, tab, backspace and form feed get
    their short escapes, other control characters [\u00XX]. *)

val to_string : t -> string
(** Compact one-line rendering; strings are escaped so the result never
    contains a raw newline. *)

val parse : string -> (t, string) result
(** Parse one JSON document (surrounding whitespace allowed; trailing
    garbage is an error). *)

(** {1 Accessors} *)

val member : string -> t -> t option
(** Field lookup on an object; [None] on missing field or non-object. *)

val string_field : ?default:string -> string -> t -> (string, string) result
val int_field : ?default:int -> string -> t -> (int, string) result
val float_field : ?default:float -> string -> t -> (float option, string) result
val bool_field : ?default:bool -> string -> t -> (bool, string) result

val string_list_field :
  ?default:string list -> string -> t -> (string list, string) result
(** A field holding an array of strings (numbers are stringified). *)
