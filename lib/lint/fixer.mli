(** [mrefine lint --fix]: gated source-to-source rewrites for the
    mechanical diagnostic codes [WIDTH001] (widen narrowed destination
    declarations), [PROTO003] (inline a waited-but-never-driven signal
    as the constant it is stuck at), [PROTO002] (synthesize a passive
    observer server for a driven-but-never-observed signal) and
    [CONT001] (synthesize a request/grant arbiter for a multi-master
    bus).

    Every rewrite must pass four gates before it is kept: the candidate
    validates, its printed source re-parses, a re-lint reports zero
    findings for the fixed code, and cosimulation proves it
    trace-equivalent to the original input.  Failing transforms are
    reported as refused with the gate's reason. *)

open Spec

type applied = {
  fx_code : string;
  fx_loc : string;  (** the declaration, signal or bus that was fixed *)
  fx_note : string;  (** human-readable description of the rewrite *)
}

type refused = {
  fr_code : string;
  fr_loc : string;
  fr_reason : string;  (** which gate failed, and why *)
}

type result = {
  x_program : Ast.program;
      (** the fixed program (the input when nothing applied) *)
  x_source : string;  (** its printed source *)
  x_applied : applied list;
  x_refused : refused list;
  x_changed : bool;
}

val fixable_codes : string list
(** [["CONT001"; "PROTO002"; "PROTO003"; "WIDTH001"]]. *)

exception Cancelled
(** Raised by {!fix} when its [poll] callback reports cancellation. *)

val fix :
  ?codes:string list -> ?poll:(unit -> bool) -> Ast.program -> result
(** Apply every fixable transform (restricted to [codes] if given), in
    the order WIDTH001, PROTO003, PROTO002, CONT001; each accepted
    rewrite feeds
    the next, and the equivalence gate always compares against the
    pristine input program.  [poll] (default: never) is consulted
    before each candidate's validate/re-lint/cosimulate gate; when it
    returns [true] the fix run stops by raising {!Cancelled}. *)

val to_json : result -> string
(** The fix report of [mrefine lint --fix --json] and of served fix
    jobs: [{"changed":..,"applied":[{"code","loc","note"}..],
    "refused":[{"code","loc","reason"}..],"source":".."}], one line, no
    trailing newline. *)
