(** The command layer: one typed request and one run function per served
    command — refine, lint (with [--fix]), explore, faults and litmus —
    shared by both front ends.  [bin/mrefine.ml] turns cmdliner flags
    into a request, runs it and prints the outcome; {!Serve.Jobs}
    decodes a JSON job into the same request, so the report is the same
    bytes on both surfaces by construction.

    Each enumeration has one decoder, used by the cmdliner converters
    and the JSON decoders alike, and there is one partition constructor,
    {!partition}, which is total. *)

(** {1 Enumerations}

    Each decoder's error names the bad value and the accepted ones.
    Port orderings and simulation backends decode with
    {!Sim.Memord.policy_of_string} and {!Sim.Runtime.backend_of_string}. *)

type algo = Greedy | Kl | Annealing | Clustering

val algo_of_string : string -> (algo, string) result
val algo_name : algo -> string
val model_of_string : string -> (Core.Model.t, string) result
val protocol_of_string : string -> (Core.Protocol.style, string) result
val severity_of_string : string -> (Spec.Diagnostic.severity, string) result

val phase_of_string : string -> (Lint.Registry.phase option, string) result
(** ["auto"] ([None]: inferred from the program), ["pre"] or ["post"]. *)

val phase_name : Lint.Registry.phase option -> string
val fault_class_of_string : string -> (Faults.Fault.cls, string) result
val bias_of_string : string -> (Partitioning.Design_search.bias, string) result
val shape_of_string : string -> (Litmus.Shape.t, string) result

(** {1 Inputs} *)

(** A parsed, validated specification.  The access graph and exploration
    context are lazy: a CLI lint never derives them, and the serve
    daemon passes the ones its session already holds. *)
type spec = {
  sp_program : Spec.Ast.program;
  sp_locations : Spec.Parser.locations;
  sp_graph : Agraph.Access_graph.t Lazy.t;
  sp_ctx : Explore.Evaluate.ctx Lazy.t;
}

val parse_spec :
  string -> (Spec.Ast.program * Spec.Parser.locations, string) result
(** Parse and validate specification source text. *)

val spec_of_source : string -> (spec, string) result

type partitioning = {
  pt_parts : int;
  pt_algo : algo;
  pt_seed : int;  (** seed of the randomized algorithms *)
  pt_assign : string option;
      (** manual assignment, e.g. ["A=0,B=1,x=1"]; wins over [pt_algo] *)
}

val default_partitioning : partitioning
(** 2 parts, greedy, seed 42. *)

val partition :
  Agraph.Access_graph.t -> partitioning -> (Partitioning.Partition.t, string) result
(** The one partition constructor.  A part count below 1, a malformed or
    unknown assignment entry, an out-of-range index, a duplicate object
    and an incomplete assignment are each an [Error] naming the
    offending entry; it never raises. *)

(** One refinement; also the whole [refine] request. *)
type design = {
  ds_model : Core.Model.t;
  ds_partitioning : partitioning;
  ds_protocol : Core.Protocol.style;
  ds_harden : bool;
}

val default_design : design
(** Model2, {!default_partitioning}, four-phase, unhardened. *)

val refine_design : spec -> design -> (Core.Refiner.t, string) result

(** {1 Requests} *)

type lint = {
  li_file : string;  (** the name diagnostics are located against *)
  li_codes : string list;  (** keep (report) or fix (fix) only these *)
  li_json : bool;
  li_fix : bool;  (** run {!Lint.Fixer}; non-fixable codes are an error *)
  li_severity : Spec.Diagnostic.severity;  (** report-only *)
  li_phase : Lint.Registry.phase option;  (** report-only *)
  li_overrides : (string * Lint.Registry.override) list;  (** report-only *)
  li_flow : bool;  (** report-only *)
}

val default_lint : lint

val check_fix_options : fix:bool -> string list -> (unit, string) result
(** The one [--fix] option policy: with [fix], any report-only option the
    caller set (named as its surface spells it) is an error rather than
    silently ignored. *)

type explore = {
  ex_models : Core.Model.t list;
  ex_seeds : int list;
  ex_biases : Partitioning.Design_search.bias list;
  ex_parts : int;
  ex_steps : int;
  ex_jobs : int;
  ex_top : int;  (** candidate rows shown; 0 = all *)
  ex_deadline : float option;  (** per candidate *)
  ex_retries : int;
  ex_json : bool;
}

val default_explore : explore

type faults = {
  fl_design : design;
  fl_classes : Faults.Fault.cls list;
  fl_seeds : int;
  fl_base_seed : int;
  fl_deadline : float option;  (** whole campaign *)
  fl_ordering : Sim.Memord.policy;
  fl_backend : Sim.Runtime.backend;
  fl_json : bool;
}

val default_faults : faults

type litmus = {
  lt_shapes : Litmus.Shape.t list;  (** [[]]: every shape *)
  lt_orderings : Sim.Memord.policy list;
  lt_seeds : int;
  lt_faults : bool;
  lt_backend : Sim.Runtime.backend;
  lt_json : bool;
}

val default_litmus : litmus

(** {1 Running} *)

(** What a command may use beyond its request. *)
type env = {
  e_poll : unit -> bool;
      (** cancellation: checked between stages and threaded into the
          sweep, campaign and fixer *)
  e_cache : Explore.Cache.t option;
      (** explore's evaluation cache; [None]: a private in-memory one *)
  e_journal : string option;
      (** explore / faults checkpoint journal, opened under the command's
          own meta and closed when it returns *)
  e_note : (string -> unit) option;
      (** console notes (the refine report, fix actions, ROBUST001
          warnings); [None]: they are not computed *)
}

val env : env
(** Never cancelled; no cache, journal or notes. *)

type outcome = {
  o_output : string;  (** the report: CLI stdout, the served ["output"] *)
  o_meta : (string * Spec.Json.t) list;  (** facts for the serve reply *)
  o_failed : bool;
      (** a failing verdict (lint errors; litmus forbidden outcomes,
          fault-free corruption or kernel mismatches): the CLI exits 1 *)
}

val cancelled_message : string
(** The [Error] of a command stopped by its poll. *)

val refine : env -> spec -> design -> (outcome, string) result
(** Partition, refine, {!Core.Check} and print.  It never polls, so its
    result can be memoized. *)

val lint : env -> spec -> lint -> (outcome, string) result
(** The lint report, or the fix report: {!Lint.Fixer.to_json} with
    [li_json], else the fixed source plus one note per rewrite. *)

type target = {
  tg_name : string;
  tg_program : Spec.Ast.program;
  tg_phase : Lint.Registry.phase option;
  tg_locations : Spec.Parser.locations option;
}

val lint_targets : lint -> target list -> outcome
(** The lint report over several programs, each with its own phase. *)

val explore : env -> spec -> explore -> (outcome, string) result
val faults : env -> spec -> faults -> (outcome, string) result
val litmus : env -> litmus -> (outcome, string) result
