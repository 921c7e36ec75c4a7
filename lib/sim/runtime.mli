(** The process-tree runtime shared by the simulation kernels:
    instantiation, TOC-arc advancement, completion/deadlock analysis and
    final-value readout.  {!Engine} (event-driven) and {!Reference}
    (round-robin polling, kept as the differential baseline) both drive
    exactly this machinery, so all observable behavior is common code. *)

open Spec

type config = {
  max_steps : int;  (** total interpreter steps across all processes *)
  max_deltas : int;
  slice : int;  (** interpreter steps per process per scheduling round *)
  trace_signals : bool;
      (** record every committed signal change (for waveform dumps) *)
}

val default_config : config

type outcome =
  | Completed
  | Deadlock of string list  (** blocked process descriptions *)
  | Step_limit
  | Cancelled  (** the [h_poll] hook asked the kernel to stop *)

type result = {
  r_outcome : outcome;
  r_trace : Trace.event list;
  r_deltas : int;
  r_steps : int;
  r_final : (string * Ast.value) list;
  r_signal_trace : (int * (string * Ast.value) list) list;
}

type probe = {
  pr_delta : int;
  pr_signals : Sigtable.t;
  pr_read_var : string -> Ast.value option;
  pr_write_var : string -> Ast.value -> bool;
}

type hooks = {
  h_intercept : (delta:int -> string -> Ast.value -> Sigtable.action) option;
  h_on_commit : (probe -> unit) option;
  h_poll : (unit -> bool) option;
      (** cooperative cancellation: checked once per scheduling round;
          returning [true] stops the run with {!Cancelled}.  The {e exact}
          interruption point is kernel-dependent (rounds differ between
          the event-driven and polling schedulers), so only the outcome —
          never the partial trace — is comparable across kernels. *)
}

val no_hooks : hooks

val poll_cancelled : hooks -> bool
(** The round-boundary cancellation check both kernels share: [false]
    without an [h_poll] hook. *)

(** {1 The instantiated process tree} *)

(** Which leaf machine the kernels drive: the bytecode register VM
    ({!Vm}, the default) or the retained tree-walking interpreter
    ({!Interp}, the differential oracle).  Both produce bit-identical
    observables — the differential tests enforce it. *)
type backend = [ `Bytecode | `Treewalk ]

val backend_of_string : string -> (backend, string) Stdlib.result
(** Accepts ["vm"]/["bytecode"] and ["tree"]/["treewalk"]. *)

val backend_to_string : backend -> string

(** One leaf process machine of either backend. *)
type machine = Mtree of Interp.exec | Mvm of Vm.thread

val machine_owner : machine -> string
val machine_gen : machine -> int

val machine_finished : machine -> bool
(** Finished as the structural advance observes it: the tree-walker's
    empty task stack, the VM's halt flag — both become true the moment
    the body's last step completes, even mid-slice. *)

type nstate =
  | Nleaf of machine
  | Nseq of seq_run
  | Npar of node list
  | Ndone

and seq_run = {
  mutable s_idx : int;
  mutable s_child : node;
  s_arms : Ast.seq_arm array;
  s_pool : node option array;
      (** per arm, the subtree built when the arm was last entered;
          re-entering an arm rewinds it in place instead of
          instantiating a fresh one *)
  mutable s_conds : (Ast.expr * Vm.cond_prog) list;
      (** TOC-arc conditions compiled for the bytecode backend, keyed by
          physical expression *)
}

and node = {
  nd_behavior : Ast.behavior;
  nd_frame : Env.frame;
  nd_backend : backend;
  mutable nd_state : nstate;
  nd_keep : keep;
      (** the structure behind [nd_state], retained past completion so a
          re-entered arm can be rewound instead of rebuilt *)
}

and keep =
  | Kleaf of machine
  | Kseq of seq_run
  | Kpar of node list
  | Knone  (** empty composition: born done *)

val instantiate : ?backend:backend -> Env.frame -> Ast.behavior -> node
(** Build the process tree with the given leaf backend (default
    [`Bytecode]). *)

val reset_node : node -> unit
(** Rewind a previously-built subtree to its freshly-instantiated state,
    in place: cells and arrays are overwritten (never replaced), leaf
    machines restart at the top of their compiled bodies, sequential
    compositions re-enter their first arm.  Observably identical to
    {!instantiate} without rebuilding any frame, table or compiled
    body. *)

val is_done : node -> bool

val leaves : node -> machine list
(** All live leaf machines, in preorder — the deterministic scheduling
    order of both kernels. *)

val eval_cond : Interp.context -> Env.frame -> Ast.expr -> bool
(** Evaluate a TOC-arc condition in a behavior's frame.
    @raise Interp.Run_error when the condition is not boolean. *)

val advance : Interp.context -> node -> bool
(** One structural step: finished leaves become done, completed [seq]
    children take their TOC arc, completed [par] compositions close.
    True when anything changed. *)

val advance_fixpoint : Interp.context -> node -> bool
(** Iterate {!advance} to quiescence; true when anything changed at all.
    After it returns, no further structural change is possible until
    another leaf finishes. *)

val effectively_done : string list -> node -> bool
(** Completion up to registered servers: done, a server, or a parallel
    composition of effectively done children. *)

val waited_signals : Interp.context -> Env.frame -> Ast.expr -> string list
(** ["name=value"] for every signal {e and frame variable} a blocked wait
    condition reads — deadlock reports are built from these. *)

val blocked_descriptions :
  Interp.context -> string list -> node -> string list

val final_values : Env.frame -> node -> (string * Ast.value) list

val find_cell : Env.frame -> node -> string -> Ast.value ref option
(** Probe access: the cell of a declared variable, root frame first, then
    preorder over the live tree (first occurrence wins, matching
    {!final_values}).  A full tree walk — the engine caches it per name
    and invalidates on structural change. *)

val outcome_to_string : outcome -> string
