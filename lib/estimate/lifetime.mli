(** Behavior lifetime estimation: how long a behavior executes on the
    component its partition maps to.  Channel transfer rates divide bits
    by this lifetime (paper, Section 5 / its reference [13]). *)

val behavior_cycles :
  ?config:Cost_model.config -> Arch.Component.t -> Spec.Ast.behavior -> float
(** Execution cycles of a behavior tree: leaves cost their statements,
    sequential compositions sum their arms, parallel compositions take the
    slowest child. *)

val seconds :
  ?config:Cost_model.config -> Arch.Component.t -> Spec.Ast.behavior -> float
(** Lifetime in seconds of a behavior on the given component, floored at
    one clock cycle.
    @raise Invalid_argument on a clockless component. *)

val behavior_seconds :
  ?config:Cost_model.config ->
  Spec.Ast.program ->
  Arch.Component.t ->
  string ->
  float
(** Lifetime in seconds of the named behavior on the given component,
    floored at one clock cycle.
    @raise Invalid_argument on an unknown behavior or a clockless
    component. *)

val partitioned_behavior_seconds :
  ?config:Cost_model.config ->
  Spec.Index.t ->
  Arch.Allocation.t ->
  Partitioning.Partition.t ->
  string ->
  float
(** Lifetime of a partitioned behavior, found through the program's
    index, on the component its partition maps to. *)
