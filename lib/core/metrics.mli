(** Specification-size metrics (paper, Figure 10): lines of the printed
    specification, growth ratio of refined over original, and structural
    counts. *)

type t = {
  m_lines : int;
  m_behaviors : int;
  m_statements : int;
  m_signals : int;
  m_procedures : int;
  m_variables : int;  (** program-level + behavior-local declarations *)
}

val of_program : Spec.Ast.program -> t

val growth : original:int -> refined:int -> float
(** Refined-over-original ratio of line counts ({!Spec.Printer.line_count})
    — the paper reports 11-19x for the medical system and argues a ~10x
    productivity gain from automatic refinement. *)

val pp : Format.formatter -> t -> unit
