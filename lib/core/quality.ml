(** Quality-metric estimation for a refined design (paper, Section 1:
    "estimation of quality metrics such as performance, size, pins, power
    and cost, for different implementations, as guidance for the
    partitioning process").

    Per component: execution time of its processes, software size on
    processors, gate count on ASICs, and pin demand (the bus and handshake
    wires crossing the component boundary), checked against the
    component's capacity.  Per memory: words, width and ports.  The
    models are deliberately simple and fully documented — relative
    comparisons between implementation models are the purpose, as in the
    paper. *)

open Spec
open Spec.Ast

type component_quality = {
  cq_partition : int;
  cq_component : Arch.Component.t;
  cq_exec_seconds : float;
      (** summed estimated execution time of the partition's processes *)
  cq_software_bytes : int option;  (** processors: estimated code size *)
  cq_gates : int option;  (** ASICs: estimated gate count *)
  cq_pins : int;  (** bus + handshake wires crossing the boundary *)
  cq_gates_ok : bool option;  (** within the ASIC's gate capacity *)
  cq_pins_ok : bool option;  (** within the ASIC's pin count *)
}

type memory_quality = {
  mq_name : string;
  mq_words : int;
  mq_width : int;
  mq_ports : int;
}

type t = {
  q_components : component_quality list;
  q_memories : memory_quality list;
}

(* Crude but deterministic size models, documented here once:
   - software: 4 bytes per estimated processor cycle of straight-line
     cost (instruction bytes track dynamic cost closely enough for
     relative comparison), plus 16 bytes of call/return overhead per
     process;
   - hardware: 4 gates per expression operation, 12 gates of control per
     statement, 80 gates of FSM overhead per behavior — calibrated so the
     paper's running allocation (a 10k-gate ASIC hosting half the medical
     system) is feasible, as it was in the paper. *)

let software_bytes processes =
  List.fold_left
    (fun acc b -> acc + (4 * Behavior.stmt_count b) + 16)
    0 processes

let rec expr_ops_stmts stmts =
  List.fold_left (fun acc s -> acc + expr_ops_stmt s) 0 stmts

and expr_ops_stmt = function
  | Assign (_, e) | Signal_assign (_, e) | Wait_until e | Emit (_, e) ->
    Expr.size e
  | Assign_idx (_, i, e) -> Expr.size i + Expr.size e
  | If (branches, els) ->
    List.fold_left
      (fun acc (c, body) -> acc + Expr.size c + expr_ops_stmts body)
      (expr_ops_stmts els) branches
  | While (c, body) -> Expr.size c + expr_ops_stmts body
  | For (_, lo, hi, body) ->
    Expr.size lo + Expr.size hi + expr_ops_stmts body
  | Call (_, args) ->
    List.fold_left
      (fun acc -> function Arg_expr e -> acc + Expr.size e | Arg_var _ -> acc + 1)
      1 args
  | Skip -> 0

let gates_of processes =
  List.fold_left
    (fun acc b ->
      let ops =
        Behavior.fold
          (fun acc b ->
            match b.b_body with
            | Leaf stmts -> acc + expr_ops_stmts stmts
            | Seq _ | Par _ -> acc)
          0 b
      in
      acc + (4 * ops) + (12 * Behavior.stmt_count b)
      + (80 * Behavior.behavior_count b))
    0 processes

(* Wires crossing component [i]'s boundary:
   - every instantiated bus mastered by one of its processes: the six bus
     lines (start, done, rd, wr + address + data widths);
   - two request/acknowledge wires per arbitrated requester it owns;
   - two handshake wires per moved behavior whose controller and body
     sit on opposite sides of the boundary (one of them is [i]). *)
let pins_of (r : Refiner.t) ~partition ~moved_pairs =
  let of_buses =
    List.fold_left
      (fun acc (bi : Refiner.bus_inst) ->
        let owned =
          List.filter
            (fun (name, _) ->
              match List.assoc_opt name r.Refiner.rf_processes with
              | Some p -> p = partition
              | None ->
                (* Model4 interface masters live with their partition's
                   memory subsystem. *)
                String.equal name (Printf.sprintf "BIF_out_master_%d" partition))
            bi.Refiner.bi_requesters
        in
        if owned = [] then acc
        else
          let bs = bi.Refiner.bi_signals in
          acc + 4 + bs.Protocol.bs_addr_width + bs.Protocol.bs_data_width
          + if bi.Refiner.bi_arbiter <> None then 2 * List.length owned else 0)
      0 r.Refiner.rf_buses
  in
  let of_handshakes = 2 * moved_pairs in
  of_buses + of_handshakes

let of_refinement ~alloc (r : Refiner.t) =
  let prog = r.Refiner.rf_program in
  let ix = Index.of_program prog in
  let n_parts = r.Refiner.rf_plan.Bus_plan.bp_parts in
  let behaviors_of partition =
    List.filter_map
      (fun (name, p) -> if p = partition then Index.behavior ix name else None)
      r.Refiner.rf_processes
  in
  let components =
    List.map
      (fun partition ->
        let comp = Arch.Allocation.component alloc partition in
        let processes = behaviors_of partition in
        let exec_seconds =
          List.fold_left
            (fun acc b ->
              acc
              +. Estimate.Lifetime.seconds comp b)
            0.0 processes
        in
        let moved_pairs =
          (* every moved behavior crosses a boundary; both sides pay the
             handshake pins *)
          List.length
            (List.filter
               (fun (name, p) ->
                 List.mem name r.Refiner.rf_moved
                 && (p = partition || r.Refiner.rf_top_home = partition))
               r.Refiner.rf_processes)
        in
        let pins = pins_of r ~partition ~moved_pairs in
        let software, gates, gates_ok, pins_ok =
          match comp.Arch.Component.c_kind with
          | Arch.Component.Processor _ ->
            (Some (software_bytes processes), None, None, None)
          | Arch.Component.Asic a ->
            let g = gates_of processes in
            ( None,
              Some g,
              Some (g <= a.Arch.Component.asic_gates),
              Some (pins <= a.Arch.Component.asic_pins) )
          | Arch.Component.Memory _ -> (None, None, None, None)
        in
        {
          cq_partition = partition;
          cq_component = comp;
          cq_exec_seconds = exec_seconds;
          cq_software_bytes = software;
          cq_gates = gates;
          cq_pins = pins;
          cq_gates_ok = gates_ok;
          cq_pins_ok = pins_ok;
        })
      (List.init n_parts Fun.id)
  in
  let data_width =
    match r.Refiner.rf_buses with
    | bi :: _ -> bi.Refiner.bi_signals.Protocol.bs_data_width
    | [] -> 0
  in
  (* Words of storage: scalars one word, arrays one per element.  The
     declarations live in the refined program's memory behaviors. *)
  let decl_table =
    List.map
      (fun (_, d) -> (d.v_name, d))
      (Behavior.all_var_decls prog.p_top)
  in
  let words_of name =
    match List.assoc_opt name decl_table with
    | Some { v_ty = TArray (_, size); _ } -> size
    | Some _ | None -> 1
  in
  let memories =
    List.filter_map
      (fun mem ->
        match Bus_plan.vars_of_memory r.Refiner.rf_plan mem with
        | [] -> None
        | vars ->
          let ports =
            match mem with
            | Bus_plan.Gmem ->
              Model.global_memory_ports r.Refiner.rf_model ~p:n_parts
            | Bus_plan.Gmem_part g ->
              List.length
                (List.filter
                   (fun (bi : Refiner.bus_inst) ->
                     match bi.Refiner.bi_role with
                     | Bus_plan.Dedicated { mem = m; _ } -> m = g
                     | _ -> false)
                   r.Refiner.rf_buses)
            | Bus_plan.Lmem _ -> 1
          in
          Some
            {
              mq_name =
                (match mem with
                | Bus_plan.Gmem -> "Gmem"
                | Bus_plan.Gmem_part g -> Printf.sprintf "Gmem%d" g
                | Bus_plan.Lmem i -> Printf.sprintf "Lmem%d" i);
              mq_words = List.fold_left (fun acc v -> acc + words_of v) 0 vars;
              mq_width = data_width;
              mq_ports = ports;
            })
      (Bus_plan.memories r.Refiner.rf_plan)
  in
  { q_components = components; q_memories = memories }

let pp ppf q =
  List.iter
    (fun c ->
      Format.fprintf ppf "P%d (%a): %.2f us" c.cq_partition Arch.Component.pp
        c.cq_component
        (c.cq_exec_seconds *. 1e6);
      (match c.cq_software_bytes with
      | Some b -> Format.fprintf ppf ", ~%d bytes of code" b
      | None -> ());
      (match c.cq_gates with
      | Some g ->
        Format.fprintf ppf ", ~%d gates%s" g
          (match c.cq_gates_ok with
          | Some true -> " (fits)"
          | Some false -> " (OVER CAPACITY)"
          | None -> "")
      | None -> ());
      Format.fprintf ppf ", %d pins%s@," c.cq_pins
        (match c.cq_pins_ok with
        | Some true -> " (fits)"
        | Some false -> " (OVER PIN BUDGET)"
        | None -> ""))
    q.q_components;
  List.iter
    (fun m ->
      Format.fprintf ppf "%s: %d x %d bits, %d port(s)@," m.mq_name m.mq_words
        m.mq_width m.mq_ports)
    q.q_memories
