(** The command layer; see the interface. *)

let ( let* ) = Result.bind

(* --- enumerations -------------------------------------------------------- *)

let of_option what ~use f s =
  match f s with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "unknown %s %S (use %s)" what s use)

type algo = Greedy | Kl | Annealing | Clustering

let algo_name = function
  | Greedy -> "greedy"
  | Kl -> "kl"
  | Annealing -> "annealing"
  | Clustering -> "clustering"

let algo_of_string =
  of_option "algo" ~use:"greedy, kl, annealing or clustering" (fun s ->
      List.find_opt
        (fun a -> algo_name a = s)
        [ Greedy; Kl; Annealing; Clustering ])

let model_of_string = of_option "model" ~use:"1-4" Core.Model.of_string

let protocol_of_string =
  of_option "protocol" ~use:"four-phase or two-phase" (fun s ->
      List.find_opt
        (fun st -> Core.Protocol.style_name st = s)
        [ Core.Protocol.Four_phase; Core.Protocol.Two_phase ])

let severity_of_string =
  of_option "severity" ~use:"info, warning or error"
    Spec.Diagnostic.severity_of_string

let phase_name = function
  | None -> "auto"
  | Some Lint.Registry.Pre -> "pre"
  | Some Lint.Registry.Post -> "post"

let phase_of_string =
  of_option "phase" ~use:"auto, pre or post" (fun s ->
      List.find_opt
        (fun ph -> phase_name ph = s)
        [ None; Some Lint.Registry.Pre; Some Lint.Registry.Post ])

let fault_class_of_string =
  of_option "fault class"
    ~use:
      (String.concat ", "
         (List.map Faults.Fault.cls_name Faults.Fault.all_classes))
    Faults.Fault.cls_of_name

let bias_of_string =
  of_option "bias" ~use:"balanced, local or global"
    Explore.Candidate.bias_of_string

let shape_of_string =
  of_option "litmus shape" ~use:"sb, mp, lb, co, mem or mem-tmr"
    Litmus.Shape.find

(* --- inputs ------------------------------------------------------------- *)

type spec = {
  sp_program : Spec.Ast.program;
  sp_locations : Spec.Parser.locations;
  sp_graph : Agraph.Access_graph.t Lazy.t;
  sp_ctx : Explore.Evaluate.ctx Lazy.t;
}

let parse_spec source =
  let* p, locs = Spec.Parser.program_of_string_located source in
  match Spec.Program.validate p with
  | Ok () -> Ok (p, locs)
  | Error msgs -> Error ("invalid specification: " ^ String.concat "; " msgs)

let spec_of_source source =
  let* p, locs = parse_spec source in
  Ok
    {
      sp_program = p;
      sp_locations = locs;
      sp_graph = lazy (Agraph.Access_graph.of_program p);
      sp_ctx = lazy (Explore.Evaluate.make_ctx p);
    }

type partitioning = {
  pt_parts : int;
  pt_algo : algo;
  pt_seed : int;
  pt_assign : string option;
}

let default_partitioning =
  { pt_parts = 2; pt_algo = Greedy; pt_seed = 42; pt_assign = None }

let partition_of_assign g ~n_parts assign =
  let entry acc e =
    let* assocs = acc in
    let e = String.trim e in
    let bad why = Error (Printf.sprintf "bad assignment entry %S: %s" e why) in
    match String.split_on_char '=' e with
    | [ name; idx ] -> (
      let name = String.trim name and idx = String.trim idx in
      let obj =
        if List.mem name g.Agraph.Access_graph.g_objects then
          Some (Partitioning.Partition.Obj_behavior name)
        else if List.mem name g.Agraph.Access_graph.g_variables then
          Some (Partitioning.Partition.Obj_variable name)
        else None
      in
      match (int_of_string_opt idx, obj) with
      | None, _ -> bad (Printf.sprintf "partition %S is not an integer" idx)
      | Some i, _ when i < 0 || i >= n_parts ->
        bad (Printf.sprintf "partition %d is out of range 0..%d" i (n_parts - 1))
      | _, None -> bad ("unknown object " ^ name)
      | Some _, Some o when List.mem_assoc o assocs ->
        bad (name ^ " is already assigned")
      | Some i, Some o -> Ok ((o, i) :: assocs))
    | _ -> bad "want NAME=PARTITION"
  in
  let* assocs =
    List.fold_left entry (Ok []) (String.split_on_char ',' assign)
  in
  let part = Partitioning.Partition.make ~n_parts (List.rev assocs) in
  match Partitioning.Partition.complete_for g part with
  | Ok () -> Ok part
  | Error msgs -> Error (String.concat "; " msgs)

let partition g pt =
  let n_parts = pt.pt_parts in
  if n_parts < 1 then
    Error (Printf.sprintf "parts must be >= 1 (got %d)" n_parts)
  else
    match pt.pt_assign with
    | Some a -> partition_of_assign g ~n_parts a
    | None ->
      Ok
        (match pt.pt_algo with
        | Greedy -> Partitioning.Greedy.run g ~n_parts
        | Kl -> Partitioning.Kl.run_from_scratch g ~n_parts
        | Annealing ->
          Partitioning.Annealing.run
            ~config:
              { Partitioning.Annealing.default_config with seed = pt.pt_seed }
            g ~n_parts
        | Clustering -> Partitioning.Clustering.run g ~n_parts)

type design = {
  ds_model : Core.Model.t;
  ds_partitioning : partitioning;
  ds_protocol : Core.Protocol.style;
  ds_harden : bool;
}

let default_design =
  { ds_model = Core.Model.Model2; ds_partitioning = default_partitioning;
    ds_protocol = Core.Protocol.Four_phase; ds_harden = false }

let refine_design spec d =
  let g = Lazy.force spec.sp_graph in
  let* part = partition g d.ds_partitioning in
  let options =
    {
      Core.Refiner.default_options with
      protocol = d.ds_protocol;
      harden = d.ds_harden;
    }
  in
  match Core.Refiner.refine ~options spec.sp_program g part d.ds_model with
  | r -> Ok r
  | exception Core.Refiner.Refine_error msg -> Error msg

(* --- requests ----------------------------------------------------------- *)

type lint = {
  li_file : string;
  li_codes : string list;
  li_json : bool;
  li_fix : bool;
  li_severity : Spec.Diagnostic.severity;
  li_phase : Lint.Registry.phase option;
  li_overrides : (string * Lint.Registry.override) list;
  li_flow : bool;
}

let default_lint =
  { li_file = "<spec>"; li_codes = []; li_json = false; li_fix = false;
    li_severity = Spec.Diagnostic.Info; li_phase = None; li_overrides = [];
    li_flow = false }

let check_fix_options ~fix given =
  if fix && given <> [] then
    Error
      (Printf.sprintf "%s do(es) not apply to fix" (String.concat ", " given))
  else Ok ()

type explore = {
  ex_models : Core.Model.t list;
  ex_seeds : int list;
  ex_biases : Partitioning.Design_search.bias list;
  ex_parts : int;
  ex_steps : int;
  ex_jobs : int;
  ex_top : int;
  ex_deadline : float option;
  ex_retries : int;
  ex_json : bool;
}

let default_explore =
  let c = Explore.Sweep.default_config in
  { ex_models = c.models; ex_seeds = c.seeds; ex_biases = c.biases;
    ex_parts = c.n_parts; ex_steps = c.steps; ex_jobs = c.jobs; ex_top = 0;
    ex_deadline = c.deadline_s; ex_retries = c.retries; ex_json = false }

type faults = {
  fl_design : design;
  fl_classes : Faults.Fault.cls list;
  fl_seeds : int;
  fl_base_seed : int;
  fl_deadline : float option;
  fl_ordering : Sim.Memord.policy;
  fl_backend : Sim.Runtime.backend;
  fl_json : bool;
}

let default_faults =
  let c = Faults.Campaign.default_config in
  { fl_design = default_design; fl_classes = c.cf_classes;
    fl_seeds = c.cf_seeds; fl_base_seed = c.cf_base_seed;
    fl_deadline = c.cf_deadline_s; fl_ordering = c.cf_ordering;
    fl_backend = `Bytecode; fl_json = false }

type litmus = {
  lt_shapes : Litmus.Shape.t list;
  lt_orderings : Sim.Memord.policy list;
  lt_seeds : int;
  lt_faults : bool;
  lt_backend : Sim.Runtime.backend;
  lt_json : bool;
}

let default_litmus =
  { lt_shapes = []; lt_seeds = 4; lt_faults = false; lt_backend = `Bytecode;
    lt_json = false;
    lt_orderings =
      Sim.Memord.[ Sc; Per_port_fifo; Relaxed default_window ] }

(* --- running ------------------------------------------------------------ *)

type env = {
  e_poll : unit -> bool;
  e_cache : Explore.Cache.t option;
  e_journal : string option;
  e_note : (string -> unit) option;
}

let env =
  { e_poll = (fun () -> false); e_cache = None; e_journal = None;
    e_note = None }

type outcome = {
  o_output : string;
  o_meta : (string * Spec.Json.t) list;
  o_failed : bool;
}

let cancelled_message = "cancelled"

let outcome ?(failed = false) ?(meta = []) o_output =
  { o_output; o_meta = meta; o_failed = failed }

let ints = List.map (fun (k, n) -> (k, Spec.Json.Int n))
let check_poll env = if env.e_poll () then Error cancelled_message else Ok ()
let note env f = Option.iter (fun note -> List.iter note (f ())) env.e_note

(* Run [f] with the checkpoint journal of [env], opened under [meta ()]
   and closed however [f] returns. *)
let with_journal env meta f =
  match env.e_journal with
  | None -> Ok (f None)
  | Some path -> (
    match Checkpoint.Journal.open_ ~path ~meta:(meta ()) with
    | exception Checkpoint.Journal.Journal_error msg -> Error msg
    | j ->
      Ok
        (Fun.protect
           ~finally:(fun () -> Checkpoint.Journal.close j)
           (fun () -> f (Some j))))

let refine_report ~original_lines ~refined_lines (d : design)
    (r : Core.Refiner.t) =
  let bus (b : Core.Refiner.bus_inst) =
    Printf.sprintf "%s(%d masters%s)"
      b.Core.Refiner.bi_signals.Core.Protocol.bs_label
      (List.length b.Core.Refiner.bi_requesters)
      (if b.Core.Refiner.bi_arbiter = None then "" else ", arbitrated")
  in
  [
    "model: " ^ Core.Model.name d.ds_model;
    "buses: " ^ String.concat ", " (List.map bus r.Core.Refiner.rf_buses);
    "memories: " ^ String.concat ", " r.Core.Refiner.rf_memories;
    "moved behaviors: " ^ String.concat ", " r.Core.Refiner.rf_moved;
    Printf.sprintf "size: %d -> %d lines (%.1fx)" original_lines
      refined_lines
      (Core.Metrics.growth ~original:original_lines ~refined:refined_lines);
  ]

let refine env spec d =
  let* r = refine_design spec d in
  let p = spec.sp_program in
  let* () =
    match Core.Check.run ~original:p r with
    | Ok () -> Ok ()
    | Error msgs -> Error ("check failed: " ^ String.concat "; " msgs)
  in
  let text = Spec.Printer.program_to_string r.Core.Refiner.rf_program in
  note env (fun () ->
      refine_report ~original_lines:(Spec.Printer.line_count p)
        ~refined_lines:(Spec.Printer.count_lines text) d r);
  Ok
    (outcome
       ~meta:[ ("model", Spec.Json.String (Core.Model.name d.ds_model)) ]
       text)

type target = {
  tg_name : string;
  tg_program : Spec.Ast.program;
  tg_phase : Lint.Registry.phase option;
  tg_locations : Spec.Parser.locations option;
}

let lint_targets r targets =
  let keep d =
    Spec.Diagnostic.severity_rank d.Spec.Diagnostic.d_severity
    <= Spec.Diagnostic.severity_rank r.li_severity
    && (r.li_codes = [] || List.mem d.Spec.Diagnostic.d_code r.li_codes)
  in
  let report t =
    let ds =
      Lint.Registry.run ?phase:t.tg_phase ~overrides:r.li_overrides
        ~flow:r.li_flow t.tg_program
      |> List.filter keep
    in
    let t_diags =
      match t.tg_locations with
      | Some locs -> Lint.Report.locate ~file:t.tg_name locs ds
      | None -> ds
    in
    let t_phase =
      match t.tg_phase with
      | Some ph -> ph
      | None -> Lint.Registry.infer_phase t.tg_program
    in
    { Lint.Report.t_name = t.tg_name; t_phase; t_diags }
  in
  let reports = List.map report targets in
  let errors = Lint.Report.errors reports in
  outcome ~failed:(errors > 0)
    ~meta:(ints [ ("errors", errors); ("warnings", Lint.Report.warnings reports) ])
    (if r.li_json then Lint.Report.to_json reports
     else Lint.Report.to_text reports)

let fix env spec r =
  let fixable = Lint.Fixer.fixable_codes in
  let* codes =
    match List.filter (fun c -> not (List.mem c fixable)) r.li_codes with
    | [] -> Ok (if r.li_codes = [] then fixable else r.li_codes)
    | bad ->
      Error
        (Printf.sprintf "code(s) %s are not fixable (fixable: %s)"
           (String.concat ", " bad) (String.concat ", " fixable))
  in
  match Lint.Fixer.fix ~codes ~poll:env.e_poll spec.sp_program with
  | exception Lint.Fixer.Cancelled -> Error cancelled_message
  | x ->
    let open Lint.Fixer in
    if not r.li_json then
      note env (fun () ->
          List.map
            (fun a -> Printf.sprintf "applied %s %s: %s" a.fx_code a.fx_loc a.fx_note)
            x.x_applied
          @ List.map
              (fun f ->
                Printf.sprintf "refused %s %s: %s" f.fr_code f.fr_loc f.fr_reason)
              x.x_refused);
    Ok
      (outcome
         ~meta:
           (ints
              [ ("applied", List.length x.x_applied);
                ("refused", List.length x.x_refused) ])
         (if r.li_json then to_json x else x.x_source))

let lint env spec r =
  let* () = check_poll env in
  if r.li_fix then fix env spec r
  else
    Ok
      (lint_targets r
         [ { tg_name = r.li_file; tg_program = spec.sp_program;
             tg_phase = r.li_phase; tg_locations = Some spec.sp_locations } ])

let explore env spec r =
  if r.ex_parts < 1 then
    Error (Printf.sprintf "parts must be >= 1 (got %d)" r.ex_parts)
  else if r.ex_jobs < 1 then Error "jobs must be >= 1"
  else if r.ex_retries < 0 then Error "retries must be >= 0"
  else if r.ex_models = [] || r.ex_seeds = [] || r.ex_biases = [] then
    Error "models, seeds and biases must be non-empty"
  else
    let* () = check_poll env in
    let config =
      { Explore.Sweep.default_config with
        seeds = r.ex_seeds; biases = r.ex_biases; models = r.ex_models;
        n_parts = r.ex_parts; steps = r.ex_steps; jobs = r.ex_jobs;
        deadline_s = r.ex_deadline; retries = r.ex_retries }
    in
    let p = spec.sp_program in
    let cache =
      match env.e_cache with Some c -> c | None -> Explore.Cache.create ()
    in
    (* The poll reaches every candidate; the context (graph and spec
       digest) is the spec's, so served sweeps over one source share
       partition searches and refinements through the hot cache. *)
    let evaluate =
      Explore.Evaluate.run ~cache ?deadline_s:r.ex_deadline ~poll:env.e_poll
        (Lazy.force spec.sp_ctx)
    in
    let* sw =
      with_journal env
        (fun () -> Explore.Sweep.journal_meta config p)
        (fun journal -> Explore.Sweep.run ~cache ?journal ~evaluate config p)
    in
    let* () = check_poll env in
    let open Explore.Sweep in
    Ok
      (outcome
         ~meta:
           Spec.Json.
             [ ("candidates", Int (List.length sw.sw_results));
               ("coverage", Float sw.sw_coverage); ("hits", Int sw.sw_hits);
               ("misses", Int sw.sw_misses) ]
         ((if r.ex_json then to_json else to_text) ~top:r.ex_top sw))

(* A campaign against an unhardened design: the contextual ROBUST001
   warnings announce the deadlocks the campaign is about to find. *)
let robust_notes (r : Core.Refiner.t) =
  match Lint.Registry.find_pass "robust" with
  | None -> []
  | Some pass ->
    Lint.Registry.run ~phase:Lint.Registry.Post ~typecheck:false
      ~passes:[ pass ] r.Core.Refiner.rf_program
    |> List.map (fun d -> "mrefine: " ^ Spec.Diagnostic.to_string d)

let faults env spec r =
  if r.fl_seeds < 1 then Error "seeds must be >= 1"
  else if r.fl_classes = [] then Error "fault classes must be non-empty"
  else
    let* () = check_poll env in
    let* refined = refine_design spec r.fl_design in
    let* () = check_poll env in
    if not r.fl_design.ds_harden then note env (fun () -> robust_notes refined);
    let config =
      { Faults.Campaign.default_config with
        cf_seeds = r.fl_seeds; cf_base_seed = r.fl_base_seed;
        cf_classes = r.fl_classes; cf_deadline_s = r.fl_deadline;
        cf_poll = Some env.e_poll; cf_ordering = r.fl_ordering }
    in
    let simulate ~config ~hooks ?ordering p =
      Sim.Engine.run ~config ~hooks ?ordering ~backend:r.fl_backend p
    in
    match
      with_journal env
        (fun () -> Faults.Campaign.journal_meta config refined)
        (fun journal -> Faults.Campaign.run ~config ~simulate ?journal refined)
    with
    | exception Faults.Campaign.Campaign_error msg ->
      Error ("fault campaign: " ^ msg)
    | Error _ as e -> e
    | Ok report ->
      let* () = check_poll env in
      Ok
        (outcome
           ((if r.fl_json then Faults.Campaign.to_json
             else Faults.Campaign.to_text)
              report))

let litmus env r =
  if r.lt_seeds < 1 then Error "seeds must be >= 1"
  else if r.lt_orderings = [] then Error "orderings must be non-empty"
  else
    let* () = check_poll env in
    let rp =
      Litmus.Suite.run
        { cf_shapes = (if r.lt_shapes = [] then Litmus.Shape.all () else r.lt_shapes);
          cf_orderings = r.lt_orderings; cf_seeds = r.lt_seeds;
          cf_faults = r.lt_faults; cf_backend = Some r.lt_backend }
    in
    let* () = check_poll env in
    let open Litmus.Suite in
    (* Forbidden outcomes, corruption outside fault injection and kernel
       disagreements all mean the ordering model is broken. *)
    Ok
      (outcome
         ~failed:
           (rp.rp_forbidden > 0
           || rp.rp_kernel_mismatches > 0
           || ((not r.lt_faults) && rp.rp_corruption > 0))
         ~meta:
           (ints
              [ ("entries", List.length rp.rp_entries);
                ("weak_allowed", rp.rp_weak_allowed);
                ("forbidden", rp.rp_forbidden);
                ("corruption", rp.rp_corruption);
                ("kernel_mismatches", rp.rp_kernel_mismatches) ])
         ((if r.lt_json then to_json else to_text) rp))
