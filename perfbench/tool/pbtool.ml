(* pbtool — the benchmark's in-process helper.

     pbtool gen LIST
       Write one generated specification per line of LIST, each line
       "PATH SEED VARS LEAVES STMTS PAR_BRANCHES" (Workloads.Generator).

     pbtool verify LIST
       Check command-line outputs against the libraries, one JSON check
       per line ({"check":"refine"|"lint"|"faults"|"litmus", ...}).  Prints one
       "ok LABEL" or "FAIL LABEL: reason" line per check; exits 1 when any
       check fails.

     pbtool trace LIST SECONDS SPANS
       Replay the jobs of LIST (one JSON job per line) in-process for
       SECONDS, with a span around every call into a layer's public
       functions.  Passes alternate traced / untraced; the first pass also
       records the per-layer counts.  Writes every span to SPANS (JSON
       lines) and prints "metric NAME VALUE UNIT" and "jobms KEY MS"
       lines. *)

module P = Serve.Protocol

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> output_string oc s)

let nonempty_lines path =
  String.split_on_char '\n' (read_file path)
  |> List.filter (fun l -> String.trim l <> "")

let str j k ~default =
  match P.member k j with Some (P.String s) -> s | _ -> default

let int j k ~default =
  match P.member k j with Some (P.Int i) -> i | _ -> default

let bool j k = match P.member k j with Some (P.Bool b) -> b | _ -> false

let parse_json line =
  match P.parse line with Ok j -> j | Error msg -> failwith ("bad job line: " ^ msg)

let model_of j =
  let s = str j "model" ~default:"2" in
  match Core.Model.of_string s with
  | Some m -> m
  | None -> failwith ("unknown model " ^ s)

let faults_config j =
  {
    Faults.Campaign.default_config with
    Faults.Campaign.cf_seeds = int j "seeds" ~default:8;
    cf_base_seed = int j "base_seed" ~default:1;
  }

let litmus_config j =
  {
    Litmus.Suite.cf_shapes = Litmus.Shape.all ();
    cf_orderings =
      [ Sim.Memord.Sc; Sim.Memord.Per_port_fifo;
        Sim.Memord.Relaxed Sim.Memord.default_window ];
    cf_seeds = int j "seeds" ~default:4;
    cf_faults = bool j "faults";
    cf_backend = None;
  }

let load src =
  match Spec.Parser.program_of_string src with
  | Error msg -> failwith ("parse: " ^ msg)
  | Ok p -> (
    match Spec.Program.validate p with
    | Ok () -> p
    | Error msgs -> failwith ("validate: " ^ String.concat "; " msgs))

(* The command line's refine path with its defaults: greedy partition
   into two parts, four-phase protocol. *)
let refine_lib ~harden p model =
  let g = Agraph.Access_graph.of_program p in
  let part = Partitioning.Greedy.run g ~n_parts:2 in
  Core.Refiner.refine
    ~options:{ Core.Refiner.default_options with harden }
    p g part model

(* --- gen ------------------------------------------------------------------ *)

let gen list =
  List.iter
    (fun line ->
      match String.split_on_char ' ' (String.trim line) with
      | [ path; seed; vars; leaves; stmts; par ] ->
        let cfg =
          {
            Workloads.Generator.gen_seed = int_of_string seed;
            gen_vars = int_of_string vars;
            gen_leaves = int_of_string leaves;
            gen_stmts = int_of_string stmts;
            gen_par_branches = int_of_string par;
          }
        in
        write_file path
          (Spec.Printer.program_to_string (Workloads.Generator.program cfg))
      | _ -> failwith ("gen: bad line " ^ line))
    (nonempty_lines list)

(* --- verify --------------------------------------------------------------- *)

let litmus_fault_free_corruptions (rp : Litmus.Suite.report) =
  List.length
    (List.filter
       (fun (e : Litmus.Suite.entry) ->
         e.Litmus.Suite.en_fault = None
         && e.Litmus.Suite.en_verdict = Litmus.Classify.Corruption)
       rp.Litmus.Suite.rp_entries)

let verify_one j =
  let out = read_file (str j "out" ~default:"") in
  match str j "check" ~default:"" with
  | "refine" ->
    let p = load (read_file (str j "spec" ~default:"")) in
    let r = refine_lib ~harden:false p (model_of j) in
    if out <> Spec.Printer.program_to_string r.Core.Refiner.rf_program then
      Error "output differs from the library's refinement"
    else begin
      match Core.Check.run ~original:p r with
      | Error msgs -> Error ("Core.Check: " ^ String.concat "; " msgs)
      | Ok () ->
        let refined = load out in
        let trace_mode =
          if str j "mode" ~default:"total" = "per_tag" then Sim.Cosim.Per_tag
          else Sim.Cosim.Total
        in
        let v = Sim.Cosim.check ~trace_mode ~original:p ~refined () in
        if v.Sim.Cosim.v_equivalent then Ok ()
        else
          Error ("not equivalent: " ^ String.concat "; " v.Sim.Cosim.v_problems)
    end
  | "lint" ->
    (* [mrefine lint [--json] [--flow] SPEC] with no filters. *)
    let path = str j "spec" ~default:"" in
    let p, locs =
      match Spec.Parser.program_of_string_located (read_file path) with
      | Ok v -> v
      | Error msg -> failwith ("parse: " ^ msg)
    in
    ignore (load (read_file path));
    let ds = Lint.Registry.run ~flow:(bool j "flow") p in
    let targets =
      [
        {
          Lint.Report.t_name = path;
          t_phase = Lint.Registry.infer_phase p;
          t_diags = Lint.Report.locate ~file:path locs ds;
        };
      ]
    in
    let expect =
      if bool j "json" then Lint.Report.to_json targets
      else Lint.Report.to_text targets
    in
    if out = expect then Ok () else Error "output differs from Lint.Report"
  | "faults" ->
    let p = load (read_file (str j "spec" ~default:"")) in
    let r = refine_lib ~harden:(bool j "harden") p (model_of j) in
    let rp = Faults.Campaign.run ~config:(faults_config j) r in
    if out = Faults.Campaign.to_text rp then Ok ()
    else Error "output differs from Faults.Campaign.to_text"
  | "litmus" ->
    let rp = Litmus.Suite.run (litmus_config j) in
    if out <> Litmus.Suite.to_text rp then
      Error "output differs from Litmus.Suite.to_text"
    else if rp.Litmus.Suite.rp_forbidden > 0 then Error "forbidden outcomes"
    else if rp.Litmus.Suite.rp_kernel_mismatches > 0 then
      Error "kernel mismatches"
    else if litmus_fault_free_corruptions rp > 0 then
      Error "corruption without an injected fault"
    else Ok ()
  | other -> Error ("unknown check " ^ other)

let verify list =
  let failed = ref 0 in
  List.iter
    (fun line ->
      let j = parse_json line in
      let label = str j "label" ~default:"?" in
      let res = try verify_one j with e -> Error (Printexc.to_string e) in
      match res with
      | Ok () -> Printf.printf "ok %s\n%!" label
      | Error msg ->
        incr failed;
        Printf.printf "FAIL %s: %s\n%!" label msg)
    (nonempty_lines list);
  if !failed > 0 then exit 1

(* --- trace ---------------------------------------------------------------- *)

type span = {
  sp_job : int;  (** index of the job in the replayed list *)
  sp_pass : int;
  sp_name : string;
  sp_start : float;
  sp_stop : float;
  sp_parent : int;  (** index of the enclosing span, -1 for a job root *)
}

let now = Unix.gettimeofday
let tracing = ref false
let counting = ref false
let cur_job = ref 0
let cur_pass = ref 0
let spans : (int, span) Hashtbl.t = Hashtbl.create 4096
let next_span = ref 0
let open_spans = ref []
let counts : (string, int) Hashtbl.t = Hashtbl.create 16

let count name n =
  if !counting then
    Hashtbl.replace counts name
      (n + Option.value ~default:0 (Hashtbl.find_opt counts name))

let span name f =
  if not !tracing then f ()
  else begin
    let id = !next_span in
    incr next_span;
    let parent = match !open_spans with [] -> -1 | p :: _ -> p in
    open_spans := id :: !open_spans;
    let start = now () in
    let finish () =
      open_spans := List.tl !open_spans;
      Hashtbl.replace spans id
        {
          sp_job = !cur_job;
          sp_pass = !cur_pass;
          sp_name = name;
          sp_start = start;
          sp_stop = now ();
          sp_parent = parent;
        }
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

let ok_or_fail what = function
  | Ok v -> v
  | Error msgs -> failwith (what ^ ": " ^ String.concat "; " msgs)

let front_end path =
  let src = read_file path in
  count "spec.bytes" (String.length src);
  let p, _ =
    match span "spec.parse" (fun () -> Spec.Parser.program_of_string_located src) with
    | Ok v -> v
    | Error msg -> failwith msg
  in
  ok_or_fail "validate" (span "spec.validate" (fun () -> Spec.Program.validate p));
  p

let refine_layers ~harden p model =
  ok_or_fail "typecheck" (span "spec.typecheck" (fun () -> Spec.Typecheck.check p));
  let g = span "agraph.build" (fun () -> Agraph.Access_graph.of_program p) in
  let part =
    span "partition.greedy" (fun () -> Partitioning.Greedy.run g ~n_parts:2)
  in
  span "core.refine" (fun () ->
      Core.Refiner.refine
        ~options:{ Core.Refiner.default_options with harden }
        p g part model)

let line_count text =
  List.length
    (List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' text))

let job_refine j =
  let p = front_end (str j "spec" ~default:"") in
  let r = refine_layers ~harden:false p (model_of j) in
  ok_or_fail "check" (span "core.check" (fun () -> Core.Check.run ~original:p r));
  let text =
    span "spec.print" (fun () ->
        Spec.Printer.program_to_string r.Core.Refiner.rf_program)
  in
  count "core.refined_lines" (line_count text);
  match P.member "out" j with
  | Some (P.String path) -> write_file path text
  | _ -> ()

let job_lint j =
  let p = front_end (str j "spec" ~default:"") in
  let flow = bool j "flow" in
  if flow then ignore (span "lint.flow" (fun () -> Lint.Flow.of_program p));
  let phase = Lint.Registry.infer_phase p in
  let n =
    List.fold_left
      (fun n (pass : Lint.Pass.pass) ->
        n
        + List.length
            (span ("lint." ^ pass.Lint.Pass.p_name) (fun () ->
                 Lint.Registry.run ~phase ~typecheck:false ~flow
                   ~passes:[ pass ] p)))
      0 Lint.Registry.all
  in
  let t = span "lint.typecheck" (fun () -> Spec.Typecheck.diagnostics p) in
  count "lint.diagnostics" (n + List.length t)

let job_faults j =
  let p = front_end (str j "spec" ~default:"") in
  let r = refine_layers ~harden:(bool j "harden") p (model_of j) in
  count "core.refined_lines"
    (Spec.Printer.line_count r.Core.Refiner.rf_program);
  let simulate ~config ~hooks ?ordering prog =
    let res =
      span "sim.run" (fun () -> Sim.Engine.run ~config ~hooks ?ordering prog)
    in
    count "sim.deltas" res.Sim.Engine.r_deltas;
    count "sim.steps" res.Sim.Engine.r_steps;
    res
  in
  let rp =
    span "faults.campaign" (fun () ->
        Faults.Campaign.run ~config:(faults_config j) ~simulate r)
  in
  count "faults.runs" (List.length rp.Faults.Campaign.rp_runs);
  (* The golden run replayed on the polling reference kernel, the
     differential oracle of the event-driven engine. *)
  ignore
    (span "sim.reference" (fun () ->
         Sim.Reference.run r.Core.Refiner.rf_program))

let job_litmus j =
  let rp = span "litmus.suite" (fun () -> Litmus.Suite.run (litmus_config j)) in
  count "litmus.runs" (List.length rp.Litmus.Suite.rp_entries)

let job_explore ~cache j =
  let p = front_end (str j "spec" ~default:"") in
  let seeds =
    match P.member "seeds" j with
    | Some (P.List l) -> List.filter_map (function P.Int i -> Some i | _ -> None) l
    | _ -> [ 1 ]
  in
  let steps = int j "steps" ~default:400 in
  let config =
    { Explore.Sweep.default_config with Explore.Sweep.seeds; steps }
  in
  let sw = span "explore.sweep" (fun () -> Explore.Sweep.run ~cache config p) in
  count "explore.cache_hits" sw.Explore.Sweep.sw_hits;
  count "explore.cache_misses" sw.Explore.Sweep.sw_misses;
  (* The annealing searches behind the sweep's candidates, timed apart. *)
  let g = span "agraph.build" (fun () -> Agraph.Access_graph.of_program p) in
  List.iter
    (fun seed ->
      List.iter
        (fun bias ->
          ignore
            (span "partition.annealing" (fun () ->
                 Partitioning.Design_search.run ~seed ~steps g ~n_parts:2 ~bias)))
        Explore.Candidate.all_biases)
    seeds

let run_job ~cache ~session ~journal idx j =
  cur_job := idx;
  let kind = str j "kind" ~default:"" in
  span ("job." ^ kind) (fun () ->
      (match kind with
      | "refine" -> job_refine j
      | "lint" -> job_lint j
      | "faults" -> job_faults j
      | "litmus" -> job_litmus j
      | "explore" -> job_explore ~cache j
      | other -> failwith ("unknown job kind " ^ other));
      match P.member "serve" j with
      | None -> ()
      | Some payload ->
        let key = Printf.sprintf "spec/%d-%d" !cur_pass idx in
        span "checkpoint.append" (fun () ->
            Checkpoint.Journal.append journal ~key (P.to_string payload));
        match
          span "serve.job" (fun () ->
              Serve.Jobs.run ~session ~poll:(fun () -> false) payload)
        with
        | Ok _ -> ()
        | Error msg -> failwith ("serve job: " ^ msg))

let median = function
  | [] -> nan
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let json_string s = P.to_string (P.String s)

let trace list seconds spans_out =
  let jobs = Array.of_list (List.map parse_json (nonempty_lines list)) in
  if jobs = [||] then failwith "trace: no jobs";
  let cache = Explore.Cache.create () in
  let session = Serve.Session.create () in
  let journal_path = spans_out ^ ".journal" in
  if Sys.file_exists journal_path then Sys.remove journal_path;
  let journal = Checkpoint.Journal.open_ ~path:journal_path ~meta:"perfbench" in
  (* Wall time of every job in every pass, traced or not: the tracing
     overhead is the difference between the two kinds of pass. *)
  let job_ms = Hashtbl.create 1024 in
  let t_end = now () +. seconds in
  let pass = ref 0 in
  while !pass < 3 || now () < t_end do
    cur_pass := !pass;
    tracing := !pass mod 2 = 0;
    counting := !pass = 0;
    Array.iteri
      (fun idx j ->
        let t0 = now () in
        run_job ~cache ~session ~journal idx j;
        Hashtbl.replace job_ms (!pass, idx) (1e3 *. (now () -. t0)))
      jobs;
    if !pass = 0 then begin
      let st = Serve.Session.stats session in
      if st.Serve.Session.st_elab_hits + st.Serve.Session.st_elab_misses > 0
      then begin
        count "serve.elab_hits" st.Serve.Session.st_elab_hits;
        count "serve.elab_misses" st.Serve.Session.st_elab_misses
      end
    end;
    incr pass
  done;
  Checkpoint.Journal.close journal;
  (* Self time: a span's duration minus the time its children cover. *)
  let child_time = Hashtbl.create 4096 in
  Hashtbl.iter
    (fun _ s ->
      if s.sp_parent >= 0 then
        Hashtbl.replace child_time s.sp_parent
          (s.sp_stop -. s.sp_start
          +. Option.value ~default:0. (Hashtbl.find_opt child_time s.sp_parent)))
    spans;
  let self_ms id s =
    1e3
    *. (s.sp_stop -. s.sp_start
       -. Option.value ~default:0. (Hashtbl.find_opt child_time id))
  in
  let push tbl k v =
    Hashtbl.replace tbl k (v :: Option.value ~default:[] (Hashtbl.find_opt tbl k))
  in
  let by_name = Hashtbl.create 64 in
  let serve_by_key = Hashtbl.create 256 in
  let layer_total = Hashtbl.create 16 in
  let root_total = ref 0. in
  let ids = List.sort compare (Hashtbl.fold (fun id _ acc -> id :: acc) spans []) in
  Out_channel.with_open_bin spans_out (fun oc ->
      List.iter
        (fun id ->
          let s = Hashtbl.find spans id in
          let self = self_ms id s in
          Printf.fprintf oc
            "{\"id\":%d,\"job\":%d,\"pass\":%d,\"name\":%s,\"start\":%.6f,\
             \"end\":%.6f,\"parent\":%d,\"self_ms\":%.6f}\n"
            id s.sp_job s.sp_pass (json_string s.sp_name) s.sp_start s.sp_stop
            s.sp_parent self;
          if s.sp_parent < 0 then
            root_total := !root_total +. (1e3 *. (s.sp_stop -. s.sp_start))
          else begin
            push by_name s.sp_name self;
            if s.sp_name = "serve.job" && s.sp_pass > 0 then
              push serve_by_key (str jobs.(s.sp_job) "key" ~default:"") self;
            let layer = List.hd (String.split_on_char '.' s.sp_name) in
            Hashtbl.replace layer_total layer
              (self +. Option.value ~default:0. (Hashtbl.find_opt layer_total layer))
          end)
        ids);
  let metric name value unit = Printf.printf "metric %s %.9g %s\n" name value unit in
  let sorted tbl = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []) in
  List.iter (fun (name, l) -> metric (name ^ "_ms") (median l) "ms") (sorted by_name);
  List.iter
    (fun (layer, t) -> metric ("share." ^ layer) (t /. !root_total) "ratio")
    (sorted layer_total);
  List.iter (fun (name, n) -> metric name (float_of_int n) "count") (sorted counts);
  let c name = float_of_int (Option.value ~default:0 (Hashtbl.find_opt counts name)) in
  (* Derived rates over the first (counted) pass's own spans. *)
  let pass0 name =
    Hashtbl.fold
      (fun id s acc ->
        if s.sp_pass = 0 && s.sp_name = name then acc +. self_ms id s else acc)
      spans 0.
  in
  if c "sim.deltas" > 0. then
    metric "sim.host_ns_per_delta" (1e6 *. pass0 "sim.run" /. c "sim.deltas") "ns";
  if c "faults.runs" > 0. then
    metric "faults.runs_per_s"
      (c "faults.runs" /. ((pass0 "faults.campaign" +. pass0 "sim.run") /. 1e3))
      "1/s";
  let ratio h m = h /. (h +. m) in
  if c "explore.cache_hits" +. c "explore.cache_misses" > 0. then
    metric "explore.hit_ratio"
      (ratio (c "explore.cache_hits") (c "explore.cache_misses")) "ratio";
  if c "serve.elab_hits" +. c "serve.elab_misses" > 0. then
    metric "serve.elab_hit_ratio"
      (ratio (c "serve.elab_hits") (c "serve.elab_misses")) "ratio";
  (* Per job, the median over traced and over untraced passes (the first,
     cold pass excluded); the overhead compares their sums. *)
  let sum_medians traced =
    let total = ref 0. in
    Array.iteri
      (fun idx _ ->
        let l = ref [] in
        for p = 1 to !pass - 1 do
          if (p mod 2 = 0) = traced then l := Hashtbl.find job_ms (p, idx) :: !l
        done;
        total := !total +. median !l)
      jobs;
    !total
  in
  let untraced = sum_medians false in
  metric "trace.overhead_pct" (100. *. (sum_medians true -. untraced) /. untraced) "%";
  metric "trace.passes" (float_of_int !pass) "count";
  List.iter
    (fun (key, l) -> Printf.printf "jobms %s %.6f\n" key (median l))
    (sorted serve_by_key)

let () =
  match Array.to_list Sys.argv with
  | [ _; "gen"; list ] -> gen list
  | [ _; "verify"; list ] -> verify list
  | [ _; "trace"; list; seconds; spans_out ] ->
    trace list (float_of_string seconds) spans_out
  | _ ->
    prerr_endline
      "usage: pbtool gen LIST | verify LIST | trace LIST SECONDS SPANS";
    exit 2
