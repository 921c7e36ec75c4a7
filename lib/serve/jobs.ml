(** Job execution; see the interface. *)

type outcome = Command.outcome = {
  o_output : string;
  o_meta : (string * Protocol.json) list;
  o_failed : bool;
}

let cancelled_message = Command.cancelled_message

module Json = Spec.Json

let ( let* ) = Result.bind

(* --- decoding: JSON fields into Command requests ------------------------ *)

let all f xs =
  List.fold_left
    (fun acc x ->
      let* acc = acc in
      let* v = f x in
      Ok (v :: acc))
    (Ok []) xs
  |> Result.map List.rev

(* An enumeration field: absent means [default]. *)
let enum of_string ~default key j =
  match Json.member key j with
  | None -> Ok default
  | Some _ -> Result.bind (Json.string_field key j) of_string

let enum_list of_string ~default key j =
  match Json.member key j with
  | None -> Ok default
  | Some _ -> Result.bind (Json.string_list_field key j) (all of_string)

let int_list_field ~default key j =
  match Json.member key j with
  | None -> Ok default
  | Some (Json.List xs) ->
    all
      (function
        | Json.Int n -> Ok n
        | _ -> Error (Printf.sprintf "field %S must hold integers" key))
      xs
  | Some _ -> Error (Printf.sprintf "field %S must be an array" key)

let design_of_json j =
  let d = Command.default_design and pt = Command.default_partitioning in
  let* ds_model = enum Command.model_of_string ~default:d.ds_model "model" j in
  let* pt_parts = Json.int_field ~default:pt.pt_parts "parts" j in
  let* pt_algo = enum Command.algo_of_string ~default:pt.pt_algo "algo" j in
  let* pt_seed = Json.int_field ~default:pt.pt_seed "seed" j in
  let pt_assign =
    match Json.member "assign" j with
    | Some (Json.String s) -> Some s
    | _ -> None
  in
  let* ds_protocol =
    enum Command.protocol_of_string ~default:d.ds_protocol "protocol" j
  in
  let* ds_harden = Json.bool_field ~default:d.ds_harden "harden" j in
  Ok
    {
      Command.ds_model;
      ds_partitioning = { Command.pt_parts; pt_algo; pt_seed; pt_assign };
      ds_protocol;
      ds_harden;
    }

let backend_of_json ~default j =
  enum Sim.Runtime.backend_of_string ~default "backend" j

let lint_of_json j =
  let d = Command.default_lint in
  let* li_file = Json.string_field ~default:d.li_file "file" j in
  let* li_severity =
    enum Command.severity_of_string ~default:d.li_severity "severity" j
  in
  let* li_codes = Json.string_list_field ~default:[] "codes" j in
  let* li_phase = enum Command.phase_of_string ~default:d.li_phase "phase" j in
  let* li_overrides =
    enum_list Lint.Registry.parse_override ~default:[] "overrides" j
  in
  let* li_json = Json.bool_field ~default:false "json" j in
  let* li_flow = Json.bool_field ~default:false "flow" j in
  let* li_fix = Json.bool_field ~default:false "fix" j in
  (* A served fix always replies with the JSON fix report, so [json]
     joins the report-only fields the fix policy rejects. *)
  let* () =
    Command.check_fix_options ~fix:li_fix
      (List.filter
         (fun k -> Option.is_some (Json.member k j))
         [ "severity"; "phase"; "overrides"; "json"; "flow" ])
  in
  Ok
    {
      Command.li_file;
      li_codes;
      li_json = li_json || li_fix;
      li_fix;
      li_severity;
      li_phase;
      li_overrides;
      li_flow;
    }

let explore_of_json j =
  let d = Command.default_explore in
  let* ex_models =
    enum_list Command.model_of_string ~default:d.ex_models "models" j
  in
  let* ex_seeds = int_list_field ~default:d.ex_seeds "seeds" j in
  let* ex_biases =
    enum_list Command.bias_of_string ~default:d.ex_biases "biases" j
  in
  let* ex_parts = Json.int_field ~default:d.ex_parts "parts" j in
  let* ex_steps = Json.int_field ~default:d.ex_steps "steps" j in
  let* ex_jobs = Json.int_field ~default:d.ex_jobs "jobs" j in
  let* ex_top = Json.int_field ~default:d.ex_top "top" j in
  let* ex_deadline = Json.float_field "deadline" j in
  let* ex_retries = Json.int_field ~default:d.ex_retries "retries" j in
  let* ex_json = Json.bool_field ~default:false "json" j in
  Ok
    { Command.ex_models; ex_seeds; ex_biases; ex_parts; ex_steps; ex_jobs;
      ex_top; ex_deadline; ex_retries; ex_json }

let faults_of_json j =
  let d = Command.default_faults in
  let* fl_design = design_of_json j in
  let* fl_classes =
    enum_list Command.fault_class_of_string ~default:d.fl_classes "classes" j
  in
  let* fl_seeds = Json.int_field ~default:d.fl_seeds "seeds" j in
  let* fl_base_seed =
    Json.int_field ~default:d.fl_base_seed "base_seed" j
  in
  let* fl_deadline = Json.float_field "deadline" j in
  let* fl_ordering =
    enum Sim.Memord.policy_of_string ~default:d.fl_ordering "ordering" j
  in
  let* fl_backend = backend_of_json ~default:d.fl_backend j in
  let* fl_json = Json.bool_field ~default:false "json" j in
  Ok
    { Command.fl_design; fl_classes; fl_seeds; fl_base_seed; fl_deadline;
      fl_ordering; fl_backend; fl_json }

let litmus_of_json j =
  let d = Command.default_litmus in
  let* lt_orderings =
    enum_list Sim.Memord.policy_of_string ~default:d.lt_orderings "orderings"
      j
  in
  let* lt_shapes =
    enum_list Command.shape_of_string ~default:d.lt_shapes "shapes" j
  in
  let* lt_seeds = Json.int_field ~default:d.lt_seeds "seeds" j in
  let* lt_faults = Json.bool_field ~default:false "faults" j in
  let* lt_backend = backend_of_json ~default:d.lt_backend j in
  let* lt_json = Json.bool_field ~default:false "json" j in
  Ok { Command.lt_shapes; lt_orderings; lt_seeds; lt_faults; lt_backend; lt_json }

(* --- refine memoization ------------------------------------------------- *)

(* Served refinements are memoized in the shared cache under a digest of
   the source and every request field.  The key domain is prefixed so it
   never collides with {!Explore.Evaluate}'s refinement and lint
   entries. *)
let refine_key (elab : Session.elab) (d : Command.design) =
  let pt = d.ds_partitioning in
  Explore.Cache.digest_key
    [
      "serve-refine-1";
      elab.Session.el_digest;
      string_of_int pt.pt_parts;
      Command.algo_name pt.pt_algo;
      string_of_int pt.pt_seed;
      Option.value ~default:"" pt.pt_assign;
      Core.Protocol.style_name d.ds_protocol;
      string_of_bool d.ds_harden;
      Core.Model.name d.ds_model;
    ]

let run_refine ~session env elab spec j =
  let* d = design_of_json j in
  let* () = if env.Command.e_poll () then Error cancelled_message else Ok () in
  match
    Explore.Cache.find_or_add ~count_stats:false (Session.cache session)
      (refine_key elab d) (fun () ->
        Result.map (fun o -> o.o_output) (Command.refine env spec d))
  with
  | Error msg, _ -> Error msg
  | Ok text, cached ->
    Ok
      {
        o_output = text;
        o_meta =
          [
            ("model", Json.String (Core.Model.name d.ds_model));
            ("cached", Json.Bool cached);
          ];
        o_failed = false;
      }

(* --- dispatch ----------------------------------------------------------- *)

let guard f =
  try f () with exn -> Error ("job raised " ^ Printexc.to_string exn)

let run ~session ~poll job =
  let env = { Command.env with e_poll = poll } in
  match Json.string_field "kind" job with
  | Error msg -> Error msg
  | Ok "litmus" ->
    (* Litmus runs the built-in shapes: no spec, no elaboration. *)
    guard (fun () ->
        let* r = litmus_of_json job in
        Command.litmus env r)
  | Ok kind -> (
    let* source = Json.string_field "spec" job in
    let* elab = Session.elaborate session ~source in
    let spec =
      {
        Command.sp_program = elab.Session.el_program;
        sp_locations = elab.Session.el_locations;
        sp_graph = Lazy.from_val elab.Session.el_graph;
        sp_ctx = Lazy.from_val elab.Session.el_ctx;
      }
    in
    let env = { env with e_cache = Some (Session.cache session) } in
    let with_request decode command =
      guard (fun () ->
          let* r = decode job in
          command env spec r)
    in
    match kind with
    | "refine" -> guard (fun () -> run_refine ~session env elab spec job)
    | "lint" -> with_request lint_of_json Command.lint
    | "explore" -> with_request explore_of_json Command.explore
    | "faults" -> with_request faults_of_json Command.faults
    | _ ->
      Error
        (Printf.sprintf
           "unknown job kind %S (use refine, lint, explore, faults or litmus)"
           kind))
