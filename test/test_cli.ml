(** Integration tests driving the [mrefine] command-line binary end to
    end: every subcommand, on the shipped textual specifications. *)

open Helpers

let mrefine = "../bin/mrefine.exe"
let spec name = "../examples/specs/" ^ name

let run args =
  let cmd = Filename.quote_command mrefine args ^ " 2>&1" in
  let ic = Unix.open_process_in cmd in
  let buf = Buffer.create 512 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  let status = Unix.close_process_in ic in
  let code = match status with Unix.WEXITED n -> n | _ -> 255 in
  (code, Buffer.contents buf)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let expect_ok args frags =
  let code, out = run args in
  if code <> 0 then Alcotest.failf "exit %d:\n%s" code out;
  List.iter
    (fun frag ->
      Alcotest.(check bool)
        (Printf.sprintf "output mentions %S" frag)
        true (contains ~sub:frag out))
    frags

let expect_fail args frags =
  let code, out = run args in
  Alcotest.(check bool) "non-zero exit" true (code <> 0);
  List.iter
    (fun frag ->
      Alcotest.(check bool)
        (Printf.sprintf "error mentions %S" frag)
        true (contains ~sub:frag out))
    frags

(* A rejected input: exit 1 with an [mrefine:] message naming what is
   wrong.  An uncaught exception would exit 125 with cmdliner's
   "internal error" instead. *)
let expect_error args frags =
  let code, out = run args in
  if code <> 1 then Alcotest.failf "exit %d, want 1:\n%s" code out;
  Alcotest.(check bool) "no internal error" false
    (contains ~sub:"internal error" out);
  List.iter
    (fun frag ->
      Alcotest.(check bool)
        (Printf.sprintf "error mentions %S" frag)
        true
        (contains ~sub:("mrefine: ") out && contains ~sub:frag out))
    frags

let fig1_assign = "A=0,B=1,C=0,x=1"

let test_parse () =
  expect_ok [ "parse"; spec "medical.sc" ] [ "medical"; "lines" ];
  expect_ok [ "parse"; spec "fig1.sc" ] [ "fig1" ]

let test_graph () =
  expect_ok [ "graph"; spec "fig1.sc" ]
    [ "objects: A, B, C"; "variables: x"; "data channels: 5" ];
  expect_ok [ "graph"; spec "fig1.sc"; "--dot" ] [ "digraph"; "shape=box" ]

let test_partition_algos () =
  List.iter
    (fun algo ->
      expect_ok
        [ "partition"; spec "medical.sc"; "--algo"; algo ]
        [ "local variables:"; "global variables:"; "cross-partition" ])
    [ "greedy"; "kl"; "annealing"; "clustering" ]

let test_partition_manual () =
  expect_ok
    [ "partition"; spec "fig1.sc"; "--assign"; fig1_assign ]
    [ "P0: behaviors {A, C}"; "P1: behaviors {B}"; "global variables: x" ]

let test_refine () =
  expect_ok
    [ "refine"; spec "fig1.sc"; "--assign"; fig1_assign; "--model"; "2" ]
    [ "program fig1_model2"; "B_NEW"; "MST_send"; "servers" ];
  expect_ok
    [ "refine"; spec "fig1.sc"; "--assign"; fig1_assign; "--model"; "4"; "-q" ]
    [ "BIF_out" ]

let test_refine_roundtrips_through_cli () =
  (* The refined output is itself a valid input for the tool. *)
  let tmp = Filename.temp_file "coref_cli" ".sc" in
  expect_ok
    [ "refine"; spec "fig1.sc"; "--assign"; fig1_assign; "--model"; "3";
      "-q"; "-o"; tmp ]
    [ "wrote" ];
  expect_ok [ "parse"; tmp ] [ "fig1_model3" ];
  expect_ok [ "typecheck"; tmp ] [ "well typed" ];
  expect_ok [ "simulate"; tmp ] [ "outcome: completed"; "emit B = 8" ];
  Sys.remove tmp

let test_simulate () =
  expect_ok
    [ "simulate"; spec "fig1.sc" ]
    [ "outcome: completed"; "emit A = 3"; "emit B = 8"; "final x = 8" ]

let test_cosim_all_models () =
  List.iter
    (fun model ->
      expect_ok
        [ "cosim"; spec "fig1.sc"; "--assign"; fig1_assign; "--model"; model ]
        [ "equivalent" ])
    [ "1"; "2"; "3"; "4" ]

(* A parallel spec's cross-branch interleaving is not preserved by
   refinement, so cosim compares it tag by tag: a generated spec with two
   parallel branches is equivalent under every model. *)
let test_cosim_parallel () =
  let tmp = Filename.temp_file "par" ".sc" in
  let cfg =
    { Workloads.Generator.gen_seed = 111; gen_vars = 14; gen_leaves = 16;
      gen_stmts = 6; gen_par_branches = 2 }
  in
  Out_channel.with_open_bin tmp (fun oc ->
      output_string oc
        (Spec.Printer.program_to_string (Workloads.Generator.program cfg)));
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () ->
      List.iter
        (fun model ->
          expect_ok
            [ "cosim"; tmp; "--model"; model ]
            [ "equivalent: refined" ])
        [ "1"; "2"; "3"; "4" ])

let test_typecheck () =
  expect_ok [ "typecheck"; spec "medical.sc" ] [ "well typed" ]

let test_export_c () =
  expect_ok
    [ "export"; spec "pingpong.sc"; "-b"; "c" ]
    [ "#include <stdio.h>"; "int main(void)"; "coref_emit" ]

let test_export_vhdl () =
  expect_ok
    [ "export"; spec "medical.sc"; "-b"; "vhdl" ]
    [ "entity medical is"; "architecture behavioral" ];
  expect_ok
    [ "export"; spec "fig1.sc"; "-b"; "vhdl"; "--refine"; "--assign";
      fig1_assign; "--model"; "2" ]
    [ "signal bus_"; ": process" ]

let test_quality_real () =
  expect_ok
    [ "quality"; spec "fig1.sc"; "--assign"; fig1_assign; "--model"; "2" ]
    [ "Intel8086"; "gates"; "pins"; "Gmem" ]

let test_fir_and_elevator_specs () =
  expect_ok [ "typecheck"; spec "fir.sc" ] [ "well typed" ];
  expect_ok [ "simulate"; spec "fir.sc" ] [ "outcome: completed"; "emit energy" ];
  expect_ok
    [ "cosim"; spec "fir.sc"; "--algo"; "kl"; "--model"; "3" ]
    [ "equivalent" ];
  expect_ok
    [ "cosim"; spec "elevator.sc"; "--algo"; "greedy"; "--model"; "2";
      "--protocol"; "two-phase" ]
    [ "equivalent" ];
  expect_ok [ "export"; spec "fir.sc"; "-b"; "c" ] [ "long long v_coeff[4]" ]

let test_explore () =
  expect_ok
    [ "explore"; spec "fig2.sc"; "--seeds"; "1"; "--steps"; "400";
      "--no-cache"; "--jobs"; "2" ]
    [ "design-space sweep: 12 candidates"; "Pareto frontier" ];
  expect_ok
    [ "explore"; spec "fig2.sc"; "--seeds"; "1"; "--steps"; "400";
      "--no-cache"; "--models"; "2,4"; "--biases"; "local"; "--json" ]
    [ "\"candidates\":2"; "\"pareto\":[{"; "\"model\":\"Model2\"" ];
  expect_fail
    [ "explore"; spec "fig2.sc"; "--models"; "9" ]
    [ "unknown model" ]

let fixture name = "fixtures/" ^ name

let test_lint () =
  (* Shipped specs are clean; the command exits 0. *)
  expect_ok [ "lint"; spec "medical.sc" ] [ "0 error(s)" ];
  (* A seeded race is a warning pre-refinement (exit 0) and an error
     with --phase post (exit 1). *)
  expect_ok
    [ "lint"; fixture "lint_race.sc" ]
    [ "warning[RACE001]"; "shared" ];
  expect_fail
    [ "lint"; fixture "lint_race.sc"; "--phase"; "post" ]
    [ "error[RACE001]" ];
  (* The other two seeded defects, each with its stable code. *)
  expect_fail
    [ "lint"; fixture "lint_handshake.sc" ]
    [ "error[PROTO002]"; "go_start"; "error[PROTO003]"; "go_done" ];
  expect_fail
    [ "lint"; fixture "lint_arbiter.sc"; "--phase"; "post" ]
    [ "error[CONT001]"; "b1_addr"; "arbitration" ]

let test_lint_filters_and_json () =
  (* Severity filtering: the pre-phase race warning disappears at
     --severity error, so the run is clean. *)
  expect_ok
    [ "lint"; fixture "lint_race.sc"; "--severity"; "error" ]
    [ "0 error(s)" ];
  (* Code filtering keeps only the requested diagnostics. *)
  let _, out =
    run [ "lint"; fixture "lint_handshake.sc"; "--code"; "PROTO003" ]
  in
  Alcotest.(check bool) "kept code present" true
    (contains ~sub:"PROTO003" out);
  Alcotest.(check bool) "other code filtered" false
    (contains ~sub:"PROTO002" out);
  expect_fail
    [ "lint"; fixture "lint_race.sc"; "--phase"; "post"; "--json" ]
    [ {|"code":"RACE001"|}; {|"severity":"error"|}; {|"errors":1|} ];
  expect_ok [ "lint"; "--list-codes" ]
    [ "RACE001"; "PROTO002"; "CONT001"; "WIDTH001"; "TYPE001" ]

let test_explore_resilience () =
  (* A zero deadline times every candidate out; the sweep still completes
     and reports the degradation instead of hanging or aborting. *)
  expect_ok
    [ "explore"; spec "fig2.sc"; "--seeds"; "1"; "--steps"; "400";
      "--no-cache"; "--deadline"; "0" ]
    [ "FAILED[timeout]"; "coverage 0.0%"; "failures: timeout=12" ]

let test_explore_resume () =
  let dir = Filename.temp_file "coref_cli_resume" ".d" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let journal = Filename.concat dir "sweep.journal" in
  expect_ok
    [ "explore"; spec "fig2.sc"; "--seeds"; "1"; "--steps"; "400";
      "--no-cache"; "--resume"; journal; "--json" ]
    [ "\"replayed\":0"; "\"coverage\":1.0000" ];
  (* Rerunning against the journal replays every candidate. *)
  expect_ok
    [ "explore"; spec "fig2.sc"; "--seeds"; "1"; "--steps"; "400";
      "--no-cache"; "--resume"; journal; "--json" ]
    [ "\"replayed\":12"; "\"coverage\":1.0000" ];
  (* A journal written under different search parameters must refuse. *)
  expect_fail
    [ "explore"; spec "fig2.sc"; "--seeds"; "1"; "--steps"; "500";
      "--no-cache"; "--resume"; journal ]
    [ "different specification or configuration" ]

let test_lint_severity_overrides () =
  (* Silencing the seeded race makes even the post-phase run clean. *)
  expect_ok
    [ "lint"; fixture "lint_race.sc"; "--phase"; "post";
      "--severity-override"; "RACE001=off" ]
    [ "0 error(s)" ];
  (* Demoting it keeps it visible but non-fatal. *)
  expect_ok
    [ "lint"; fixture "lint_race.sc"; "--phase"; "post";
      "--severity-override"; "RACE001=warning" ]
    [ "warning[RACE001]" ];
  (* Promoting it turns the clean pre-phase run into a failure. *)
  expect_fail
    [ "lint"; fixture "lint_race.sc";
      "--severity-override"; "RACE001=error" ]
    [ "error[RACE001]" ];
  (* Malformed overrides are rejected up front. *)
  expect_fail
    [ "lint"; fixture "lint_race.sc"; "--severity-override"; "NOPE=off" ]
    [ "unknown diagnostic code" ];
  expect_fail
    [ "lint"; fixture "lint_race.sc"; "--severity-override"; "RACE001=loud" ]
    [ "level must be" ]

let test_demo () =
  expect_ok [ "demo" ]
    [ "medical system: 147 lines, 52 channels"; "cosim ok" ]

let test_errors () =
  expect_fail [ "parse"; "/nonexistent.sc" ] [];
  (* Unreadable files are reported, not raised. *)
  expect_error [ "parse"; "." ] [ "directory" ];
  expect_error
    [ "serve"; "--socket";
      Filename.concat (Filename.get_temp_dir_name ()) "coref_cli_unused.sock";
      "--token-file"; "/nonexistent.token" ]
    [ "/nonexistent.token" ];
  expect_fail
    [ "refine"; spec "fig1.sc"; "--assign"; "A=0" ]
    [ "unassigned" ];
  expect_error
    [ "refine"; spec "fig1.sc"; "--assign"; "A=0,B=9,C=0,x=1" ]
    [ "\"B=9\"" ];
  expect_fail
    [ "cosim"; spec "fig1.sc"; "--assign"; "nope=1" ]
    [ "unknown object" ]

(* Every command that partitions takes the same partition arguments
   through one constructor, so every bad value is rejected the same way
   everywhere.  Rows: the arguments and a fragment the message must
   contain (it names the bad entry). *)
let partitioning_commands =
  [ [ "partition" ]; [ "refine" ]; [ "cosim" ]; [ "quality" ];
    [ "export"; "--refine" ]; [ "faults" ] ]

let bad_partition_args =
  [
    ([ "--parts"; "0" ], "parts must be >= 1 (got 0)");
    ([ "--parts=-2" ], "parts must be >= 1 (got -2)");
    ([ "--assign"; "INIT=5" ], "\"INIT=5\": partition 5 is out of range");
    ([ "--assign"; "INIT=-1" ], "\"INIT=-1\": partition -1 is out of range");
    ([ "--assign"; "INIT=0,INIT=1" ], "\"INIT=1\": INIT is already assigned");
    ([ "--assign"; "foo=x" ], "\"foo=x\": partition \"x\" is not an integer");
    ([ "--assign"; "foo=1" ], "\"foo=1\": unknown object foo");
    ([ "--assign"; "INIT" ], "\"INIT\": want NAME=PARTITION");
    ([ "--assign"; "INIT=0" ], "unassigned");
  ]

let test_partition_totality () =
  List.iter
    (fun cmd ->
      List.iter
        (fun (args, frag) ->
          expect_error ((cmd @ [ spec "medical.sc" ]) @ args) [ frag ])
        bad_partition_args)
    partitioning_commands;
  (* explore searches its own partitions but shares the part count. *)
  expect_error
    [ "explore"; spec "medical.sc"; "--no-cache"; "--parts"; "0" ]
    [ "parts must be >= 1 (got 0)" ]

let test_lex_overflow () =
  let tmp = Filename.temp_file "coref_cli" ".sc" in
  let oc = open_out tmp in
  output_string oc
    "program big is\n  var x : int<8> := 99999999999999999999999;\n\
     \  behavior TOP : leaf is\n  begin\n    x := 1;\n  end behavior\n\
     end program\n";
  close_out oc;
  expect_error [ "lint"; tmp ] [ "integer literal out of range" ];
  Sys.remove tmp

(* One --fix policy on the CLI and serve: codes that cannot be fixed and
   the report-only options are rejected, never silently dropped. *)
let test_lint_fix_policy () =
  let fixable = fixture "lint_fixable.sc" in
  expect_error
    [ "lint"; "--fix"; fixable; "--code"; "WIDTH001,LIVE004" ]
    [ "LIVE004"; "not fixable" ];
  List.iter
    (fun (args, name) -> expect_error ([ "lint"; "--fix"; fixable ] @ args) [ name ])
    [
      ([ "--severity"; "error" ], "--severity");
      ([ "--phase"; "post" ], "--phase");
      ([ "--severity-override"; "WIDTH001=off" ], "--severity-override");
      ([ "--flow" ], "--flow");
    ];
  expect_ok [ "lint"; "--fix"; "--json"; fixable; "--code"; "WIDTH001" ]
    [ {|"changed":true|}; {|"code":"WIDTH001"|} ]

let () =
  Alcotest.run "cli"
    [
      ( "subcommands",
        [
          tc "parse" test_parse;
          tc "graph" test_graph;
          tc "partition algos" test_partition_algos;
          tc "partition manual" test_partition_manual;
          tc "refine" test_refine;
          tc "refined output round-trips" test_refine_roundtrips_through_cli;
          tc "simulate" test_simulate;
          tc "cosim all models" test_cosim_all_models;
          tc "cosim parallel spec" test_cosim_parallel;
          tc "typecheck" test_typecheck;
          tc "export c" test_export_c;
          tc "export vhdl" test_export_vhdl;
          tc "quality" test_quality_real;
          tc "fir/elevator specs" test_fir_and_elevator_specs;
          tc "explore" test_explore;
          tc "explore resilience" test_explore_resilience;
          tc "explore resume" test_explore_resume;
          tc "lint" test_lint;
          tc "lint filters and json" test_lint_filters_and_json;
          tc "lint severity overrides" test_lint_severity_overrides;
          tc "demo" test_demo;
          tc "errors" test_errors;
          tc "partition argument totality" test_partition_totality;
          tc "lexer integer overflow" test_lex_overflow;
          tc "lint --fix option policy" test_lint_fix_policy;
        ] );
    ]
