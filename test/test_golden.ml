(** Golden corpus: the refined text, the refine report and the lint
    reports of a fixed corpus must keep the exact bytes recorded in
    [fixtures/golden.digests].  The corpus is Generator specs at k = 1
    and 2 (sequential and two parallel branches, the benchmark's
    size-k shape: 14k variables, 16k leaves, 6 statements per leaf), the
    shipped example specs and the lint fixtures, each refined under
    models 1-4 with and without hardening; every refinement is linted
    (default passes and [--flow]) as [mrefine lint] would lint the
    written file.

    Each row is [CASE ARTIFACT MD5].  A performance change must leave
    every row unchanged.  A change that means to alter an output
    regenerates the table, from the [test] directory, with
    [dune exec --root .. ./test/test_golden.exe -- print > fixtures/golden.digests]
    and says why in its description. *)

let md5 s = Digest.to_hex (Digest.string s)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let generator_specs =
  List.concat_map
    (fun k ->
      List.map
        (fun par ->
          let cfg =
            {
              Workloads.Generator.gen_seed = 1000 + (10 * k) + par;
              gen_vars = 14 * k;
              gen_leaves = 16 * k;
              gen_stmts = 6;
              gen_par_branches = par;
            }
          in
          ( Printf.sprintf "gen-k%d-par%d" k par,
            Spec.Printer.program_to_string (Workloads.Generator.program cfg) ))
        [ 0; 2 ])
    [ 1; 2 ]

let file_specs dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".sc")
  |> List.sort compare
  |> List.map (fun f -> (f, read_file (Filename.concat dir f)))

let corpus () =
  generator_specs
  @ file_specs "../examples/specs"
  @ file_specs "fixtures"

(* [mrefine lint [--flow] FILE] on [source], as the report text. *)
let lint_digest ~flow name source =
  match Command.spec_of_source source with
  | Error msg -> md5 ("error: " ^ msg)
  | Ok spec ->
    let r = { Command.default_lint with li_file = name; li_flow = flow } in
    let o =
      Command.lint_targets r
        [ { Command.tg_name = name; tg_program = spec.Command.sp_program;
            tg_phase = None; tg_locations = Some spec.Command.sp_locations } ]
    in
    md5 o.Command.o_output

let rows_of_spec (name, source) =
  let lint suffix src =
    [ (name ^ suffix, "lint", lint_digest ~flow:false name src);
      (name ^ suffix, "lint-flow", lint_digest ~flow:true name src) ]
  in
  match Command.spec_of_source source with
  | Error msg -> [ (name, "parse", md5 msg) ]
  | Ok spec ->
    lint "" source
    @ List.concat_map
        (fun m ->
          List.concat_map
            (fun harden ->
              let case =
                Printf.sprintf "%s/m%d%s" name m (if harden then "/h" else "")
              in
              let notes = ref [] in
              let env =
                { Command.env with
                  e_note = Some (fun l -> notes := l :: !notes) }
              in
              let d =
                { Command.default_design with
                  ds_model =
                    Option.get (Core.Model.of_string (string_of_int m));
                  ds_harden = harden }
              in
              match Command.refine env spec d with
              | Error msg -> [ (case, "refine-error", md5 msg) ]
              | Ok o ->
                let refined = o.Command.o_output in
                [ (case, "refined", md5 refined);
                  (case, "report", md5 (String.concat "\n" (List.rev !notes)))
                ]
                @ List.map
                    (fun (_, art, d) -> (case, art, d))
                    (lint "" refined))
            [ false; true ])
        [ 1; 2; 3; 4 ]

let table () =
  List.concat_map rows_of_spec (corpus ())
  |> List.map (fun (c, a, d) -> Printf.sprintf "%s %s %s" c a d)

let golden () =
  let want =
    read_file "fixtures/golden.digests"
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  let got = table () in
  let missing = List.filter (fun l -> not (List.mem l got)) want in
  let extra = List.filter (fun l -> not (List.mem l want)) got in
  if missing <> [] || extra <> [] then
    Alcotest.failf
      "golden digests differ:\n\
      \  recorded, not produced:\n%s\n\
      \  produced, not recorded:\n%s"
      (String.concat "\n" (List.map (fun l -> "    " ^ l) missing))
      (String.concat "\n" (List.map (fun l -> "    " ^ l) extra));
  Alcotest.(check int) "rows" (List.length want) (List.length got)

let () =
  if Array.length Sys.argv = 2 && Sys.argv.(1) = "print" then
    List.iter print_endline (table ())
  else
    Alcotest.run "golden"
      [ ( "corpus",
          [ Alcotest.test_case "byte-identical outputs" `Quick golden ] ) ]
