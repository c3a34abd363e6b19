(* The differential-analysis harness, end to end: the diff kernel's
   path addressing and tolerance rules, real control/candidate variants
   agreeing field-for-field over a simgen fleet, the perturb self-test
   producing a replayable mismatch corpus that names the exact diverging
   field, report byte-identity across --jobs, error-doc projection of a
   one-sided decode failure, and the A008 report self-consistency
   audit. *)

module Json = Tdat_json.Json
module Diff = Tdat_experiment.Diff
module Variant = Tdat_experiment.Variant
module Engine = Tdat_experiment.Engine
module Corpus = Tdat_experiment.Corpus
module Report = Tdat_experiment.Report

let bin_exe name =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat Filename.parent_dir_name (Filename.concat "bin" name))

let simgen_exe = bin_exe "simgen.exe"
let tdat_exe = bin_exe "tdat_cli.exe"
let run_quiet cmd = Sys.command (cmd ^ " >/dev/null 2>&1")

let tmpdir () =
  let f = Filename.temp_file "tdat_experiment" "" in
  Sys.remove f;
  Sys.mkdir f 0o700;
  f

let simgen ?seed:(s = 7) ?(prefixes = 80) ?(routers = 2) ?emit_mrt pcap =
  let mrt =
    match emit_mrt with
    | Some dir -> Printf.sprintf " --emit-mrt %s" (Filename.quote dir)
    | None -> ""
  in
  let cmd =
    Printf.sprintf "%s %s%s --routers %d --prefixes %d --seed %d"
      (Filename.quote simgen_exe) (Filename.quote pcap) mrt routers prefixes s
  in
  Alcotest.(check int) "simgen exit" 0 (run_quiet cmd)

(* A fleet of two captures and two archives under one directory. *)
let emit_fleet dir =
  let p1 = Filename.concat dir "f1.pcap" in
  let p2 = Filename.concat dir "f2.pcap" in
  let mdir = Filename.concat dir "archives" in
  simgen ~seed:11 ~prefixes:90 ~emit_mrt:mdir p1;
  simgen ~seed:23 ~prefixes:60 ~routers:3 p2;
  let mrts =
    Sys.readdir mdir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".mrt")
    |> List.sort String.compare
    |> List.map (Filename.concat mdir)
  in
  ([ p1; p2 ], mrts)

let variant name =
  match Variant.find name with
  | Some v -> v
  | None -> Alcotest.failf "variant %s not registered" name

(* --- diff kernel ---------------------------------------------------------- *)

let sample_doc x =
  Json.Obj
    [
      ( "connections",
        Json.Arr
          [
            Json.Obj [ ("flow", Json.Str "a"); ("shifts", Json.Num 2.) ];
            Json.Obj
              [
                ("flow", Json.Str "b");
                ( "factors",
                  Json.Obj [ ("ratios", Json.Obj [ ("x", Json.Num x) ]) ] );
              ];
          ] );
      ("stats", Json.Null);
    ]

let test_diff_identity () =
  let doc = sample_doc 1. in
  let entries, fields = Diff.run ~control:doc ~candidate:doc () in
  Alcotest.(check int) "no mismatches on identity" 0 (List.length entries);
  Alcotest.(check int) "five leaf fields compared" 5 fields

let test_diff_path_addressing () =
  let entries, fields =
    Diff.run ~control:(sample_doc 1.) ~candidate:(sample_doc 2.) ()
  in
  Alcotest.(check int) "field count unchanged" 5 fields;
  match entries with
  | [ e ] ->
      Alcotest.(check string)
        "exact dotted/indexed path" "report.connections[1].factors.ratios.x"
        e.Diff.path;
      Alcotest.(check bool) "value kind" true
        (Diff.equal_kind e.Diff.kind Diff.Value_mismatch);
      Alcotest.(check string) "control rendering" "1" e.Diff.control;
      Alcotest.(check string) "candidate rendering" "2" e.Diff.candidate
  | es -> Alcotest.failf "expected exactly one entry, got %d" (List.length es)

let test_diff_kinds () =
  (* Type clash, one-sided members (both directions), array length. *)
  let control =
    Json.Obj
      [ ("a", Json.Num 1.); ("only_control", Json.Bool true);
        ("arr", Json.Arr [ Json.Num 1.; Json.Num 2. ]) ]
  in
  let candidate =
    Json.Obj
      [ ("a", Json.Str "1"); ("only_candidate", Json.Bool true);
        ("arr", Json.Arr [ Json.Num 1. ]) ]
  in
  let entries, _ = Diff.run ~control ~candidate () in
  let kind_at path =
    match List.find_opt (fun e -> String.equal e.Diff.path path) entries with
    | Some e -> Diff.kind_name e.Diff.kind
    | None -> Alcotest.failf "no entry at %s" path
  in
  Alcotest.(check int) "four divergences" 4 (List.length entries);
  Alcotest.(check string) "type clash" "type" (kind_at "report.a");
  Alcotest.(check string) "absent on candidate side" "missing-in-candidate"
    (kind_at "report.only_control");
  Alcotest.(check string) "absent on control side" "missing-in-control"
    (kind_at "report.only_candidate");
  Alcotest.(check string) "array tail" "missing-in-candidate"
    (kind_at "report.arr[1]")

let test_diff_key_order_insensitive () =
  let control = Json.Obj [ ("a", Json.Num 1.); ("b", Json.Num 2.) ] in
  let candidate = Json.Obj [ ("b", Json.Num 2.); ("a", Json.Num 1.) ] in
  let entries, fields = Diff.run ~control ~candidate () in
  Alcotest.(check int) "reordered members agree" 0 (List.length entries);
  Alcotest.(check int) "both members compared" 2 fields

let test_diff_tolerance () =
  let near a b = (Json.Num a, Json.Num b) in
  let mismatches ?tolerance (control, candidate) =
    fst (Diff.run ?tolerance ~control ~candidate ()) |> List.length
  in
  Alcotest.(check int) "bit-exact by default" 1 (mismatches (near 100. 100.05));
  Alcotest.(check int) "relative tolerance admits"
    0
    (mismatches ~tolerance:1e-3 (near 100. 100.05));
  Alcotest.(check int) "tolerance still rejects beyond the band" 1
    (mismatches ~tolerance:1e-3 (near 100. 100.2));
  Alcotest.(check int) "NaN agrees with NaN" 0
    (mismatches (near Float.nan Float.nan));
  Alcotest.(check int) "near-zero tolerance is absolute" 0
    (mismatches ~tolerance:1e-3 (near 0. 1e-4))

(* --- real variants over a fleet ------------------------------------------- *)

let test_fleet_equivalence () =
  let dir = tmpdir () in
  let pcaps, mrts = emit_fleet dir in
  let check_variant name files =
    let report = Engine.run ~jobs:2 (variant name) ~files in
    Alcotest.(check int)
      (name ^ ": compared every corpus file")
      (List.length files)
      (List.length report.Engine.files);
    Alcotest.(check bool) (name ^ ": compared real fields") true
      (report.Engine.total_fields > 0);
    Alcotest.(check int) (name ^ ": zero mismatches") 0
      report.Engine.total_mismatches;
    Alcotest.(check int) (name ^ ": A008 clean") 0
      (List.length report.Engine.audit)
  in
  (* The three real pairs: two over the captures, one over the archives. *)
  check_variant "strict-pcap" pcaps;
  check_variant "reasm-scratch" pcaps;
  check_variant "mrt-ingest" mrts

let test_report_identical_across_jobs () =
  let dir = tmpdir () in
  let pcaps, _ = emit_fleet dir in
  let v = variant "reasm-scratch" in
  let r1 = Engine.run ~jobs:1 v ~files:pcaps in
  let r4 = Engine.run ~jobs:4 v ~files:pcaps in
  Alcotest.(check string) "JSON report byte-identical across jobs"
    (Report.to_json r1) (Report.to_json r4);
  Alcotest.(check string) "text report byte-identical across jobs"
    (Report.to_text r1) (Report.to_text r4)

let test_error_doc_projection () =
  (* Truncate a valid capture mid-record: strict ingestion raises,
     salvage succeeds — the disagreement must surface as ordinary
     mismatches, with the control side's failure at report.error. *)
  let dir = tmpdir () in
  let pcap = Filename.concat dir "cap.pcap" in
  simgen ~seed:31 pcap;
  let data = In_channel.with_open_bin pcap In_channel.input_all in
  let cut = Filename.concat dir "cut.pcap" in
  Out_channel.with_open_bin cut (fun oc ->
      Out_channel.output_string oc
        (String.sub data 0 (String.length data - 7)));
  let report = Engine.run ~jobs:1 (variant "strict-pcap") ~files:[ cut ] in
  Alcotest.(check bool) "divergence detected" true
    (report.Engine.total_mismatches > 0);
  match report.Engine.files with
  | [ f ] ->
      Alcotest.(check bool) "flagged as a side error" true f.Engine.errors;
      Alcotest.(check bool) "control failure lands at report.error" true
        (List.exists
           (fun e -> String.equal e.Diff.path "report.error")
           f.Engine.mismatches)
  | _ -> Alcotest.fail "expected one file result"

(* --- perturb self-test, corpus and replay ---------------------------------- *)

let test_perturb_corpus_replay () =
  let dir = tmpdir () in
  let pcap = Filename.concat dir "cap.pcap" in
  simgen ~seed:42 pcap;
  let report = Engine.run ~jobs:1 (variant "perturb") ~files:[ pcap ] in
  Alcotest.(check int) "exactly one nudged field" 1
    report.Engine.total_mismatches;
  let entry =
    match Engine.mismatching report with
    | [ { Engine.mismatches = [ e ]; _ } ] -> e
    | _ -> Alcotest.fail "expected one mismatching file with one entry"
  in
  Alcotest.(check bool) "mismatch names the perturbed ratio" true
    (String.starts_with ~prefix:"report.connections[0].factors.ratios."
       entry.Diff.path);
  (* Capture, then replay from the copied corpus alone. *)
  let corp = Filename.concat dir "corpus" in
  Alcotest.(check int) "one corpus entry" 1 (Corpus.write ~dir:corp report);
  Alcotest.(check bool) "input copied" true
    (Sys.file_exists (Filename.concat corp "000_cap.pcap"));
  Alcotest.(check bool) "drill-down written" true
    (Sys.file_exists (Filename.concat corp "000_cap.pcap.diff.json"));
  (match Corpus.read_index ~dir:corp with
  | Error e -> Alcotest.fail e
  | Ok idx ->
      Alcotest.(check string) "index records the variant" "perturb"
        idx.Corpus.variant;
      Alcotest.(check int) "index manifest" 1 (List.length idx.Corpus.entries));
  match Corpus.replay ~jobs:1 ~dir:corp () with
  | Error e -> Alcotest.fail e
  | Ok replayed -> (
      Alcotest.(check int) "replay reproduces the divergence" 1
        replayed.Engine.total_mismatches;
      match Engine.mismatching replayed with
      | [ { Engine.mismatches = [ e ]; _ } ] ->
          Alcotest.(check string) "replay names the same field"
            entry.Diff.path e.Diff.path
      | _ -> Alcotest.fail "replay: expected one mismatching file")

let test_zero_mismatch_corpus_is_empty_manifest () =
  let dir = tmpdir () in
  let pcap = Filename.concat dir "cap.pcap" in
  simgen ~seed:5 ~prefixes:40 pcap;
  let report = Engine.run ~jobs:1 (variant "strict-pcap") ~files:[ pcap ] in
  let corp = Filename.concat dir "corpus" in
  Alcotest.(check int) "no entries captured" 0 (Corpus.write ~dir:corp report);
  match Corpus.read_index ~dir:corp with
  | Error e -> Alcotest.fail e
  | Ok idx ->
      Alcotest.(check int) "manifest is empty" 0 (List.length idx.Corpus.entries)

(* --- A008 ------------------------------------------------------------------ *)

let a008_findings ~files ~total_fields ~total_mismatches =
  Tdat_audit.Checks.experiment_consistent ~subject:"test" ~files ~total_fields
    ~total_mismatches ()

let test_a008 () =
  let ok =
    a008_findings
      ~files:[ ("a.pcap", 10, 1); ("b.pcap", 5, 0) ]
      ~total_fields:15 ~total_mismatches:1
  in
  Alcotest.(check int) "consistent report passes" 0 (List.length ok);
  let bad_totals =
    a008_findings
      ~files:[ ("a.pcap", 10, 1) ]
      ~total_fields:11 ~total_mismatches:1
  in
  Alcotest.(check bool) "total drift flagged" true (bad_totals <> []);
  let unsorted =
    a008_findings
      ~files:[ ("b.pcap", 5, 0); ("a.pcap", 10, 1) ]
      ~total_fields:15 ~total_mismatches:1
  in
  Alcotest.(check bool) "unsorted manifest flagged" true (unsorted <> []);
  let excess =
    a008_findings ~files:[ ("a.pcap", 3, 4) ] ~total_fields:3
      ~total_mismatches:4
  in
  Alcotest.(check bool) "mismatches beyond fields flagged" true (excess <> [])

(* --- CLI ------------------------------------------------------------------- *)

let test_cli_experiment () =
  let dir = tmpdir () in
  let pcap = Filename.concat dir "cap.pcap" in
  simgen ~seed:13 pcap;
  let corp = Filename.concat dir "corpus" in
  Alcotest.(check int) "equivalent variant exits 0" 0
    (run_quiet
       (Printf.sprintf "%s experiment run %s --variant reasm-scratch --jobs 2"
          (Filename.quote tdat_exe) (Filename.quote pcap)));
  Alcotest.(check int) "perturb self-test exits 1" 1
    (run_quiet
       (Printf.sprintf
          "%s experiment run %s --variant perturb --corpus %s"
          (Filename.quote tdat_exe) (Filename.quote pcap)
          (Filename.quote corp)));
  Alcotest.(check bool) "CLI wrote the per-variant corpus" true
    (Sys.file_exists
       (Filename.concat corp (Filename.concat "perturb" "index.json")));
  Alcotest.(check int) "replay reproduces (exit 1)" 1
    (run_quiet
       (Printf.sprintf "%s experiment replay %s"
          (Filename.quote tdat_exe)
          (Filename.quote (Filename.concat corp "perturb"))));
  (* The documented CLI determinism: stdout of --json is byte-identical
     across --jobs values. *)
  let out jobs =
    let f = Filename.concat dir (Printf.sprintf "out%d.json" jobs) in
    Alcotest.(check int) "json run exit" 0
      (Sys.command
         (Printf.sprintf
            "%s experiment run %s --variant reasm-scratch --json --jobs %d \
             > %s 2>/dev/null"
            (Filename.quote tdat_exe) (Filename.quote pcap) jobs
            (Filename.quote f)));
    In_channel.with_open_bin f In_channel.input_all
  in
  Alcotest.(check string) "CLI JSON identical for --jobs 1 and 4" (out 1)
    (out 4)

let suite =
  [
    Alcotest.test_case "diff: identity compares clean" `Quick
      test_diff_identity;
    Alcotest.test_case "diff: exact path addressing" `Quick
      test_diff_path_addressing;
    Alcotest.test_case "diff: kind taxonomy" `Quick test_diff_kinds;
    Alcotest.test_case "diff: member order irrelevant" `Quick
      test_diff_key_order_insensitive;
    Alcotest.test_case "diff: tolerance semantics" `Quick test_diff_tolerance;
    Alcotest.test_case "fleet: real pairs are equivalent" `Quick
      test_fleet_equivalence;
    Alcotest.test_case "report byte-identical across jobs" `Quick
      test_report_identical_across_jobs;
    Alcotest.test_case "one-sided decode failure diffs at report.error"
      `Quick test_error_doc_projection;
    Alcotest.test_case "perturb: corpus capture and replay" `Quick
      test_perturb_corpus_replay;
    Alcotest.test_case "clean run writes an empty manifest" `Quick
      test_zero_mismatch_corpus_is_empty_manifest;
    Alcotest.test_case "A008 report self-consistency" `Quick test_a008;
    Alcotest.test_case "CLI: run, corpus, replay, --jobs identity" `Quick
      test_cli_experiment;
  ]
