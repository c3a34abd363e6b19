(* tdat-lint: drive the built linter executable over the fixture files.
   The bad fixture seeds one violation per per-file rule and must make
   the linter exit non-zero with every code reported — the negative
   test behind the [@lint] alias's guarantee.  The domain_* fixtures do
   the same for the whole-repo passes: a worker-reachable module-level
   ref must fail with L007, allowlisting it must pass, and a stale
   allowlist must come back as L010.  Also covered: L008 cross-module
   mutation, the --hot-driven L009 allocation lint and the names its
   default hot list gives, L012 unused library exports over a fixture
   lib/ tree, lib/ detection by path component (not string prefix),
   deterministic finding order across --jobs, --rules selection, and
   the JSON/SARIF emitters. *)

let lint_exe = Filename.concat ".." (Filename.concat "bin" "tdat_lint.exe")

(* Returns (exit code, stdout lines).  stderr (the summary line) is
   dropped so it doesn't pollute the alcotest output. *)
let run_lint args =
  let cmd =
    String.concat " " (List.map Filename.quote (lint_exe :: args))
    ^ " 2>/dev/null"
  in
  let ic = Unix.open_process_in cmd in
  let rec read acc =
    match In_channel.input_line ic with
    | Some l -> read (l :: acc)
    | None -> List.rev acc
  in
  let lines = read [] in
  let code =
    match Unix.close_process_in ic with
    | Unix.WEXITED c -> c
    | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> 255
  in
  (code, lines)

let contains_substring haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub haystack i nn = needle || at (i + 1)) in
  at 0

let has_code lines code =
  let tag = Printf.sprintf "[%s]" code in
  List.exists (fun line -> contains_substring line tag) lines

let fixture name = Filename.concat "fixtures" name

let codes =
  [ "L001"; "L002"; "L003"; "L004"; "L005"; "L006"; "L011"; "L012" ]

(* --- the original per-file rules ------------------------------------------ *)

let test_bad_fixture_fails () =
  let exit_code, lines = run_lint [ "--treat-as-lib"; fixture "lint_bad.ml" ] in
  Alcotest.(check int) "non-zero exit on seeded violations" 1 exit_code;
  List.iter
    (fun code ->
      (* Finding format: file:line:col: [Lnnn] message *)
      Alcotest.(check bool)
        (Printf.sprintf "code %s reported" code)
        true (has_code lines code))
    codes

let test_bad_fixture_findings_located () =
  let _, lines = run_lint [ "--treat-as-lib"; fixture "lint_bad.ml" ] in
  Alcotest.(check bool) "at least five findings" true (List.length lines >= 5);
  List.iter
    (fun line ->
      Alcotest.(check bool)
        (Printf.sprintf "finding names the fixture: %s" line)
        true
        (String.starts_with ~prefix:"fixtures" line))
    lines

let test_clean_fixture_passes () =
  let exit_code, lines =
    run_lint [ "--treat-as-lib"; fixture "lint_clean.ml" ]
  in
  Alcotest.(check int) "zero exit on clean file" 0 exit_code;
  Alcotest.(check (list string)) "no findings" [] lines

(* --- lib/ detection by path component (not string prefix) ----------------- *)

(* Regression for the old [String.sub path 0 4 = "lib/"] check: a file
   under a lib/ directory reached through an absolute path must still
   get the library-only rules (L005 here), with no --treat-as-lib. *)
let test_lib_detection_absolute_path () =
  let dir = Filename.temp_file "tdat_lint" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let libdir = Filename.concat dir "lib" in
  Unix.mkdir libdir 0o755;
  let file = Filename.concat libdir "sample.ml" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove file with Sys_error _ -> ());
      (try Unix.rmdir libdir with Unix.Unix_error _ -> ());
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () ->
      Out_channel.with_open_text file (fun oc ->
          output_string oc "let boom () = failwith \"nope\"\n");
      Alcotest.(check bool) "temp path is absolute" true
        (not (Filename.is_relative file));
      let exit_code, lines = run_lint [ file ] in
      Alcotest.(check int) "absolute lib/ path fails" 1 exit_code;
      Alcotest.(check bool) "L005 reported" true (has_code lines "L005"))

let test_non_lib_path_skips_lib_rules () =
  (* The same failwith outside any lib/ directory is not a finding. *)
  let dir = Filename.temp_file "tdat_lint" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let file = Filename.concat dir "sample.ml" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove file with Sys_error _ -> ());
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () ->
      Out_channel.with_open_text file (fun oc ->
          output_string oc "let boom () = failwith \"nope\"\n");
      let exit_code, lines = run_lint [ file ] in
      Alcotest.(check int) "non-lib path passes" 0 exit_code;
      Alcotest.(check (list string)) "no findings" [] lines)

(* --- deterministic ordering ----------------------------------------------- *)

let test_same_line_findings_sorted_by_col () =
  let exit_code, lines =
    run_lint [ "--treat-as-lib"; fixture "sortorder.ml" ]
  in
  Alcotest.(check int) "two seeded violations fail" 1 exit_code;
  Alcotest.(check int) "two findings" 2 (List.length lines);
  let col line =
    (* file:line:col: ... *)
    match String.split_on_char ':' line with
    | _file :: _line :: col :: _ -> int_of_string col
    | _ -> Alcotest.fail ("unparseable finding line: " ^ line)
  in
  match lines with
  | [ a; b ] ->
      Alcotest.(check bool) "columns strictly increasing" true (col a < col b)
  | _ -> Alcotest.fail "expected exactly two findings"

let test_output_identical_across_jobs () =
  let run jobs =
    run_lint [ "--treat-as-lib"; "--jobs"; string_of_int jobs; "fixtures" ]
  in
  let c1, l1 = run 1 in
  let c3, l3 = run 3 in
  Alcotest.(check int) "same exit code" c1 c3;
  Alcotest.(check (list string)) "byte-identical findings" l1 l3;
  Alcotest.(check bool) "the directory scan does find things" true
    (List.length l1 > 0)

(* --- L007 / suppression / L010 -------------------------------------------- *)

let test_l007_worker_reachable_ref () =
  let exit_code, lines =
    run_lint [ "--treat-as-lib"; fixture "domain_bad.ml" ]
  in
  Alcotest.(check int) "seeded L007 fails" 1 exit_code;
  Alcotest.(check bool) "L007 reported" true (has_code lines "L007");
  Alcotest.(check bool) "finding names the entry point" true
    (List.exists (fun l -> contains_substring l "Pool.map") lines)

(* The daemon's job path: a closure handed to [Service.submit] runs on
   a service worker domain, so what it reaches is checked too. *)
let test_l007_service_submit () =
  let exit_code, lines =
    run_lint [ "--treat-as-lib"; fixture "domain_service.ml" ]
  in
  Alcotest.(check int) "seeded L007 fails" 1 exit_code;
  Alcotest.(check int) "exactly one finding" 1 (List.length lines);
  Alcotest.(check bool) "L007 at the ref, via Service.submit" true
    (List.exists
       (fun l ->
         has_code [ l ] "L007"
         && contains_substring l "Domain_service.served"
         && contains_substring l "Service.submit")
       lines)

let test_l007_suppression_honored () =
  let exit_code, lines =
    run_lint [ "--treat-as-lib"; fixture "domain_allow.ml" ]
  in
  Alcotest.(check int) "allowlisted fixture passes" 0 exit_code;
  Alcotest.(check (list string)) "no findings at all" [] lines

let test_l010_stale_suppression_reported () =
  let exit_code, lines =
    run_lint [ "--treat-as-lib"; fixture "domain_stale.ml" ]
  in
  Alcotest.(check int) "stale allowlist fails" 1 exit_code;
  Alcotest.(check bool) "L010 reported" true (has_code lines "L010");
  Alcotest.(check bool) "no L007 (the ref is gone)" false
    (has_code lines "L007")

(* --- L008 ------------------------------------------------------------------ *)

let test_l008_cross_module_mutation () =
  let exit_code, lines =
    run_lint
      [ "--treat-as-lib"; fixture "l8_owner.ml"; fixture "l8_user.ml" ]
  in
  Alcotest.(check int) "cross-module mutation fails" 1 exit_code;
  Alcotest.(check bool) "L008 reported" true (has_code lines "L008");
  Alcotest.(check bool) "finding is in the user, not the owner" true
    (List.for_all
       (fun l ->
         (not (contains_substring l "[L008]"))
         || String.starts_with ~prefix:(fixture "l8_user.ml") l)
       lines)

(* --- L009 via --hot --------------------------------------------------------- *)

let test_l009_hot_path () =
  let exit_code, lines =
    run_lint
      [ "--treat-as-lib"; "--hot"; "Hot_alloc.join"; fixture "hot_alloc.ml" ]
  in
  Alcotest.(check int) "hot String.concat fails" 1 exit_code;
  Alcotest.(check int) "exactly one finding" 1 (List.length lines);
  Alcotest.(check bool) "L009 names the hot binding" true
    (List.exists (fun l -> contains_substring l "Hot_alloc.join") lines)

let test_l009_silent_outside_hot_set () =
  let exit_code, lines =
    run_lint [ "--treat-as-lib"; fixture "hot_alloc.ml" ]
  in
  Alcotest.(check int) "same file clean without --hot" 0 exit_code;
  Alcotest.(check (list string)) "no findings" [] lines

(* Every name the default hot list gives must be a top-level binding of
   its module's file under lib/: a binding that is renamed or deleted
   would otherwise drop out of L009's scan without notice. *)
let lib_root = Filename.concat ".." "lib"

let rec files_named name dir =
  Sys.readdir dir |> Array.to_list |> List.sort String.compare
  |> List.concat_map (fun n ->
         let p = Filename.concat dir n in
         if Sys.is_directory p then files_named name p
         else if String.equal n name then [ p ]
         else [])

let toplevel_bindings file =
  let str =
    In_channel.with_open_bin file (fun ic ->
        let lexbuf = Lexing.from_channel ic in
        Lexing.set_filename lexbuf file;
        Parse.implementation lexbuf)
  in
  List.concat_map
    (fun (item : Parsetree.structure_item) ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) ->
          List.filter_map
            (fun (vb : Parsetree.value_binding) ->
              match vb.pvb_pat.ppat_desc with
              | Ppat_var { txt; _ } -> Some txt
              | _ -> None)
            vbs
      | _ -> [])
    str

let test_l009_hot_names_exist () =
  List.iter
    (fun (m, scope) ->
      let files = files_named (String.uncapitalize_ascii m ^ ".ml") lib_root in
      Alcotest.(check bool) (m ^ " has a file under lib/") true (files <> []);
      match scope with
      | Tdat_lint.Rules_file.All -> ()
      | Tdat_lint.Rules_file.Funcs names ->
          let bound = List.concat_map toplevel_bindings files in
          List.iter
            (fun n ->
              Alcotest.(check bool)
                (Printf.sprintf "%s.%s is a top-level binding" m n)
                true (List.mem n bound))
            names)
    Tdat_lint.Rules_file.default_hot_paths

(* --- L012 unused library exports -------------------------------------------- *)

(* The fixture tree: lib/ modules with interfaces, a bin/ file using
   their exports every way the rule must see, and a test/ file naming
   the one export nothing else uses.  Only lib/ and bin/ are scanned,
   as the @lint alias scans the production roots. *)
let l012_run () =
  run_lint
    [ fixture (Filename.concat "l012" "lib");
      fixture (Filename.concat "l012" "bin") ]

let l012_lines lines =
  List.filter (fun l -> contains_substring l "[L012]") lines

let test_l012_test_only_use () =
  let exit_code, lines = l012_run () in
  Alcotest.(check int) "an unused export fails" 1 exit_code;
  match l012_lines lines with
  | [ l ] ->
      Alcotest.(check bool) "the finding names Owner.dead in the .mli" true
        (contains_substring l "owner.mli:4:"
        && contains_substring l "Owner.dead")
  | ls -> Alcotest.failf "expected one L012 finding, got %d" (List.length ls)

let test_l012_silent_for_uses () =
  let _, lines = l012_run () in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " is not reported") false
        (List.exists (fun l -> contains_substring l name) (l012_lines lines)))
    [ "Owner.via_alias"; "Owner.via_open"; "Owner.via_local_open";
      "Owner.+!"; "Ordered.compare"; "Packed.name"; "Private.internal";
      "Owner.allowed"; "Owner.stale" ]

let test_l012_stale_allow () =
  let _, lines = l012_run () in
  Alcotest.(check (list string)) "one L010, at the stale interface allow"
    [ "fixtures/l012/lib/owner.mli:18" ]
    (List.filter_map
       (fun l ->
         if contains_substring l "[L010]" then
           match String.split_on_char ':' l with
           | file :: line :: _ -> Some (file ^ ":" ^ line)
           | _ -> None
         else None)
       lines)

(* --- L011 metric/span names ------------------------------------------------- *)

(* Both seeded shapes in the bad fixture must fire: the malformed
   literal ("Serve.Requests") and the dynamic [~name] pass-through. *)
let test_l011_both_shapes_reported () =
  let _, lines = run_lint [ "--treat-as-lib"; fixture "lint_bad.ml" ] in
  let l011 = List.filter (fun l -> contains_substring l "[L011]") lines in
  Alcotest.(check int) "two L011 findings" 2 (List.length l011);
  Alcotest.(check bool) "names the bad literal" true
    (List.exists (fun l -> contains_substring l "Serve.Requests") l011);
  Alcotest.(check bool) "flags the dynamic name" true
    (List.exists (fun l -> contains_substring l "dynamically") l011)

let test_l011_allow_fence_passes () =
  let exit_code, lines =
    run_lint [ "--treat-as-lib"; fixture "obs_name_allow.ml" ]
  in
  Alcotest.(check int) "fenced dynamic name passes" 0 exit_code;
  Alcotest.(check (list string)) "no findings" [] lines

(* --- --rules selection ------------------------------------------------------ *)

let test_rules_disable () =
  let exit_code, lines =
    run_lint [ "--treat-as-lib"; "--rules=-L001"; fixture "lint_bad.ml" ]
  in
  Alcotest.(check int) "other rules still fail" 1 exit_code;
  Alcotest.(check bool) "L001 gone" false (has_code lines "L001");
  Alcotest.(check bool) "L002 still reported" true (has_code lines "L002")

let test_rules_unknown_id_is_usage_error () =
  let exit_code, _ =
    run_lint [ "--rules=L999"; fixture "lint_clean.ml" ]
  in
  Alcotest.(check int) "unknown rule id exits 2" 2 exit_code

(* --- JSON / SARIF emitters -------------------------------------------------- *)

(* Validity is the shared codec's strict parser accepting the whole
   document. *)
let json_ok doc = Result.is_ok (Tdat_json.Json.parse doc)

let test_sarif_shape () =
  let exit_code, lines =
    run_lint [ "--treat-as-lib"; "--format"; "sarif"; fixture "lint_bad.ml" ]
  in
  Alcotest.(check int) "findings still set the exit code" 1 exit_code;
  let doc = String.concat "\n" lines in
  Alcotest.(check bool) "SARIF output is valid JSON" true (json_ok doc);
  Alcotest.(check bool) "declares SARIF 2.1.0" true
    (contains_substring doc "\"version\":\"2.1.0\"");
  Alcotest.(check bool) "runs[0].results populated" true
    (contains_substring doc "\"results\":[{\"ruleId\":");
  Alcotest.(check bool) "rule metadata present" true
    (contains_substring doc "\"id\":\"L007\"");
  Alcotest.(check bool) "L012 in the rule metadata" true
    (contains_substring doc "\"id\":\"L012\"");
  Alcotest.(check bool) "regions carry locations" true
    (contains_substring doc "\"startLine\":")

let test_json_shape () =
  let exit_code, lines =
    run_lint [ "--treat-as-lib"; "--format"; "json"; fixture "lint_bad.ml" ]
  in
  Alcotest.(check int) "findings still set the exit code" 1 exit_code;
  let doc = String.concat "\n" lines in
  Alcotest.(check bool) "JSON output is valid JSON" true (json_ok doc);
  Alcotest.(check bool) "findings array populated" true
    (contains_substring doc "\"findings\":[{\"file\":")

(* --- the lint library's own invariants (unit level) ------------------------ *)

let test_finding_compare_total_order () =
  let f ~file ~line ~col ~code =
    Tdat_lint.Finding.v ~file ~line ~col ~code
      ~severity:Tdat_lint.Finding.Error "m"
  in
  let shuffled =
    [
      f ~file:"b.ml" ~line:1 ~col:0 ~code:"L001";
      f ~file:"a.ml" ~line:2 ~col:5 ~code:"L003";
      f ~file:"a.ml" ~line:2 ~col:5 ~code:"L001";
      f ~file:"a.ml" ~line:2 ~col:1 ~code:"L009";
      f ~file:"a.ml" ~line:1 ~col:9 ~code:"L002";
    ]
  in
  let sorted = Tdat_lint.Finding.sort shuffled in
  let key (x : Tdat_lint.Finding.t) =
    Printf.sprintf "%s:%d:%d:%s" x.file x.line x.col x.code
  in
  Alcotest.(check (list string))
    "file, then line, then col, then code"
    [
      "a.ml:1:9:L002";
      "a.ml:2:1:L009";
      "a.ml:2:5:L001";
      "a.ml:2:5:L003";
      "b.ml:1:0:L001";
    ]
    (List.map key sorted)

let test_in_lib_path_forms () =
  let yes = [ "lib/pkt/trace.ml"; "./lib/x.ml"; "/repo/lib/core/a.ml";
              "_build/default/lib/obs/log.ml" ] in
  let no = [ "bin/tdat_cli.ml"; "library/x.ml"; "foo/liberty/x.ml";
             "test/fixtures/lint_bad.ml" ] in
  List.iter
    (fun p ->
      Alcotest.(check bool) (p ^ " is lib") true (Tdat_lint.Ident.in_lib p))
    yes;
  List.iter
    (fun p ->
      Alcotest.(check bool) (p ^ " is not lib") false (Tdat_lint.Ident.in_lib p))
    no

let suite =
  [
    Alcotest.test_case "bad fixture reports every code" `Quick
      test_bad_fixture_fails;
    Alcotest.test_case "findings carry locations" `Quick
      test_bad_fixture_findings_located;
    Alcotest.test_case "clean fixture passes" `Quick test_clean_fixture_passes;
    Alcotest.test_case "lib/ detected through absolute paths" `Quick
      test_lib_detection_absolute_path;
    Alcotest.test_case "non-lib paths skip library-only rules" `Quick
      test_non_lib_path_skips_lib_rules;
    Alcotest.test_case "same-line findings sorted by column" `Quick
      test_same_line_findings_sorted_by_col;
    Alcotest.test_case "output identical across --jobs" `Quick
      test_output_identical_across_jobs;
    Alcotest.test_case "L007: worker-reachable module ref" `Quick
      test_l007_worker_reachable_ref;
    Alcotest.test_case "L007: a Service.submit job is a worker entry" `Quick
      test_l007_service_submit;
    Alcotest.test_case "L007: allowlist suppression honored" `Quick
      test_l007_suppression_honored;
    Alcotest.test_case "L010: stale suppression reported" `Quick
      test_l010_stale_suppression_reported;
    Alcotest.test_case "L008: cross-module mutation" `Quick
      test_l008_cross_module_mutation;
    Alcotest.test_case "L009: --hot makes the binding hot" `Quick
      test_l009_hot_path;
    Alcotest.test_case "L009: silent outside the hot set" `Quick
      test_l009_silent_outside_hot_set;
    Alcotest.test_case "L009: default hot-list names exist" `Quick
      test_l009_hot_names_exist;
    Alcotest.test_case "L012: an export named only from test/" `Quick
      test_l012_test_only_use;
    Alcotest.test_case "L012: aliases, opens, functors, packs, allows" `Quick
      test_l012_silent_for_uses;
    Alcotest.test_case "L010: stale interface allow reported" `Quick
      test_l012_stale_allow;
    Alcotest.test_case "L011: malformed and dynamic names" `Quick
      test_l011_both_shapes_reported;
    Alcotest.test_case "L011: allow fence honored" `Quick
      test_l011_allow_fence_passes;
    Alcotest.test_case "--rules disables a rule" `Quick test_rules_disable;
    Alcotest.test_case "--rules rejects unknown ids" `Quick
      test_rules_unknown_id_is_usage_error;
    Alcotest.test_case "SARIF output shape" `Quick test_sarif_shape;
    Alcotest.test_case "JSON output shape" `Quick test_json_shape;
    Alcotest.test_case "Finding.compare is a total order" `Quick
      test_finding_compare_total_order;
    Alcotest.test_case "in_lib matches path components" `Quick
      test_in_lib_path_forms;
  ]
