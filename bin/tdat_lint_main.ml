(* tdat-lint: the thin CLI over Tdat_lint.Engine.  All rule logic lives
   in lib/lint; this shell only parses flags, picks an emitter and maps
   the outcome to an exit code (0 clean, 1 findings, 2 usage error). *)

open Cmdliner
module L = Tdat_lint

let treat_as_lib_arg =
  let doc =
    "Apply the library-only rules (L005-L007, L012) to every given file, not \
     just those under a lib/ directory.  Used by the test fixtures."
  in
  Arg.(value & flag & info [ "treat-as-lib" ] ~doc)

let format_arg =
  let doc = "Output format: $(b,text), $(b,json) or $(b,sarif) (2.1.0)." in
  Arg.(
    value
    & opt (enum [ ("text", `Text); ("json", `Json); ("sarif", `Sarif) ]) `Text
    & info [ "format" ] ~docv:"FMT" ~doc)

let rules_arg =
  let doc =
    "Adjust the enabled rule set with comma-separated clauses applied left \
     to right: $(b,+L007) enables, $(b,-L003) disables, a bare id enables.  \
     Starts from the default set (every rule)."
  in
  Arg.(value & opt string "" & info [ "rules" ] ~docv:"SPEC" ~doc)

let jobs_arg =
  let doc =
    "Scan files on $(docv) domains (default: the runtime's recommended \
     domain count).  Output is byte-identical for every value."
  in
  Arg.(value & opt (some int) None & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let hot_arg =
  let doc =
    "Add a hot path for L009: $(b,MOD) makes every top-level binding of \
     module MOD hot, $(b,MOD.FN) just the named binding.  Repeatable; \
     extends the built-in pcap/MRT/Span_set/Trace set."
  in
  Arg.(value & opt_all string [] & info [ "hot" ] ~docv:"MOD[.FN]" ~doc)

let paths_arg =
  let doc = "Files or directories to lint (default: lib bin bench examples)." in
  Arg.(value & pos_all string [] & info [] ~docv:"PATH" ~doc)

(* Merge repeated --hot values: a bare module wins over any of its
   function entries; function entries for one module accumulate. *)
let parse_hots specs =
  List.fold_left
    (fun acc spec ->
      let modname, scope =
        match String.index_opt spec '.' with
        | None -> (spec, L.Rules_file.All)
        | Some i ->
            ( String.sub spec 0 i,
              L.Rules_file.Funcs
                [ String.sub spec (i + 1) (String.length spec - i - 1) ] )
      in
      let modname = String.capitalize_ascii modname in
      match (List.assoc_opt modname acc, scope) with
      | None, s -> acc @ [ (modname, s) ]
      | Some L.Rules_file.All, _ -> acc
      | Some (L.Rules_file.Funcs _), L.Rules_file.All ->
          (modname, L.Rules_file.All) :: List.remove_assoc modname acc
      | Some (L.Rules_file.Funcs old), L.Rules_file.Funcs add ->
          (modname, L.Rules_file.Funcs (old @ add))
          :: List.remove_assoc modname acc)
    [] specs

let main treat_as_lib format rules jobs hots paths =
  match L.Registry.apply_spec rules with
  | Error msg ->
      Printf.eprintf "tdat-lint: %s\n%!" msg;
      2
  | Ok selection ->
      let roots =
        match paths with [] -> L.Engine.default_config.roots | ps -> ps
      in
      let cfg =
        {
          L.Engine.roots;
          treat_as_lib;
          jobs;
          selection;
          extra_hot = parse_hots hots;
        }
      in
      let { L.Engine.findings; files_scanned } = L.Engine.run cfg in
      print_string
        (match format with
        | `Text -> L.Emit.text findings
        | `Json -> L.Emit.json ~files_scanned findings
        | `Sarif -> L.Emit.sarif findings);
      if findings = [] then (
        Printf.eprintf "tdat-lint: %d files clean\n%!" files_scanned;
        0)
      else (
        Printf.eprintf "tdat-lint: %d finding(s) in %d file(s)\n%!"
          (List.length findings)
          (List.length
             (List.sort_uniq String.compare
                (List.map (fun (f : L.Finding.t) -> f.file) findings)));
        1)

let cmd =
  let doc = "static analysis for the tdat repository" in
  let info = Cmd.info "tdat-lint" ~doc in
  Cmd.v info
    Term.(
      const main $ treat_as_lib_arg $ format_arg $ rules_arg $ jobs_arg
      $ hot_arg $ paths_arg)

let () = exit (Cmd.eval' cmd)
