(* The lint driver: walk the roots, parse and scan every [.ml] file on
   the Domain pool, run the whole-repo passes over the merged index,
   apply suppressions, and return deterministically sorted findings.

   Self-measurement goes through [Tdat_obs]: stable counters for file /
   finding totals (identical across [--jobs] values) and spans around
   the scan and reach stages for [--trace]. *)

module Obs = Tdat_obs
module Pool = Tdat_parallel.Pool

type config = {
  roots : string list;
  treat_as_lib : bool;
  jobs : int option;
  selection : Registry.selection;
  extra_hot : (string * Rules_file.hot_scope) list;
}

let default_config =
  {
    roots = [ "lib"; "bin"; "bench"; "examples" ];
    treat_as_lib = false;
    jobs = None;
    selection = Registry.default_selection;
    extra_hot = [];
  }

type outcome = { findings : Finding.t list; files_scanned : int }

let files_scanned_c = Obs.Metrics.Counter.make "lint.files_scanned"
let findings_c = Obs.Metrics.Counter.make "lint.findings"
let parse_errors_c = Obs.Metrics.Counter.make "lint.parse_errors"

(* --- file discovery ------------------------------------------------------- *)

let rec ml_files_under path =
  if not (Sys.file_exists path) then []
  else if Sys.is_directory path then
    Sys.readdir path |> Array.to_list
    |> List.filter (fun n ->
           String.length n > 0 && n.[0] <> '.' && not (String.equal n "_build"))
    |> List.sort String.compare
    |> List.concat_map (fun n -> ml_files_under (Filename.concat path n))
  else if Filename.check_suffix path ".ml" then [ path ]
  else []

(* --- parsing -------------------------------------------------------------- *)

(* compiler-libs keeps lexer state in module-level mutable tables —
   precisely the shape L007 exists to catch — so parsing is serialized
   across the pool even though everything downstream of the parsetree
   is embarrassingly parallel. *)
let parse_mutex = Mutex.create ()

let read_parse parse file =
  match In_channel.with_open_bin file In_channel.input_all with
  | exception Sys_error msg -> Error (Printf.sprintf "cannot read file: %s" msg)
  | src -> (
      let lexbuf = Lexing.from_string src in
      Lexing.set_filename lexbuf file;
      match Mutex.protect parse_mutex (fun () -> parse lexbuf) with
      | ast -> Ok ast
      | exception exn ->
          Error (Printf.sprintf "parse error: %s" (Printexc.to_string exn)))

let parse_error ~file msg =
  Obs.Metrics.Counter.incr parse_errors_c;
  Finding.v ~file ~line:1 ~col:0 ~code:"L000"
    ~severity:(Registry.severity_of "L000") msg

(* --- per-file scan -------------------------------------------------------- *)

type scan = {
  sc_findings : Finding.t list;
  sc_supps : Suppress.t list;
  sc_index : Module_index.t option;
  sc_exports : Exports.t option;
}

(* A library file's interface, when it has one: its parsed signature,
   or the L000 finding that replaces it. *)
let read_interface ~in_lib file =
  let mli = file ^ "i" in
  if not (in_lib && Sys.file_exists mli) then (None, [], [])
  else
    match read_parse Parse.interface mli with
    | Error msg -> (None, [], [ parse_error ~file:mli msg ])
    | Ok sg -> (Some sg, Suppress.collect_signature ~file:mli sg, [])

let scan_file ~enabled ~treat_as_lib ~hot_paths file =
  Obs.Metrics.Counter.incr files_scanned_c;
  match read_parse Parse.implementation file with
  | Error msg ->
      {
        sc_findings = [ parse_error ~file msg ];
        sc_supps = [];
        sc_index = None;
        sc_exports = None;
      }
  | Ok str ->
      let in_lib = treat_as_lib || Ident.in_lib file in
      let module_name = Ident.module_of_path file in
      let sg, sig_supps, sig_errors = read_interface ~in_lib file in
      {
        sc_findings =
          sig_errors
          @ Rules_file.check ~enabled ~in_lib ~hot_paths ~module_name str;
        sc_supps = Suppress.collect ~file str @ sig_supps;
        sc_index = Some (Module_index.of_structure ~file ~in_lib str);
        sc_exports = Some (Exports.of_file ~file ~exports:sg str);
      }

(* --- driver --------------------------------------------------------------- *)

let run cfg =
  let enabled = Registry.enabled cfg.selection in
  (* extras first so [--hot] can shadow a default entry for the same
     module *)
  let hot_paths = cfg.extra_hot @ Rules_file.default_hot_paths in
  let files =
    List.concat_map ml_files_under cfg.roots |> List.sort_uniq String.compare
  in
  let scans =
    Obs.Span.with_ ~name:"lint-scan" (fun () ->
        Pool.with_pool ?jobs:cfg.jobs (fun pool ->
            Pool.map pool
              (scan_file ~enabled ~treat_as_lib:cfg.treat_as_lib ~hot_paths)
              files))
  in
  let per_file = List.concat_map (fun s -> s.sc_findings) scans in
  let indexes = List.filter_map (fun s -> s.sc_index) scans in
  let repo =
    Obs.Span.with_ ~name:"lint-reach" (fun () -> Reach.check ~enabled indexes)
  in
  let exports =
    if enabled "L012" then
      Exports.check (List.filter_map (fun s -> s.sc_exports) scans)
    else []
  in
  let supps = List.concat_map (fun s -> s.sc_supps) scans in
  let kept = Suppress.apply supps (per_file @ repo @ exports) in
  (* A suppression of a reachability rule (L007/L008) only counts as
     unused when the scan could actually have produced that rule's
     findings — i.e. some pool entry point was in scope.  Otherwise a
     partial scan (tdat-lint lib/obs) would flag every L007 allowlist
     as stale.  An L012 allow sits on the very export it covers, so
     whenever its interface was read it could have fired. *)
  let have_entries =
    List.exists (fun ix -> ix.Module_index.i_entries <> []) indexes
  in
  let countable code =
    enabled code
    && (have_entries
       ||
       String.equal code "L012"
       ||
       match Registry.find code with
       | Some { Registry.pass = Registry.Whole_repo; _ } -> false
       | Some _ | None -> true)
  in
  let unused =
    if enabled "L010" then
      Suppress.unused_findings ~rule_was_enabled:countable supps
    else []
  in
  let findings = Finding.sort (kept @ unused) in
  Obs.Metrics.Counter.add findings_c (List.length findings);
  { findings; files_scanned = List.length files }
