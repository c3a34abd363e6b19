type file_result = {
  file : string;
  fields : int;
  mismatches : Diff.entry list;
  errors : bool;
}

type t = {
  variant : Variant.t;
  tolerance : float;
  files : file_result list;
  total_fields : int;
  total_mismatches : int;
  audit : Tdat_audit.Diag.t list;
}

let mismatching t = List.filter (fun f -> f.mismatches <> []) t.files

module M = Tdat_obs.Metrics

(* Stable: the comparison outcome is deterministic across jobs, so these
   belong in the byte-identical (A007) metrics snapshot. *)
let c_files = M.Counter.make ~stable:true "experiment.files_compared"
let c_fields = M.Counter.make ~stable:true "experiment.fields_compared"
let c_mismatches = M.Counter.make ~stable:true "experiment.mismatches"
let c_errors = M.Counter.make "experiment.side_errors"

let is_error_doc = function
  | Tdat_json.Json.Obj [ ("error", _) ] -> true
  | _ -> false

let side run path =
  match run path with
  | doc -> doc
  | exception e ->
      M.Counter.incr c_errors;
      Doc.error_doc e

let compare_file (v : Variant.t) ~tolerance file =
  Tdat_obs.Span.with_ ~name:"experiment.compare" (fun () ->
      let control = side v.Variant.control file in
      let candidate = side v.Variant.candidate file in
      let mismatches, fields = Diff.run ~tolerance ~control ~candidate () in
      M.Counter.incr c_files;
      M.Counter.add c_fields fields;
      M.Counter.add c_mismatches (List.length mismatches);
      {
        file;
        fields;
        mismatches;
        errors = is_error_doc control || is_error_doc candidate;
      })

let run ?jobs ?(tolerance = 0.) (v : Variant.t) ~files =
  let files = List.sort_uniq String.compare files in
  let results =
    Tdat_parallel.Pool.with_pool ?jobs (fun pool ->
        (* One file per chunk: corpus files dwarf the dequeue cost and
           their sizes are uneven, so balance beats amortization. *)
        Tdat_parallel.Pool.map ~chunk:1 pool
          (compare_file v ~tolerance)
          files)
  in
  let total_fields = List.fold_left (fun a r -> a + r.fields) 0 results in
  let total_mismatches =
    List.fold_left (fun a r -> a + List.length r.mismatches) 0 results
  in
  let audit =
    Tdat_audit.Checks.experiment_consistent ~subject:v.Variant.name
      ~files:
        (List.map (fun r -> (r.file, r.fields, List.length r.mismatches)) results)
      ~total_fields ~total_mismatches ()
  in
  { variant = v; tolerance; files = results; total_fields; total_mismatches;
    audit }
