module Json = Tdat_json.Json

type entry = { input : string; source : string; mismatches : int }

type index = {
  variant : string;
  control_name : string;
  candidate_name : string;
  tolerance : float;
  entries : entry list;
}

let index_file = "index.json"

(* --- writing -------------------------------------------------------------- *)

let copy_file src dst =
  In_channel.with_open_bin src (fun ic ->
      Out_channel.with_open_bin dst (fun oc ->
          let buf = Bytes.create 65536 in
          let rec go () =
            let n = In_channel.input ic buf 0 (Bytes.length buf) in
            if n > 0 then begin
              Out_channel.output oc buf 0 n;
              go ()
            end
          in
          go ()))

let write_string path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let entry_name i source = Printf.sprintf "%03d_%s" i (Filename.basename source)

let mismatch_json (m : Diff.entry) =
  Json.Obj
    [
      ("path", Json.Str m.Diff.path);
      ("kind", Json.Str (Diff.kind_name m.Diff.kind));
      ("control", Json.Str m.Diff.control);
      ("candidate", Json.Str m.Diff.candidate);
    ]

let diff_json (report : Engine.t) (r : Engine.file_result) =
  let v = report.Engine.variant in
  Json.Obj
    [
      ("variant", Json.Str v.Variant.name);
      ("control", Json.Str v.Variant.control_name);
      ("candidate", Json.Str v.Variant.candidate_name);
      ("tolerance", Json.Num report.Engine.tolerance);
      ("source", Json.Str r.Engine.file);
      ("fields_compared", Json.int r.Engine.fields);
      ("mismatches", Json.Arr (List.map mismatch_json r.Engine.mismatches));
    ]

let index_json (report : Engine.t) entries =
  let v = report.Engine.variant in
  Json.Obj
    [
      ("variant", Json.Str v.Variant.name);
      ("control", Json.Str v.Variant.control_name);
      ("candidate", Json.Str v.Variant.candidate_name);
      ("tolerance", Json.Num report.Engine.tolerance);
      ("total_fields", Json.int report.Engine.total_fields);
      ( "total_mismatches",
        Json.int report.Engine.total_mismatches );
      ( "entries",
        Json.Arr
          (List.map
             (fun e ->
               Json.Obj
                 [
                   ("input", Json.Str e.input);
                   ("diff", Json.Str (e.input ^ ".diff.json"));
                   ("source", Json.Str e.source);
                   ("mismatches", Json.int e.mismatches);
                 ])
             entries) );
    ]

let write ~dir (report : Engine.t) =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let entries =
    List.mapi
      (fun i (r : Engine.file_result) ->
        let name = entry_name i r.Engine.file in
        copy_file r.Engine.file (Filename.concat dir name);
        write_string
          (Filename.concat dir (name ^ ".diff.json"))
          (Json.to_string (diff_json report r));
        {
          input = name;
          source = r.Engine.file;
          mismatches = List.length r.Engine.mismatches;
        })
      (Engine.mismatching report)
  in
  write_string
    (Filename.concat dir index_file)
    (Json.to_string (index_json report entries));
  List.length entries

(* --- reading / replay ------------------------------------------------------ *)

let read_index ~dir =
  let path = Filename.concat dir index_file in
  if not (Sys.file_exists path) then
    Error (Printf.sprintf "%s: no %s (not a mismatch corpus?)" dir index_file)
  else
    let data = In_channel.with_open_bin path In_channel.input_all in
    match Json.parse data with
    | Error e -> Error (Printf.sprintf "%s: %s" path e)
    | Ok doc -> (
        let str k = Option.bind (Json.member k doc) Json.to_string_opt in
        let entry j =
          match
            ( Option.bind (Json.member "input" j) Json.to_string_opt,
              Option.bind (Json.member "source" j) Json.to_string_opt,
              Option.bind (Json.member "mismatches" j) Json.to_int_opt )
          with
          | Some input, Some source, Some mismatches ->
              Some { input; source; mismatches }
          | _ -> None
        in
        match
          ( str "variant",
            str "control",
            str "candidate",
            Option.bind (Json.member "tolerance" doc) Json.to_float_opt,
            Option.bind (Json.member "entries" doc) Json.to_list_opt )
        with
        | Some variant, Some control_name, Some candidate_name, Some tolerance,
          Some entry_docs -> (
            let entries = List.filter_map entry entry_docs in
            if List.length entries <> List.length entry_docs then
              Error (Printf.sprintf "%s: malformed entry in manifest" path)
            else
              Ok { variant; control_name; candidate_name; tolerance; entries })
        | _ -> Error (Printf.sprintf "%s: missing required index fields" path))

let replay ?jobs ?tolerance ~dir () =
  match read_index ~dir with
  | Error _ as e -> e
  | Ok idx -> (
      match Variant.find idx.variant with
      | None ->
          Error
            (Printf.sprintf
               "corpus was captured by variant %S, which this build does not \
                register"
               idx.variant)
      | Some v ->
          let tolerance =
            match tolerance with Some t -> t | None -> idx.tolerance
          in
          let files =
            List.map (fun e -> Filename.concat dir e.input) idx.entries
          in
          Ok (Engine.run ?jobs ~tolerance v ~files))
