module Json = Tdat_json.Json

let diag_json (d : Tdat_audit.Diag.t) =
  Json.Obj
    [
      ("code", Json.Str d.Tdat_audit.Diag.code);
      ( "severity",
        Json.Str (Tdat_audit.Diag.severity_name d.Tdat_audit.Diag.severity) );
      ("subject", Json.Str d.Tdat_audit.Diag.subject);
      ("message", Json.Str d.Tdat_audit.Diag.message);
    ]

let file_json (r : Engine.file_result) =
  Json.Obj
    [
      ("file", Json.Str r.Engine.file);
      ("fields_compared", Json.int r.Engine.fields);
      ("errors", Json.Bool r.Engine.errors);
      ("mismatches", Json.Arr (List.map Corpus.mismatch_json r.Engine.mismatches));
    ]

let to_json (t : Engine.t) =
  let v = t.Engine.variant in
  Json.to_string
    (Json.Obj
       [
         ("variant", Json.Str v.Variant.name);
         ("input", Json.Str (Variant.kind_name v.Variant.input));
         ("control", Json.Str v.Variant.control_name);
         ("candidate", Json.Str v.Variant.candidate_name);
         ("tolerance", Json.Num t.Engine.tolerance);
         ("files_compared", Json.int (List.length t.Engine.files));
         ("total_fields", Json.int t.Engine.total_fields);
         ( "total_mismatches",
           Json.int t.Engine.total_mismatches );
         ("files", Json.Arr (List.map file_json t.Engine.files));
         ("audit", Json.Arr (List.map diag_json t.Engine.audit));
       ])

let to_text (t : Engine.t) =
  let v = t.Engine.variant in
  let buf = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s;
                                   Buffer.add_char buf '\n') fmt in
  line "experiment %s (%s): control=%s candidate=%s" v.Variant.name
    (Variant.kind_name v.Variant.input)
    v.Variant.control_name v.Variant.candidate_name;
  line "  files=%d fields=%d mismatches=%d tolerance=%s"
    (List.length t.Engine.files)
    t.Engine.total_fields t.Engine.total_mismatches
    (Tdat_json.Canon.to_string t.Engine.tolerance);
  List.iter
    (fun (r : Engine.file_result) ->
      if r.Engine.mismatches <> [] then begin
        line "  MISMATCH %s (%d/%d fields%s):" r.Engine.file
          (List.length r.Engine.mismatches)
          r.Engine.fields
          (if r.Engine.errors then ", side error" else "");
        List.iter
          (fun (m : Diff.entry) ->
            line "    %s: %s control=%s candidate=%s" m.Diff.path
              (Diff.kind_name m.Diff.kind)
              m.Diff.control m.Diff.candidate)
          r.Engine.mismatches
      end)
    t.Engine.files;
  List.iter
    (fun (d : Tdat_audit.Diag.t) ->
      line "  AUDIT %s %s: %s" d.Tdat_audit.Diag.code
        d.Tdat_audit.Diag.subject d.Tdat_audit.Diag.message)
    t.Engine.audit;
  line "  verdict: %s"
    (if t.Engine.total_mismatches = 0 && t.Engine.audit = [] then
       "EQUIVALENT"
     else "DIVERGED");
  Buffer.contents buf
