(* Report emitters.  JSON and SARIF are built as documents and written
   by the shared codec (Tdat_json.Json), so escaping is complete and the
   output valid by construction; the SARIF output targets the 2.1.0
   schema with the minimal shape CI viewers need: tool.driver.rules
   metadata from the registry plus one result per finding. *)

module Json = Tdat_json.Json

let document doc = Json.to_string doc ^ "\n"

(* --- text ----------------------------------------------------------------- *)

let text findings =
  let b = Buffer.create 1024 in
  List.iter
    (fun f ->
      Buffer.add_string b (Finding.to_line f);
      Buffer.add_char b '\n')
    findings;
  Buffer.contents b

(* --- json ----------------------------------------------------------------- *)

let json ~files_scanned findings =
  let finding (f : Finding.t) =
    Json.Obj
      [
        ("file", Json.Str f.file);
        ("line", Json.int f.line);
        ("col", Json.int f.col);
        ("code", Json.Str f.code);
        ("severity", Json.Str (Finding.severity_name f.severity));
        ("message", Json.Str f.message);
      ]
  in
  document
    (Json.Obj
       [
         ("tool", Json.Str "tdat-lint");
         ("files_scanned", Json.int files_scanned);
         ("findings", Json.Arr (List.map finding findings));
       ])

(* --- sarif ---------------------------------------------------------------- *)

let sarif_level = function
  | Finding.Error -> "error"
  | Finding.Warning -> "warning"

let sarif_uri file =
  String.map (fun c -> if c = '\\' then '/' else c) file

let text_obj s = Json.Obj [ ("text", Json.Str s) ]

let sarif findings =
  let rules = Registry.all in
  let rule_index id =
    let rec go i = function
      | [] -> None
      | (r : Registry.rule) :: rest ->
          if String.equal r.id id then Some i else go (i + 1) rest
    in
    go 0 rules
  in
  let rule (r : Registry.rule) =
    Json.Obj
      [
        ("id", Json.Str r.id);
        ("shortDescription", text_obj r.summary);
        ("fullDescription", text_obj r.doc);
        ( "defaultConfiguration",
          Json.Obj [ ("level", Json.Str (sarif_level r.severity)) ] );
      ]
  in
  let result (f : Finding.t) =
    let location =
      Json.Obj
        [
          ( "physicalLocation",
            Json.Obj
              [
                ( "artifactLocation",
                  Json.Obj [ ("uri", Json.Str (sarif_uri f.file)) ] );
                ( "region",
                  Json.Obj
                    [
                      ("startLine", Json.int (max 1 f.line));
                      (* findings carry 0-based columns; SARIF's are 1-based *)
                      ("startColumn", Json.int (f.col + 1));
                    ] );
              ] );
        ]
    in
    Json.Obj
      ([ ("ruleId", Json.Str f.code) ]
      @ (match rule_index f.code with
        | Some idx -> [ ("ruleIndex", Json.int idx) ]
        | None -> [])
      @ [
          ("level", Json.Str (sarif_level f.severity));
          ("message", text_obj f.message);
          ("locations", Json.Arr [ location ]);
        ])
  in
  let driver =
    Json.Obj
      [
        ("name", Json.Str "tdat-lint");
        ("informationUri", Json.Str "https://example.invalid/tdat");
        ("rules", Json.Arr (List.map rule rules));
      ]
  in
  document
    (Json.Obj
       [
         ("$schema", Json.Str "https://json.schemastore.org/sarif-2.1.0.json");
         ("version", Json.Str "2.1.0");
         ( "runs",
           Json.Arr
             [
               Json.Obj
                 [
                   ("tool", Json.Obj [ ("driver", driver) ]);
                   ("results", Json.Arr (List.map result findings));
                 ];
             ] );
       ])
