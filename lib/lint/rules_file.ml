(* The per-file, purely syntactic rules: L001-L006 (ported from the
   original single-file linter) plus the L009 allocation lint.  Each
   pass works on one parsetree in isolation and returns its findings —
   no module-level state, so the engine can farm files to pool workers
   (the linter must satisfy its own L007). *)

(* The measurement-study layer (lib/study) adds [Transfer] (detected
   table transfers, ordered by [Transfer.compare]) and [Mrt] (archive
   records and FSM states, [Mrt.equal_fsm_state]) to the fence. *)
let fenced_modules =
  [
    "Time_us"; "Span"; "Span_set"; "Series"; "Transfer_id"; "Flow";
    "Endpoint"; "Prefix"; "As_path"; "Attr"; "Factors"; "Series_defs";
    "Transfer"; "Mrt";
  ]

(* Factor-taxonomy constructors counted as evidence that a [match]
   scrutinizes [Factors.factor].  The [*_local_loss] / [Network_loss]
   names are shared with [Series_defs.t], where a catch-all over the 34
   series is legitimate, so only the unambiguous five count when
   unqualified; any constructor qualified with [Factors] counts. *)
let factor_constructors_unambiguous =
  [ "Bgp_sender_app"; "Tcp_cwnd"; "Bgp_receiver_app"; "Tcp_adv_window";
    "Bandwidth" ]

let qualified_with_fenced lid =
  match Ident.last_module lid with
  | Some m -> List.mem m fenced_modules
  | None -> false

(* --- L001: polymorphic compare ------------------------------------------- *)

let is_poly_compare local_compare lid =
  match lid with
  | Longident.Lident "compare" -> not local_compare
  | Longident.Ldot (Longident.Lident "Stdlib", "compare") -> true
  | _ -> false

(* --- L006: direct stderr printing in library code ------------------------- *)

let is_stderr_print lid =
  match lid with
  | Longident.Lident ("prerr_endline" | "prerr_string" | "prerr_newline")
  | Longident.Ldot
      ( Longident.Lident "Stdlib",
        ("prerr_endline" | "prerr_string" | "prerr_newline") ) ->
      true
  | _ -> (
      match (Ident.last_module lid, Ident.name lid) with
      | Some ("Printf" | "Format"), Some "eprintf" -> true
      | _ -> false)

(* --- L002: polymorphic equality on fenced abstract values ----------------- *)

(* An operand counts as "abstract" when it is, or directly wraps, a value
   or constructor qualified with a fenced module: [Time_us.zero],
   [Factors.Tcp_cwnd], [Some Factors.Sender]. *)
let rec fenced_operand (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> qualified_with_fenced txt
  | Pexp_construct ({ txt; _ }, arg) ->
      qualified_with_fenced txt
      || (match arg with Some a -> fenced_operand a | None -> false)
  | _ -> false

let rec fenced_operand_name (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } when qualified_with_fenced txt ->
      Option.value (Ident.last_module txt) ~default:"the module"
  | Pexp_construct ({ txt; _ }, arg) -> (
      if qualified_with_fenced txt then
        Option.value (Ident.last_module txt) ~default:"the module"
      else
        match arg with
        | Some a -> fenced_operand_name a
        | None -> "the module")
  | _ -> "the module"

(* --- L003: float-literal equality ----------------------------------------- *)

let is_float_literal (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float _) -> true
  | _ -> false

(* --- L004: catch-all over the factor taxonomy ----------------------------- *)

let rec pattern_constructors (p : Parsetree.pattern) acc =
  match p.ppat_desc with
  | Ppat_construct ({ txt; _ }, arg) ->
      let acc =
        match Ident.name txt with
        | Some n ->
            let qualified_factors =
              match Ident.last_module txt with
              | Some "Factors" -> true
              | _ -> false
            in
            if qualified_factors || List.mem n factor_constructors_unambiguous
            then n :: acc
            else acc
        | None -> acc
      in
      (match arg with Some (_, a) -> pattern_constructors a acc | None -> acc)
  | Ppat_or (a, b) -> pattern_constructors a (pattern_constructors b acc)
  | Ppat_alias (a, _) -> pattern_constructors a acc
  | Ppat_tuple ps ->
      List.fold_left (fun acc p -> pattern_constructors p acc) acc ps
  | Ppat_constraint (a, _) -> pattern_constructors a acc
  | _ -> acc

let rec is_catch_all (p : Parsetree.pattern) =
  match p.ppat_desc with
  | Ppat_any | Ppat_var _ -> true
  | Ppat_alias (a, _) | Ppat_constraint (a, _) -> is_catch_all a
  | _ -> false

(* --- L011: metric/span names ---------------------------------------------- *)

(* The observability APIs whose name argument becomes a grep target, a
   registry key and (mangled) a Prometheus series name.  [`Positional]
   means the name is the last unlabelled argument (Counter.make
   ~registry:r "x"); [`Labelled] means it arrives as [~name]. *)
let obs_name_target lid =
  match (Ident.last_module lid, Ident.name lid) with
  | Some ("Counter" | "Gauge" | "Histogram"), Some "make" -> Some `Positional
  | Some "Span", Some ("with_" | "timed") -> Some `Labelled
  | Some "Tracer", Some ("begin_span" | "end_span") -> Some `Positional
  | Some "Tracer", Some "complete_span" -> Some `Labelled
  | _ -> None

(* ^[a-z][a-z0-9]*([._-][a-z0-9]+)*$ — lowercase alnum words joined by
   single '.', '_' or '-' separators. *)
let valid_obs_name s =
  let n = String.length s in
  let is_lower c = c >= 'a' && c <= 'z' in
  let is_alnum c = is_lower c || (c >= '0' && c <= '9') in
  let is_sep c = c = '.' || c = '_' || c = '-' in
  if n = 0 || not (is_lower s.[0]) then false
  else begin
    let ok = ref true in
    for i = 1 to n - 1 do
      let c = s.[i] in
      if is_alnum c then ()
      else if is_sep c then begin
        if i = n - 1 || not (is_alnum s.[i - 1]) || not (is_alnum s.[i + 1])
        then ok := false
      end
      else ok := false
    done;
    !ok
  end

let obs_name_arg kind args =
  match kind with
  | `Labelled ->
      List.find_map
        (fun (label, a) ->
          match label with
          | Asttypes.Labelled "name" -> Some a
          | _ -> None)
        args
  | `Positional ->
      List.fold_left
        (fun acc (label, a) ->
          match label with Asttypes.Nolabel -> Some a | _ -> acc)
        None args

(* --- L009: allocation-heavy idioms in hot paths --------------------------- *)

type hot_scope = All | Funcs of string list

(* The allocation-light refactor's protected set (ROADMAP "make
   parallelism actually win"): streaming pcap/MRT decode, the Span_set
   kernels, and the single-pass connection partitioner.  Encode paths
   and once-per-file result assembly are deliberately outside the set. *)
let default_hot_paths =
  [
    ( "Pcap",
      Funcs [ "skip"; "scan_options"; "decode_frame"; "ensure";
              "count_records"; "read_records" ] );
    ( "Mrt",
      Funcs [ "parse_body"; "frame"; "refill"; "fold_input"; "summary_input";
              "fold_file"; "fold_summary_file" ] );
    (* The one BGP message validator, run per record by the study scan
       and per message by the streaming MCT scan. *)
    ( "Msg",
      Funcs [ "validate"; "header_length"; "check_body"; "check_prefixes";
              "marker_length"; "walk_body"; "walk_prefixes"; "walk_attrs";
              "walk_as_path" ] );
    ("Detect", Funcs [ "observe"; "peer"; "update"; "anchor"; "close" ]);
    ("Span_set", All);
    ( "Trace",
      Funcs [ "conn_key"; "connection_ids"; "connection_subtraces"; "gather" ]
    );
    ("Slice", All);
    ( "Series_gen",
      Funcs [ "series_of_spans"; "flight_series"; "generate_from"; "generate" ]
    );
    ("Pool", Funcs [ "map"; "exec_chunk"; "drain" ]);
    (* The serve daemon's per-byte request loop: framing, socket
       shuffling and outbox routing run once per select wake-up. *)
    ( "Server",
      Funcs [ "conn_lines"; "handle_readable"; "flush_conn"; "drain_outbox";
              "reap" ] );
    ("Ingest_io", Funcs [ "of_read"; "retry_eintr"; "follow_read" ]);
  ]

(* (last qualifying module, ident) pairs whose minor-heap appetite is the
   reason jobs>1 loses to GC sync (BENCH_SPEED.json). *)
let heavy_ident lid =
  match (Ident.last_module lid, Ident.name lid) with
  | None, Some "@" -> Some "list append (@)"
  | Some "List", Some (("append" | "map" | "mapi" | "concat" | "concat_map"
                       | "flatten") as f) ->
      Some ("List." ^ f)
  | Some "String", Some "concat" -> Some "String.concat"
  | Some "Printf", Some "sprintf" -> Some "Printf.sprintf"
  | Some "Format", Some ("asprintf" | "kasprintf") -> Some "Format.asprintf"
  | Some "Fun", Some "flip" -> Some "Fun.flip"
  | _ -> None

let hot_scope_of hot_paths module_name =
  List.assoc_opt module_name hot_paths

let binding_is_hot scope name =
  match scope with
  | None -> false
  | Some All -> true
  | Some (Funcs fs) -> List.exists (String.equal name) fs

(* --- file scan ------------------------------------------------------------ *)

let toplevel_value_names (str : Parsetree.structure) =
  let names = ref [] in
  let rec pat_names (p : Parsetree.pattern) =
    match p.ppat_desc with
    | Ppat_var { txt; _ } -> names := txt :: !names
    | Ppat_alias (a, { txt; _ }) ->
        names := txt :: !names;
        pat_names a
    | Ppat_tuple ps -> List.iter pat_names ps
    | Ppat_constraint (a, _) -> pat_names a
    | _ -> ()
  in
  List.iter
    (fun (item : Parsetree.structure_item) ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) ->
          List.iter
            (fun (vb : Parsetree.value_binding) -> pat_names vb.pvb_pat)
            vbs
      | _ -> ())
    str;
  !names

let check ~enabled ~in_lib ~hot_paths ~module_name (str : Parsetree.structure) =
  let findings = ref [] in
  let report ~loc ~code message =
    if enabled code then
      findings :=
        Finding.of_loc loc ~code ~severity:(Registry.severity_of code) message
        :: !findings
  in
  let check_factor_match cases =
    let evidence =
      List.concat_map
        (fun (c : Parsetree.case) -> pattern_constructors c.pc_lhs [])
        cases
    in
    if evidence <> [] then
      List.iter
        (fun (c : Parsetree.case) ->
          if is_catch_all c.pc_lhs then
            report ~loc:c.pc_lhs.ppat_loc ~code:"L004"
              (Printf.sprintf
                 "catch-all branch in a match over the delay-factor taxonomy \
                  (saw %s); enumerate every Factors constructor so new \
                  factors cannot be silently mis-attributed"
                 (String.concat ", " (List.sort_uniq String.compare evidence))))
        cases
  in
  let local_compare = List.mem "compare" (toplevel_value_names str) in
  let super = Ast_iterator.default_iterator in
  let check_obs_name (e : Parsetree.expression) =
    match e.pexp_desc with
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) -> (
        match obs_name_target txt with
        | None -> ()
        | Some kind -> (
            match obs_name_arg kind args with
            | None -> ()
            | Some
                {
                  Parsetree.pexp_desc = Pexp_constant (Pconst_string (s, _, _));
                  pexp_loc;
                  _;
                } ->
                if not (valid_obs_name s) then
                  report ~loc:pexp_loc ~code:"L011"
                    (Printf.sprintf
                       "metric/span name %S is not lowercase snake-case \
                        (^[a-z][a-z0-9]*([._-][a-z0-9]+)*$); fix the name so \
                        it greps and mangles cleanly"
                       s)
            | Some a ->
                report ~loc:a.Parsetree.pexp_loc ~code:"L011"
                  "metric/span name built dynamically; pass a literal \
                   lowercase snake-case string so every series/span name \
                   is greppable and the Prometheus exposition stays stable"))
    | _ -> ()
  in
  let expr iter (e : Parsetree.expression) =
    check_obs_name e;
    (match e.pexp_desc with
    | Pexp_ident { txt; loc } when is_poly_compare local_compare txt ->
        report ~loc ~code:"L001"
          "polymorphic compare; use the value's own ordering \
           (Int.compare, Time_us.compare, Span.compare, ...)"
    | Pexp_ident { txt = Longident.Lident "failwith"; loc } when in_lib ->
        report ~loc ~code:"L005"
          "bare failwith in library code; raise a typed exception \
           (e.g. Bgp_error.Decode_error) so callers can match on it"
    | Pexp_ident
        { txt = Longident.Ldot (Longident.Lident "Stdlib", "failwith"); loc }
      when in_lib ->
        report ~loc ~code:"L005"
          "bare failwith in library code; raise a typed exception \
           (e.g. Bgp_error.Decode_error) so callers can match on it"
    | Pexp_ident { txt; loc } when in_lib && is_stderr_print txt ->
        report ~loc ~code:"L006"
          "direct stderr printing in library code; route diagnostics \
           through Tdat_obs.Log (warn/info/debug) so --log-level \
           filters them uniformly"
    | Pexp_apply
        ( { pexp_desc = Pexp_ident { txt = Longident.Lident (("=" | "<>") as op); _ };
            pexp_loc = oploc;
            _ },
          [ (_, lhs); (_, rhs) ] ) ->
        if is_float_literal lhs || is_float_literal rhs then
          report ~loc:oploc ~code:"L003"
            (Printf.sprintf
               "float (%s) against a literal; compare with a tolerance or \
                use Float.equal deliberately"
               op)
        else if fenced_operand lhs || fenced_operand rhs then
          let m =
            if fenced_operand lhs then fenced_operand_name lhs
            else fenced_operand_name rhs
          in
          report ~loc:oploc ~code:"L002"
            (Printf.sprintf
               "polymorphic (%s) on an abstract %s value; use %s.equal (or \
                a dedicated equal_* function)"
               op m m)
    | Pexp_match (_, cases) -> check_factor_match cases
    | Pexp_function cases -> check_factor_match cases
    | _ -> ());
    super.expr iter e
  in
  let iter = { super with expr } in
  iter.structure iter str;
  (* L009: scan the bodies of hot top-level bindings (and everything
     nested in them) for allocation-heavy idioms.  Submodule blocks are
     matched against the hot-path table under their own name. *)
  let scan_hot ~owner (e : Parsetree.expression) =
    let hexpr hiter (e : Parsetree.expression) =
      (match e.pexp_desc with
      | Pexp_ident { txt; loc } -> (
          match heavy_ident txt with
          | Some what ->
              report ~loc ~code:"L009"
                (Printf.sprintf
                   "allocation-heavy %s in hot path %s; build into a \
                    pre-sized array or Buffer (or hoist the cold branch \
                    into a helper outside the hot set)"
                   what owner)
          | None -> ())
      | _ -> ());
      super.expr hiter e
    in
    let hiter = { super with expr = hexpr } in
    hiter.expr hiter e
  in
  let rec hot_items modname (items : Parsetree.structure) =
    let scope = hot_scope_of hot_paths modname in
    List.iter
      (fun (item : Parsetree.structure_item) ->
        match item.pstr_desc with
        | Pstr_value (_, vbs) ->
            List.iter
              (fun (vb : Parsetree.value_binding) ->
                match vb.pvb_pat.ppat_desc with
                | Ppat_var { txt = name; _ } when binding_is_hot scope name ->
                    scan_hot ~owner:(modname ^ "." ^ name) vb.pvb_expr
                | _ -> ())
              vbs
        | Pstr_module
            { pmb_name = { txt = Some sub; _ };
              pmb_expr = { pmod_desc = Pmod_structure sub_items; _ };
              _ } ->
            hot_items sub sub_items
        | _ -> ())
      items
  in
  if enabled "L009" then hot_items module_name str;
  List.rev !findings
