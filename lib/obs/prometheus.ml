(* Prometheus text-format (version 0.0.4) exposition of a [Metrics]
   registry, plus low-level helpers for ad-hoc series (the serve
   daemon's rolling-window gauges).

   Floats print in canonical shortest round-trip form
   ([Tdat_json.Canon], integer-valued ones as [x.0]), instruments are
   emitted in name order, and the stable
   section of a quiesced registry is therefore byte-identical across
   [--jobs]. *)

let prefix = "tdat_"

(* Prometheus metric names are [a-zA-Z_:][a-zA-Z0-9_:]*; our dotted
   lowercase names mangle by mapping every other character to '_'. *)
let mangle name =
  let buf = Buffer.create (String.length name + String.length prefix) in
  Buffer.add_string buf prefix;
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' ->
          Buffer.add_char buf c
      | _ -> Buffer.add_char buf '_')
    name;
  Buffer.contents buf

let add_float buf v =
  if Float.is_nan v then Buffer.add_string buf "NaN"
  else if v = Float.infinity then Buffer.add_string buf "+Inf"
  else if v = Float.neg_infinity then Buffer.add_string buf "-Inf"
  else if Float.is_integer v && Float.abs v < 1e15 then
    Buffer.add_string buf (Printf.sprintf "%.1f" v)
  else Buffer.add_string buf (Tdat_json.Canon.to_string v)

(* Label values escape backslash, double quote and newline. *)
let add_label_value buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let add_labels buf labels =
  match labels with
  | [] -> ()
  | labels ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf k;
          Buffer.add_char buf '=';
          add_label_value buf v)
        labels;
      Buffer.add_char buf '}'

let add_header buf ~name ~kind =
  Buffer.add_string buf "# TYPE ";
  Buffer.add_string buf (mangle name);
  Buffer.add_char buf ' ';
  Buffer.add_string buf kind;
  Buffer.add_char buf '\n'

let add_sample buf ~name ?(suffix = "") ?(labels = []) value =
  Buffer.add_string buf (mangle name);
  Buffer.add_string buf suffix;
  add_labels buf labels;
  Buffer.add_char buf ' ';
  Buffer.add_string buf value;
  Buffer.add_char buf '\n'

let add_gauge buf ~name ?(labels = []) v =
  let vbuf = Buffer.create 24 in
  add_float vbuf v;
  add_sample buf ~name ~labels (Buffer.contents vbuf)

let add_view buf ~name (v : Metrics.view) =
  match v with
  | Metrics.Counter_v n ->
      add_header buf ~name ~kind:"counter";
      add_sample buf ~name ~suffix:"_total" (string_of_int n)
  | Metrics.Gauge_v g ->
      add_header buf ~name ~kind:"gauge";
      add_gauge buf ~name g
  | Metrics.Histogram_v { v_count; v_sum; v_buckets } ->
      add_header buf ~name ~kind:"histogram";
      let cumulative = ref 0 in
      Array.iter
        (fun (bound, c) ->
          cumulative := !cumulative + c;
          let le = Buffer.create 24 in
          add_float le bound;
          add_sample buf ~name ~suffix:"_bucket"
            ~labels:[ ("le", Buffer.contents le) ]
            (string_of_int !cumulative))
        v_buckets;
      let sum = Buffer.create 24 in
      add_float sum v_sum;
      add_sample buf ~name ~suffix:"_sum" (Buffer.contents sum);
      add_sample buf ~name ~suffix:"_count" (string_of_int v_count)

let of_registry ?(stable_only = false) r =
  let buf = Buffer.create 2048 in
  let () =
    Metrics.fold_entries ~stable_only r ~init:() ~f:(fun () ~name ~stable v ->
        ignore stable;
        add_view buf ~name v)
  in
  Buffer.contents buf

module Private = struct
  let mangle = mangle
end
