module Mrt = Tdat_bgp.Mrt
module Cdf = Tdat_stats.Cdf
module Ascii_plot = Tdat_stats.Ascii_plot
module Descriptive = Tdat_stats.Descriptive

let pct part whole =
  if whole = 0 then 0. else 100. *. float_of_int part /. float_of_int whole

(* --- text ----------------------------------------------------------------- *)

(* The report's pieces are collected as a list and joined once: a
   growing [Buffer] would leave a trail of large (major-heap) copies per
   report, which the study scan, allocating next to nothing, no longer
   gives the GC a reason to collect promptly. *)
let to_text ?(plot = true) (r : Aggregate.report) =
  let parts = ref [] in
  let pf fmt = Printf.ksprintf (fun s -> parts := s :: !parts) fmt in
  let n_transfers = List.length r.Aggregate.transfers in
  let n_slow = List.length r.Aggregate.slow in
  pf "measurement study: %d file(s), %d transfer(s) from %d peer(s)\n"
    (List.length r.Aggregate.files)
    n_transfers
    (List.length r.Aggregate.peers);
  List.iter
    (fun (f : Archive.file_report) ->
      let s = f.Archive.stats in
      pf "  %s: %d transfer(s) — %d record(s): %d message(s), %d state \
          change(s), %d skipped%s\n"
        f.Archive.path
        (List.length f.Archive.transfers)
        s.Mrt.records s.Mrt.bgp_messages s.Mrt.state_changes s.Mrt.skipped
        (match List.length f.Archive.diags with
        | 0 -> ""
        | n -> Printf.sprintf ", %d finding(s)" n);
      List.iter
        (fun d -> pf "    %s\n" (Format.asprintf "%a" Mrt.Diag.pp d))
        f.Archive.diags)
    r.Aggregate.files;
  if n_transfers = 0 then pf "no table transfers detected\n"
  else begin
    let durations = List.map Transfer.duration_s r.Aggregate.transfers in
    let summary = Descriptive.summarize durations in
    pf "durations: mean %.3f s, stddev %.3f s, min %.3f s, max %.3f s\n"
      summary.Descriptive.mean summary.Descriptive.stddev
      summary.Descriptive.min summary.Descriptive.max;
    (match r.Aggregate.duration_knee_s with
    | Some k -> pf "duration knee (L-method): %.3f s\n" k
    | None -> ());
    pf "slow threshold: %.3f s (%s)\n" r.Aggregate.slow_threshold_s
      (if r.Aggregate.threshold_auto then "mean + 3*stddev" else "fixed");
    pf "slow transfers: %d of %d (%.1f%%)\n" n_slow n_transfers
      (pct n_slow n_transfers);
    List.iter
      (fun t -> pf "  %s\n" (Format.asprintf "%a" Transfer.pp t))
      r.Aggregate.slow;
    pf "per-peer:\n";
    List.iter
      (fun (p : Aggregate.peer_summary) ->
        pf "  AS%d %s: %d transfer(s) (%d anchored, %d slow), mean %.3f s, \
            max %.3f s, %d prefixes\n"
          p.Aggregate.peer_as
          (Format.asprintf "%a" Transfer.pp_ip p.Aggregate.peer_ip)
          p.Aggregate.transfers p.Aggregate.anchored p.Aggregate.slow
          p.Aggregate.duration.Descriptive.mean
          p.Aggregate.duration.Descriptive.max p.Aggregate.prefixes_total)
      r.Aggregate.peers;
    if plot && n_transfers >= 2 then begin
      let cdf = Cdf.of_samples durations in
      pf "duration CDF:\n";
      parts :=
        Ascii_plot.cdf ~x_label:"transfer duration (s)"
          [ ("duration", Cdf.points cdf) ]
        :: !parts
    end
  end;
  String.concat "" (List.rev !parts)

(* --- JSON ----------------------------------------------------------------- *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_float x =
  if Float.is_nan x || Float.is_integer x && Float.abs x < 1e15 then
    if Float.is_nan x then "null" else Printf.sprintf "%.1f" x
  else Printf.sprintf "%.6g" x

let json_list f xs = "[" ^ String.concat "," (List.map f xs) ^ "]"

let json_of_diag (d : Mrt.Diag.t) =
  Printf.sprintf "{\"code\":\"%s\",\"severity\":\"%s\",\"record\":%s,\"message\":\"%s\"}"
    d.Mrt.Diag.code
    (Mrt.Diag.severity_name d.Mrt.Diag.severity)
    (match d.Mrt.Diag.record with Some i -> string_of_int i | None -> "null")
    (json_escape d.Mrt.Diag.message)

let json_of_file (f : Archive.file_report) =
  let s = f.Archive.stats in
  Printf.sprintf
    "{\"path\":\"%s\",\"records\":%d,\"bgp_messages\":%d,\"state_changes\":%d,\
     \"skipped\":%d,\"transfers\":%d,\"diags\":%s}"
    (json_escape f.Archive.path)
    s.Mrt.records s.Mrt.bgp_messages s.Mrt.state_changes s.Mrt.skipped
    (List.length f.Archive.transfers)
    (json_list json_of_diag f.Archive.diags)

let json_of_transfer ~threshold (t : Transfer.t) =
  Printf.sprintf
    "{\"source\":\"%s\",\"peer_as\":%d,\"peer_ip\":\"%s\",\"start_us\":%d,\
     \"end_us\":%d,\"duration_s\":%s,\"prefixes\":%d,\"messages\":%d,\
     \"rate_pfx_s\":%s,\"anchored\":%b,\"slow\":%b}"
    (json_escape t.Transfer.source)
    t.Transfer.peer_as
    (Format.asprintf "%a" Transfer.pp_ip t.Transfer.peer_ip)
    t.Transfer.start_ts t.Transfer.end_ts
    (json_float (Transfer.duration_s t))
    t.Transfer.prefixes t.Transfer.messages
    (json_float (Transfer.rate t))
    t.Transfer.anchored
    ((not (Float.is_nan threshold)) && Transfer.duration_s t > threshold)

let json_of_peer (p : Aggregate.peer_summary) =
  Printf.sprintf
    "{\"peer_as\":%d,\"peer_ip\":\"%s\",\"transfers\":%d,\"anchored\":%d,\
     \"slow\":%d,\"prefixes_total\":%d,\"duration_mean_s\":%s,\
     \"duration_max_s\":%s}"
    p.Aggregate.peer_as
    (Format.asprintf "%a" Transfer.pp_ip p.Aggregate.peer_ip)
    p.Aggregate.transfers p.Aggregate.anchored p.Aggregate.slow
    p.Aggregate.prefixes_total
    (json_float p.Aggregate.duration.Descriptive.mean)
    (json_float p.Aggregate.duration.Descriptive.max)

let to_json (r : Aggregate.report) =
  let threshold = r.Aggregate.slow_threshold_s in
  let durations = List.map Transfer.duration_s r.Aggregate.transfers in
  let quantiles =
    match durations with
    | [] -> "null"
    | _ ->
        let q p = json_float (Descriptive.percentile p durations) in
        Printf.sprintf
          "{\"p50\":%s,\"p90\":%s,\"p99\":%s,\"max\":%s}"
          (q 50.) (q 90.) (q 99.) (q 100.)
  in
  Printf.sprintf
    "{\"files\":%s,\"transfers\":%s,\"slow_threshold_s\":%s,\
     \"threshold\":\"%s\",\"duration_knee_s\":%s,\"slow_transfers\":%d,\
     \"peers\":%s,\"duration_quantiles_s\":%s}"
    (json_list json_of_file r.Aggregate.files)
    (json_list (json_of_transfer ~threshold) r.Aggregate.transfers)
    (json_float threshold)
    (if r.Aggregate.threshold_auto then "auto" else "fixed")
    (match r.Aggregate.duration_knee_s with
    | Some k -> json_float k
    | None -> "null")
    (List.length r.Aggregate.slow)
    (json_list json_of_peer r.Aggregate.peers)
    quantiles
