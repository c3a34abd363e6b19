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

module Json = Tdat_json.Json

(* Floats keep the report's 6-significant-digit precision (whole
   numbers below 1e15 stay exact): [num] rounds to the double that
   [%.6g] denotes, and the codec spells that double.  Non-finite values
   reach the codec as they are, so an infinite fixed threshold is
   [1e999] and a NaN [null], never a bare [inf]. *)
let num x =
  Json.Num
    (if (Float.is_integer x && Float.abs x < 1e15) || not (Float.is_finite x)
     then x
     else float_of_string (Printf.sprintf "%.6g" x))

let ip a = Json.Str (Format.asprintf "%a" Transfer.pp_ip a)

let json_of_diag (d : Mrt.Diag.t) =
  Json.Obj
    [
      ("code", Json.Str d.Mrt.Diag.code);
      ("severity", Json.Str (Mrt.Diag.severity_name d.Mrt.Diag.severity));
      ( "record",
        match d.Mrt.Diag.record with Some i -> Json.int i | None -> Json.Null );
      ("message", Json.Str d.Mrt.Diag.message);
    ]

let json_of_file (f : Archive.file_report) =
  let s = f.Archive.stats in
  Json.Obj
    [
      ("path", Json.Str f.Archive.path);
      ("records", Json.int s.Mrt.records);
      ("bgp_messages", Json.int s.Mrt.bgp_messages);
      ("state_changes", Json.int s.Mrt.state_changes);
      ("skipped", Json.int s.Mrt.skipped);
      ("transfers", Json.int (List.length f.Archive.transfers));
      ("diags", Json.Arr (List.map json_of_diag f.Archive.diags));
    ]

let json_of_transfer ~threshold (t : Transfer.t) =
  Json.Obj
    [
      ("source", Json.Str t.Transfer.source);
      ("peer_as", Json.int t.Transfer.peer_as);
      ("peer_ip", ip t.Transfer.peer_ip);
      ("start_us", Json.int t.Transfer.start_ts);
      ("end_us", Json.int t.Transfer.end_ts);
      ("duration_s", num (Transfer.duration_s t));
      ("prefixes", Json.int t.Transfer.prefixes);
      ("messages", Json.int t.Transfer.messages);
      ("rate_pfx_s", num (Transfer.rate t));
      ("anchored", Json.Bool t.Transfer.anchored);
      ( "slow",
        Json.Bool
          ((not (Float.is_nan threshold)) && Transfer.duration_s t > threshold) );
    ]

let json_of_peer (p : Aggregate.peer_summary) =
  Json.Obj
    [
      ("peer_as", Json.int p.Aggregate.peer_as);
      ("peer_ip", ip p.Aggregate.peer_ip);
      ("transfers", Json.int p.Aggregate.transfers);
      ("anchored", Json.int p.Aggregate.anchored);
      ("slow", Json.int p.Aggregate.slow);
      ("prefixes_total", Json.int p.Aggregate.prefixes_total);
      ("duration_mean_s", num p.Aggregate.duration.Descriptive.mean);
      ("duration_max_s", num p.Aggregate.duration.Descriptive.max);
    ]

let to_json_value (r : Aggregate.report) =
  let threshold = r.Aggregate.slow_threshold_s in
  let durations = List.map Transfer.duration_s r.Aggregate.transfers in
  let quantiles =
    match durations with
    | [] -> Json.Null
    | _ ->
        let q p = num (Descriptive.percentile p durations) in
        Json.Obj
          [ ("p50", q 50.); ("p90", q 90.); ("p99", q 99.); ("max", q 100.) ]
  in
  Json.Obj
    [
      ("files", Json.Arr (List.map json_of_file r.Aggregate.files));
      ( "transfers",
        Json.Arr (List.map (json_of_transfer ~threshold) r.Aggregate.transfers) );
      ("slow_threshold_s", num threshold);
      ( "threshold",
        Json.Str (if r.Aggregate.threshold_auto then "auto" else "fixed") );
      ( "duration_knee_s",
        match r.Aggregate.duration_knee_s with
        | Some k -> num k
        | None -> Json.Null );
      ("slow_transfers", Json.int (List.length r.Aggregate.slow));
      ("peers", Json.Arr (List.map json_of_peer r.Aggregate.peers));
      ("duration_quantiles_s", quantiles);
    ]

let to_json r = Json.to_string (to_json_value r)
