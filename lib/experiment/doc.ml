(* Canonical documents for the differential harness (DESIGN.md,
   "Differential analysis").

   One rule: every member is emitted unconditionally and in a fixed
   order, optional results as Null, so two docs built from equal
   analyses are structurally identical and a diff path is meaningful
   across files and runs.  Numbers go through Json's canonical float
   rendering; time values are integral microseconds. *)

module Json = Tdat_json.Json
module Span = Tdat_timerange.Span


let num_int_opt = function None -> Json.Null | Some n -> Json.int n

let span_obj s =
  Json.Obj
    [ ("start_us", Json.int (Span.start s)); ("stop_us", Json.int (Span.stop s)) ]

let flow_str flow = Format.asprintf "%a" Tdat_pkt.Flow.pp flow

(* --- analysis ------------------------------------------------------------ *)

let transfer_obj (t : Tdat.Transfer_id.t) =
  Json.Obj
    [
      ("start_us", Json.int t.Tdat.Transfer_id.start_ts);
      ("end_us", Json.int t.Tdat.Transfer_id.end_ts);
      ("duration_us", Json.int (Tdat.Transfer_id.duration t));
      ("prefixes", Json.int t.Tdat.Transfer_id.prefixes);
      ("updates", Json.int t.Tdat.Transfer_id.updates);
      ( "source",
        Json.Str
          (match t.Tdat.Transfer_id.source with
          | Tdat.Transfer_id.Archive -> "archive"
          | Tdat.Transfer_id.Reconstructed -> "reconstructed") );
    ]

let transfer_opt = function None -> Json.Null | Some t -> transfer_obj t

let profile_obj (p : Tdat.Conn_profile.t) =
  let episodes es =
    Json.Arr
      (List.map
         (fun (e : Tdat.Conn_profile.loss_episode) ->
           Json.Obj
             [
               ("span", span_obj e.Tdat.Conn_profile.span);
               ("packets", Json.int e.Tdat.Conn_profile.packets);
               ("bytes", Json.int e.Tdat.Conn_profile.bytes);
             ])
         es)
  in
  Json.Obj
    [
      ("start_us", Json.int p.Tdat.Conn_profile.start_time);
      ("end_us", Json.int p.Tdat.Conn_profile.end_time);
      ("syn_rtt_us", num_int_opt p.Tdat.Conn_profile.syn_rtt);
      ("upstream_rtt_us", num_int_opt p.Tdat.Conn_profile.upstream_rtt);
      ("rtt_us", Json.int p.Tdat.Conn_profile.rtt);
      ("mss", Json.int p.Tdat.Conn_profile.mss);
      ("max_adv_window", Json.int p.Tdat.Conn_profile.max_adv_window);
      ("data_packets", Json.int (Array.length p.Tdat.Conn_profile.data));
      ("acks", Json.int (Array.length p.Tdat.Conn_profile.acks));
      ("upstream_episodes", episodes p.Tdat.Conn_profile.upstream_episodes);
      ("downstream_episodes", episodes p.Tdat.Conn_profile.downstream_episodes);
    ]

let factors_obj (f : Tdat.Factors.result) =
  let open Tdat.Factors in
  Json.Obj
    [
      ( "ratios",
        Json.Obj
          (List.map (fun (k, r) -> (factor_name k, Json.Num r)) f.ratios) );
      ( "group_ratios",
        Json.Obj
          (List.map (fun (g, r) -> (group_name g, Json.Num r)) f.group_ratios)
      );
      ("major", Json.Arr (List.map (fun g -> Json.Str (group_name g)) f.major));
      ( "major_factors",
        Json.Arr (List.map (fun k -> Json.Str (factor_name k)) f.major_factors)
      );
      ( "dominant",
        match f.dominant with
        | None -> Json.Null
        | Some k -> Json.Str (factor_name k) );
      ( "dominant_group",
        match f.dominant_group with
        | None -> Json.Null
        | Some g -> Json.Str (group_name g) );
      ("analysis_period_us", Json.int f.analysis_period);
    ]

let series_obj series =
  Json.Obj
    (List.map
       (fun s ->
         (Tdat.Series_defs.to_string s, Json.int (Tdat.Series_gen.size series s)))
       Tdat.Series_defs.all)

let problems_obj (p : Tdat.Analyzer.problems) =
  let timer =
    match p.Tdat.Analyzer.timer with
    | None -> Json.Null
    | Some (t : Tdat.Detect_timer.result) ->
        Json.Obj
          [
            ("timer_us", Json.int t.Tdat.Detect_timer.timer);
            ("gaps", Json.int t.Tdat.Detect_timer.gaps);
            ("induced_delay_us", Json.int t.Tdat.Detect_timer.induced_delay);
          ]
  in
  let losses =
    let r = p.Tdat.Analyzer.consecutive_losses in
    Json.Obj
      [
        ( "episodes",
          Json.Arr
            (List.map
               (fun (e : Tdat.Detect_loss.episode) ->
                 Json.Obj
                   [
                     ("span", span_obj e.Tdat.Detect_loss.span);
                     ("packets", Json.int e.Tdat.Detect_loss.packets);
                   ])
               r.Tdat.Detect_loss.episodes) );
        ("induced_delay_us", Json.int r.Tdat.Detect_loss.induced_delay);
      ]
  in
  let peer_group =
    Json.Arr
      (List.map
         (fun (s : Tdat.Detect_peer_group.suspect) ->
           Json.Obj
             [
               ("span", span_obj s.Tdat.Detect_peer_group.span);
               ("keepalives", Json.int s.Tdat.Detect_peer_group.keepalives);
             ])
         p.Tdat.Analyzer.peer_group_suspects)
  in
  let zero_ack =
    match p.Tdat.Analyzer.zero_ack_bug with
    | None -> Json.Null
    | Some (r : Tdat.Detect_zero_ack.result) ->
        Json.Obj
          [
            ( "spans",
              Json.int
                (List.length
                   (Tdat_timerange.Span_set.to_list r.Tdat.Detect_zero_ack.spans))
            );
            ("total_us", Json.int r.Tdat.Detect_zero_ack.total);
          ]
  in
  Json.Obj
    [
      ("timer", timer);
      ("consecutive_losses", losses);
      ("peer_group_suspects", peer_group);
      ("zero_ack_bug", zero_ack);
    ]

let connection_obj (flow, (a : Tdat.Analyzer.t)) =
  Json.Obj
    [
      ("flow", Json.Str (flow_str flow));
      ("profile", profile_obj a.Tdat.Analyzer.profile);
      ("shifts", Json.int (List.length a.Tdat.Analyzer.shifts));
      ("transfer", transfer_opt a.Tdat.Analyzer.transfer);
      ("factors", factors_obj a.Tdat.Analyzer.factors);
      ("series_sizes_us", series_obj a.Tdat.Analyzer.series);
      ("problems", problems_obj a.Tdat.Analyzer.problems);
    ]

let analysis_doc results =
  Json.Obj
    [
      ("connections", Json.Arr (List.map connection_obj results));
    ]

(* --- transfer identification only ---------------------------------------- *)

let transfer_doc results =
  Json.Obj
    [
      ( "connections",
        Json.Arr
          (List.map
             (fun (flow, t) ->
               Json.Obj
                 [
                   ("flow", Json.Str (flow_str flow));
                   ("transfer", transfer_opt t);
                 ])
             results) );
    ]

(* --- measurement study --------------------------------------------------- *)

let study_doc (fr : Tdat_study.Archive.file_report) =
  let transfer_entry (t : Tdat_study.Transfer.t) =
    Json.Obj
      [
        ("peer_as", Json.int t.Tdat_study.Transfer.peer_as);
        ( "peer_ip",
          Json.Str
            (Format.asprintf "%a" Tdat_study.Transfer.pp_ip
               t.Tdat_study.Transfer.peer_ip) );
        ("start_us", Json.int t.Tdat_study.Transfer.start_ts);
        ("end_us", Json.int t.Tdat_study.Transfer.end_ts);
        ("prefixes", Json.int t.Tdat_study.Transfer.prefixes);
        ("messages", Json.int t.Tdat_study.Transfer.messages);
        ("anchored", Json.Bool t.Tdat_study.Transfer.anchored);
      ]
  in
  let s = fr.Tdat_study.Archive.stats in
  Json.Obj
    [
      ( "transfers",
        Json.Arr (List.map transfer_entry fr.Tdat_study.Archive.transfers) );
      ( "stats",
        Json.Obj
          [
            ("records", Json.int s.Tdat_bgp.Mrt.records);
            ("bgp_messages", Json.int s.Tdat_bgp.Mrt.bgp_messages);
            ("state_changes", Json.int s.Tdat_bgp.Mrt.state_changes);
            ("skipped", Json.int s.Tdat_bgp.Mrt.skipped);
          ] );
    ]

(* --- failure projection --------------------------------------------------- *)

let error_doc e =
  let msg =
    match e with
    | Tdat_pkt.Pcap.Decode_error m -> "pcap: " ^ m
    | Tdat_bgp.Bgp_error.Decode_error { context; message } ->
        context ^ ": " ^ message
    | Sys_error m -> m
    | e -> Printexc.to_string e
  in
  Json.Obj [ ("error", Json.Str msg) ]
