type problems = {
  timer : Detect_timer.result option;
  consecutive_losses : Detect_loss.result;
  peer_group_suspects : Detect_peer_group.suspect list;
  zero_ack_bug : Detect_zero_ack.result option;
}

type t = {
  profile : Conn_profile.t;
  shifted : Conn_profile.t;
  shifts : Ack_shift.flight_shift list;
  transfer : Transfer_id.t option;
  series : Series_gen.t;
  factors : Factors.result;
  problems : problems;
  audit : Tdat_audit.Diag.t list;
  timings : (string * float) list;
  total_s : float;
}

(* --- observability ----------------------------------------------------

   The pipeline's own stages are first-class measurement points
   (DESIGN.md, "Observability"): each stage runs under a named
   [Tdat_obs.Span], its duration feeds a volatile per-stage histogram,
   and the per-run timing list backs both the `tdat check` stage table
   and the A006 accounting audit.  All of it is skipped — closures
   aside, not even a clock read — unless auditing, tracing, or metrics
   collection is on. *)

module Obs = Tdat_obs.Metrics

let stage_names =
  [
    "conn-profile"; "ack-shift"; "transfer-id"; "series-gen"; "factors";
    "detect-timer"; "detect-loss"; "detect-peer-group"; "detect-zero-ack";
  ]

let stage_hists =
  List.map
    (fun n ->
      ( n,
        (Obs.Histogram.make ~stable:false
           ~buckets:Obs.Histogram.time_us_buckets
           (Printf.sprintf "analyzer.stage.%s.us" n)
         (* Templated over the literal stage_names list above. *)
         [@tdat.lint.allow "L011"]) ))
    stage_names

let m_analyses = Obs.Counter.make "analyzer.analyses"
let m_transfers = Obs.Counter.make "analyzer.transfers_identified"
let m_connections = Obs.Counter.make "analyzer.connections"

let h_connection_packets =
  Obs.Histogram.make ~buckets:Obs.Histogram.size_buckets
    "analyzer.connection_packets"

(* Re-derive the invariants the pipeline's algebra assumes (DESIGN.md,
   "Static analysis & auditing"): canonical span sets for every series,
   monotone and sane input segments, conservation across ACK shifting,
   in-range factor accounting, and self-consistent stage timings. *)
let run_audit ~profile ~shifted ~skip_shift ~series ~(factors : Factors.result)
    ~timings ~total_s () =
  let open Tdat_audit in
  let series_sets =
    List.concat_map
      (fun s ->
        Checks.canonical_set
          ~subject:(Series_defs.to_string s)
          (Series_gen.spans series s))
      Series_defs.all
  in
  let custom_sets =
    List.concat_map
      (fun name ->
        match Series_gen.custom series name with
        | Some set -> Checks.canonical_set ~subject:name set
        | None -> [])
      (Series_gen.custom_names series)
  in
  let tr = profile.Conn_profile.trace in
  let data = profile.Conn_profile.data and acks = profile.Conn_profile.acks in
  let input_checks =
    Checks.canonical_set ~subject:"voids" profile.Conn_profile.voids
    @ Checks.monotone_times ~subject:"data"
        (Array.map (Tdat_pkt.Trace.ts tr) data)
    @ Checks.monotone_times ~subject:"acks" profile.Conn_profile.ack_ts
    @ Checks.seq_ack_sane ~subject:"data" tr data
    @ Checks.seq_ack_sane ~subject:"acks" tr acks
  in
  let shift_checks =
    if skip_shift then []
    else
      Checks.ack_shift_conserved ~subject:"ack shift" tr
        ~before:(acks, profile.Conn_profile.ack_ts)
        ~after:(shifted.Conn_profile.acks, shifted.Conn_profile.ack_ts)
        ()
      @ Checks.monotone_times ~subject:"shifted acks"
          shifted.Conn_profile.ack_ts
  in
  let period = factors.Factors.analysis_period in
  let accounting =
    Checks.ratios_in_range ~subject:"factors"
      (List.map
         (fun (f, r) -> (Factors.factor_name f, r))
         factors.Factors.ratios)
    @ Checks.ratios_in_range ~subject:"groups"
        (List.map
           (fun (g, r) -> (Factors.group_name g, r))
           factors.Factors.group_ratios)
    @ Checks.sizes_bounded ~subject:"series" ~period
        (List.map
           (fun s -> (Series_defs.to_string s, Series_gen.size series s))
           Series_defs.all)
  in
  let timing_checks = Checks.stage_timings ~subject:"stages" ~total_s timings in
  input_checks @ shift_checks @ series_sets @ custom_sets @ accounting
  @ timing_checks

let analyze ?config ?major_threshold ?mct ?mrt ?(skip_shift = false)
    ?(audit = false) trace ~flow =
  let instrumented =
    audit || Tdat_obs.Tracer.enabled () || Obs.enabled Obs.default
  in
  Obs.Counter.incr m_analyses;
  let timings = ref [] in
  let stage name f =
    if not instrumented then f ()
    else
      (* The stage wrapper forwards literal names from the call sites
         below; the forwarding itself is what L011 cannot see through. *)
      let r, dt = (Tdat_obs.Span.timed ~name f [@tdat.lint.allow "L011"]) in
      timings := (name, dt) :: !timings;
      (match List.assoc_opt name stage_hists with
      | Some h -> Obs.Histogram.observe h (dt *. 1e6)
      | None -> ());
      r
  in
  let t_start = if instrumented then Tdat_obs.Clock.now_us () else 0. in
  let profile = stage "conn-profile" (fun () -> Conn_profile.of_trace trace ~flow) in
  let shifted, shifts =
    stage "ack-shift" (fun () ->
        if skip_shift then (profile, []) else Ack_shift.shift profile)
  in
  let transfer =
    stage "transfer-id" (fun () -> Transfer_id.identify ?mct ?mrt trace ~flow)
  in
  let window = Option.map Transfer_id.span transfer in
  let series =
    stage "series-gen" (fun () -> Series_gen.generate ?config ?window shifted)
  in
  let factors =
    stage "factors" (fun () -> Factors.compute ?major_threshold series)
  in
  let problems =
    {
      timer = stage "detect-timer" (fun () -> Detect_timer.detect series);
      consecutive_losses =
        stage "detect-loss" (fun () -> Detect_loss.detect series);
      peer_group_suspects =
        stage "detect-peer-group" (fun () -> Detect_peer_group.suspects series);
      zero_ack_bug =
        stage "detect-zero-ack" (fun () -> Detect_zero_ack.detect series);
    }
  in
  let total_s =
    if instrumented then (Tdat_obs.Clock.now_us () -. t_start) /. 1e6 else 0.
  in
  let timings = List.rev !timings in
  if Option.is_some transfer then Obs.Counter.incr m_transfers;
  let audit =
    if audit then
      Tdat_obs.Span.with_ ~name:"audit" (fun () ->
          run_audit ~profile ~shifted ~skip_shift ~series ~factors ~timings
            ~total_s ())
    else []
  in
  {
    profile;
    shifted;
    shifts;
    transfer;
    series;
    factors;
    problems;
    audit;
    timings;
    total_s;
  }

let analyze_all ?config ?major_threshold ?mct ?mrt ?audit ?jobs trace =
  (* One pass buckets the whole trace by connection; each bucket is then
     an independent, pure analysis task, farmed to the domain pool,
     which gathers the connection's columns only when it analyzes it,
     so they die young.  Results come back in input order, so the output
     is identical to the sequential path whatever [jobs] is.  Sender
     inference runs on the per-connection sub-trace: byte counts from
     other connections sharing an endpoint (every session shares the
     collector's) cannot leak into the orientation. *)
  let parts =
    Tdat_obs.Span.with_ ~name:"partition" (fun () ->
        Tdat_pkt.Trace.connection_subtraces trace)
  in
  Obs.Counter.add m_connections (List.length parts);
  let analyze_one (key, sub) =
    let sub = sub () in
    Obs.Histogram.observe h_connection_packets
      (float_of_int (Tdat_pkt.Trace.length sub));
    let flow = Tdat_pkt.Trace.infer_sender sub key in
    (flow, Tdat_obs.Span.with_ ~name:"analyze" (fun () ->
        analyze ?config ?major_threshold ?mct ?mrt ?audit sub ~flow))
  in
  Tdat_parallel.Pool.with_pool ?jobs (fun pool ->
      Tdat_parallel.Pool.map pool analyze_one parts)
