(* The T-DAT command line: analyze the BGP sessions in a pcap file and
   explain where each table transfer's time went, audit the pipeline's
   own invariants over a trace (`tdat check`), or mine longitudinal MRT
   archives for table transfers (`tdat study`, the paper's Section-2
   measurement study). *)

open Cmdliner

(* Report what the fault-tolerant reader had to do: warnings and errors
   individually, plus a one-line salvage summary.  Errors (the file is
   not a usable pcap at all) abort with a user-error exit. *)
let report_capture r =
  let open Tdat_pkt.Pcap in
  let problems =
    List.filter
      (fun (d : Diag.t) ->
        match d.Diag.severity with
        | Diag.Error | Diag.Warning -> true
        | Diag.Info -> false)
      r.diags
  in
  List.iter (fun d -> Format.eprintf "tdat: pcap: %a@." Diag.pp d) problems;
  if r.diags <> [] then
    Format.eprintf
      "tdat: pcap: salvaged %d segment(s) from %d record(s) (%d skipped, %d \
       snaplen-clipped)@."
      r.stats.decoded r.stats.records r.stats.skipped r.stats.clipped;
  not (List.exists Diag.is_error r.diags)

(* MRT archive problems mirror the pcap ones: warnings individually,
   then a one-line salvage summary. *)
let report_archive path (r : Tdat_bgp.Mrt.result) =
  let open Tdat_bgp.Mrt in
  List.iter
    (fun (d : Diag.t) ->
      match d.Diag.severity with
      | Diag.Error | Diag.Warning ->
          Format.eprintf "tdat: mrt: %a@." Diag.pp d
      | Diag.Info -> ())
    r.diags;
  if r.diags <> [] then
    Format.eprintf
      "tdat: mrt: %s: salvaged %d record(s) (%d messages, %d state changes, \
       %d skipped)@."
      path r.stats.records r.stats.bgp_messages r.stats.state_changes
      r.stats.skipped

let load ~strict pcap_path mrt_path sender_side =
  let r = Tdat_pkt.Pcap.read_file ~strict pcap_path in
  if not (report_capture r) then None
  else begin
    let mrt_result =
      Option.map
        (fun path ->
          let mr = Tdat_bgp.Mrt.read_file ~strict path in
          report_archive path mr;
          (path, mr))
        mrt_path
    in
    let config =
      if sender_side then
        { Tdat.Series_gen.default_config with sniffer_location = `Near_sender }
      else Tdat.Series_gen.default_config
    in
    Some (r, mrt_result, config)
  end

let mrt_records mrt_result =
  Option.map
    (fun (_, (mr : Tdat_bgp.Mrt.result)) ->
      Tdat_bgp.Mrt.messages mr.Tdat_bgp.Mrt.entries)
    mrt_result

(* Malformed input is a user error (exit 2), not an internal error. *)
let with_decode_errors f =
  match f () with
  | status -> status
  | exception Tdat_pkt.Pcap.Decode_error msg ->
      Printf.eprintf "tdat: %s\n" msg;
      2
  | exception Tdat_bgp.Bgp_error.Decode_error { context; message } ->
      Printf.eprintf "tdat: %s: %s\n" context message;
      2

let analyze_file obs pcap_path mrt_path show_series sender_side jobs strict =
  Tdat_obs_cli.with_obs obs @@ fun () ->
  with_decode_errors @@ fun () ->
  match load ~strict pcap_path mrt_path sender_side with
  | None -> 2
  | Some (r, mrt_result, config) ->
      let results =
        Tdat.Analyzer.analyze_all ~config
          ?mrt:(mrt_records mrt_result)
          ~jobs r.Tdat_pkt.Pcap.trace
      in
      if results = [] then prerr_endline "no TCP connections found in trace";
      (* The same renderer a serve daemon answers with, so `tdat
         analyze` and a serve analyze response are byte-identical. *)
      print_string (Tdat_serve.Render.analysis ~series:show_series results);
      0

(* A007: analyze the same trace at jobs=1 (reference) and jobs>1
   (candidate) with metrics on, and byte-compare the stable snapshot
   sections — the runtime backstop for lint rule L007. *)
let verify_determinism_diags ~config ~mrt ~jobs trace =
  let reg = Tdat_obs.Metrics.default in
  let was_enabled = Tdat_obs.Metrics.enabled reg in
  Tdat_obs.Metrics.set_enabled reg true;
  let snapshot jobs =
    Tdat_obs.Metrics.reset reg;
    ignore (Tdat.Analyzer.analyze_all ~config ?mrt ~audit:false ~jobs trace);
    Tdat_obs.Metrics.snapshot_json ~stable_only:true reg
  in
  let reference = snapshot 1 in
  let candidate = snapshot (if jobs > 1 then jobs else 2) in
  Tdat_obs.Metrics.set_enabled reg was_enabled;
  Tdat_audit.Checks.stable_snapshots_equal ~reference ~candidate ()

let check_file obs pcap_path mrt_path sender_side jobs strict verify_det =
  Tdat_obs_cli.with_obs obs @@ fun () ->
  with_decode_errors @@ fun () ->
  match load ~strict pcap_path mrt_path sender_side with
  | None -> 2
  | Some (r, mrt_result, config) ->
      let ingest =
        Tdat_audit.Ingest.of_result r
        @ (match mrt_result with
          | Some (path, mr) ->
              Tdat_audit.Ingest.of_mrt_diags ~file:path mr.Tdat_bgp.Mrt.diags
          | None -> [])
      in
      Format.printf "capture: %s@."
        (if ingest = [] then "ok"
         else Printf.sprintf "%d finding(s)" (List.length ingest));
      if ingest <> [] then
        Format.printf "%a@." Tdat_audit.Diag.pp_report ingest;
      let results =
        Tdat.Analyzer.analyze_all ~config
          ?mrt:(mrt_records mrt_result)
          ~audit:true ~jobs r.Tdat_pkt.Pcap.trace
      in
      if results = [] then prerr_endline "no TCP connections found in trace";
      let failed =
        List.fold_left
          (fun failed (flow, a) ->
            let diags = a.Tdat.Analyzer.audit in
            Format.printf "%a: %s@." Tdat_pkt.Flow.pp flow
              (if diags = [] then "ok"
               else
                 Printf.sprintf "%d finding(s)" (List.length diags));
            if diags <> [] then
              Format.printf "%a@." Tdat_audit.Diag.pp_report diags;
            print_string (Tdat.Report.stage_timing_table a);
            failed || Tdat_audit.Diag.errors diags <> [])
          (Tdat_audit.Diag.errors ingest <> [])
          results
      in
      (* The tracer's own invariant: every span opened by the analysis
         must have closed (the A006 counterpart for the trace stream). *)
      let failed =
        if Tdat_obs.Tracer.enabled () && not (Tdat_obs.Tracer.balanced ())
        then begin
          Format.printf "trace: unbalanced span events@.";
          true
        end
        else failed
      in
      let failed =
        if not verify_det then failed
        else begin
          let diags =
            verify_determinism_diags ~config
              ~mrt:(mrt_records mrt_result)
              ~jobs r.Tdat_pkt.Pcap.trace
          in
          Format.printf "determinism: %s@."
            (if diags = [] then
               "ok (stable metric snapshots identical across --jobs)"
             else Printf.sprintf "%d finding(s)" (List.length diags));
          if diags <> [] then
            Format.printf "%a@." Tdat_audit.Diag.pp_report diags;
          failed || Tdat_audit.Diag.errors diags <> []
        end
      in
      if failed then 1 else 0

let study_files obs paths jobs strict gap_s min_prefixes slow_threshold_s json
    no_plot =
  Tdat_obs_cli.with_obs obs @@ fun () ->
  with_decode_errors @@ fun () ->
  let config =
    {
      Tdat_study.Detect.quiet_gap = Tdat_timerange.Time_us.of_s gap_s;
      min_prefixes;
    }
  in
  let report =
    Tdat_study.Aggregate.run ~jobs ~strict ~config ?slow_threshold_s paths
  in
  if json then print_endline (Tdat_study.Report.to_json report)
  else print_string (Tdat_study.Report.to_text ~plot:(not no_plot) report);
  0

let pcap_arg =
  let doc = "Packet trace to analyze (libpcap format, Ethernet/IPv4/TCP)." in
  Arg.(
    required & pos 0 (some non_dir_file) None & info [] ~docv:"TRACE.pcap" ~doc)

let mrt_arg =
  let doc =
    "Optional MRT archive (BGP4MP) from the collector; when present it \
     drives the MCT transfer-end estimation instead of in-trace \
     reconstruction."
  in
  Arg.(
    value
    & opt (some non_dir_file) None
    & info [ "mrt" ] ~docv:"ARCHIVE.mrt" ~doc)

let series_arg =
  let doc = "Also print the square-wave event-series timeline (Fig. 11)." in
  Arg.(value & flag & info [ "series" ] ~doc)

let sender_side_arg =
  let doc =
    "The sniffer was located at the sender side (loss locality is \
     interpreted accordingly and ACK shifting becomes a no-op)."
  in
  Arg.(value & flag & info [ "sender-side" ] ~doc)

let jobs_arg =
  let doc =
    "Analyze connections on $(docv) worker domains (default: the \
     core count the runtime recommends; 1 = fully sequential).  The \
     output is identical for every value."
  in
  Arg.(
    value
    & opt int (Tdat_parallel.Pool.default_jobs ())
    & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let strict_arg =
  let doc =
    "Fail (exit 2) on the first malformed pcap structure instead of \
     salvaging the decodable records with $(b,P0xx) warnings.  See \
     DESIGN.md, \"Ingestion robustness\"."
  in
  Arg.(value & flag & info [ "strict" ] ~doc)

let clamp_jobs n = if n < 1 then 1 else n

(* A number of seconds, checked by the study's option check: a bad value
   is a usage error (exit 124) naming the option. *)
let seconds ~positive =
  let parse s =
    match Arg.conv_parser Arg.float s with
    | Error _ as e -> e
    | Ok x ->
        Result.map_error
          (fun why -> `Msg why)
          (Tdat_study.Aggregate.check_seconds ~positive x)
  in
  Arg.conv (parse, Arg.conv_printer Arg.float)

let analyze_term =
  Term.(
    const (fun obs p m s side j strict ->
        analyze_file obs p m s side (clamp_jobs j) strict)
    $ Tdat_obs_cli.term $ pcap_arg $ mrt_arg $ series_arg $ sender_side_arg
    $ jobs_arg $ strict_arg)

let analyze_cmd =
  let doc = "Explain where each table transfer's time went (default)" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Reads a bidirectional packet trace, identifies the BGP table \
         transfer on every TCP connection, rewrites the trace to \
         approximate the sender-side view, generates the 34 event series, \
         and attributes the transfer delay to sender / receiver / network \
         factors.  Known transport problems (timer gaps, consecutive \
         losses, peer-group blocking, the zero-window ACK bug) are \
         reported when detected.";
    ]
  in
  Cmd.v (Cmd.info "analyze" ~doc ~man) analyze_term

let check_cmd =
  let doc = "Audit the pipeline's invariants over a trace" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs the full analysis with the Tdat_audit validators enabled \
         and reports every invariant violation: non-canonical span sets \
         (A001), non-monotone traces (A002), seq/ack insanity (A003), \
         ACK-shift conservation failures (A004), out-of-range factor \
         accounting (A005) and inconsistent stage-timing accounting \
         (A006), preceded by the capture-ingestion findings (P0xx: \
         malformed records, truncation, snaplen clipping).  Each \
         connection's report ends with the per-stage wall-clock table \
         the instrumented pipeline recorded.  Exits non-zero when any \
         error-severity finding is produced.  See DESIGN.md, \"Static \
         analysis & auditing\", \"Ingestion robustness\" and \
         \"Observability\".";
    ]
  in
  let verify_determinism_arg =
    let doc =
      "Additionally run the A007 determinism audit: analyze the trace \
       once at --jobs 1 and once at max(--jobs, 2) with metrics \
       enabled, and fail unless the stable metric snapshots are \
       byte-identical — the runtime backstop for lint rule L007."
    in
    Arg.(value & flag & info [ "verify-determinism" ] ~doc)
  in
  Cmd.v
    (Cmd.info "check" ~doc ~man)
    Term.(
      const (fun obs p m side j strict vd ->
          check_file obs p m side (clamp_jobs j) strict vd)
      $ Tdat_obs_cli.term $ pcap_arg $ mrt_arg $ sender_side_arg $ jobs_arg
      $ strict_arg $ verify_determinism_arg)

let study_cmd =
  let archives_arg =
    let doc = "MRT update archives to mine (BGP4MP / BGP4MP_ET)." in
    Arg.(
      non_empty & pos_all non_dir_file [] & info [] ~docv:"ARCHIVE.mrt" ~doc)
  in
  let gap_arg =
    let doc =
      "Quiet gap, in seconds, that ends a transfer.  The default, 200 s, \
       exceeds the usual BGP hold time so a transfer paused by peer-group \
       blocking still counts as one transfer."
    in
    Arg.(
      value
      & opt (seconds ~positive:true) 200.
      & info [ "gap" ] ~docv:"SECONDS" ~doc)
  in
  let min_prefixes_arg =
    let doc =
      "Minimum announced prefixes for a burst to count as a table transfer \
       (smaller bursts are steady-state churn)."
    in
    Arg.(value & opt int 32 & info [ "min-prefixes" ] ~docv:"N" ~doc)
  in
  let slow_arg =
    let doc =
      "Fixed slow-transfer threshold in seconds.  Default: the paper's \
       Section II-B cut, mean + 3*stddev of the observed durations."
    in
    Arg.(
      value
      & opt (some (seconds ~positive:false)) None
      & info [ "slow-threshold" ] ~docv:"SECONDS" ~doc)
  in
  let json_arg =
    let doc = "Emit the report as a single JSON object." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let no_plot_arg =
    let doc = "Omit the ASCII duration-CDF plot from the text report." in
    Arg.(value & flag & info [ "no-plot" ] ~doc)
  in
  let study_strict_arg =
    let doc =
      "Fail (exit 2) on the first malformed MRT record instead of salvaging \
       the decodable records with $(b,M0xx) warnings.  See DESIGN.md, \
       \"Measurement study\"."
    in
    Arg.(value & flag & info [ "strict" ] ~doc)
  in
  let doc = "Mine MRT update archives for table transfers (Section 2)" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Streams one or more MRT update archives (in bounded memory), \
         detects the table transfer bursts of every peer — anchored on \
         BGP4MP_STATE_CHANGE session events when the archive has them, on \
         quiet gaps otherwise — and aggregates the fleet longitudinally: \
         duration statistics and CDF, slow-transfer classification \
         (mean + 3*stddev by default), and per-peer summaries.  Files are \
         scanned on $(b,--jobs) worker domains; the report is \
         byte-identical for every value.";
    ]
  in
  Cmd.v
    (Cmd.info "study" ~doc ~man)
    Term.(
      const (fun obs paths j strict gap minp slow json no_plot ->
          study_files obs paths (clamp_jobs j) strict gap minp slow json
            no_plot)
      $ Tdat_obs_cli.term $ archives_arg $ jobs_arg $ study_strict_arg
      $ gap_arg $ min_prefixes_arg $ slow_arg $ json_arg $ no_plot_arg)

let serve_daemon obs socket host port jobs queue =
  Tdat_obs_cli.with_obs obs @@ fun () ->
  let address =
    match socket with
    | Some path -> `Unix path
    | None -> `Tcp (host, port)
  in
  let t =
    Tdat_serve.Server.start
      { Tdat_serve.Server.address; jobs; queue_capacity = queue }
  in
  (match Tdat_serve.Server.address t with
  | `Unix path -> Printf.printf "tdat: serve: listening on %s\n%!" path
  | `Tcp (h, p) -> Printf.printf "tdat: serve: listening on %s:%d\n%!" h p);
  let drain = Sys.Signal_handle (fun _ -> Tdat_serve.Server.stop t) in
  let prev_term = Sys.signal Sys.sigterm drain in
  let prev_int = Sys.signal Sys.sigint drain in
  Fun.protect
    ~finally:(fun () ->
      Sys.set_signal Sys.sigterm prev_term;
      Sys.set_signal Sys.sigint prev_int)
    (fun () -> Tdat_serve.Server.wait t);
  0

let serve_cmd =
  let socket_arg =
    let doc =
      "Listen on a Unix-domain socket at $(docv) (removed on exit) \
       instead of TCP."
    in
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)
  in
  let host_arg =
    let doc = "TCP listen address (ignored with $(b,--socket))." in
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST" ~doc)
  in
  let port_arg =
    let doc =
      "TCP listen port (0 picks an ephemeral port, printed on start; \
       ignored with $(b,--socket))."
    in
    Arg.(value & opt int 4774 & info [ "port" ] ~docv:"PORT" ~doc)
  in
  let jobs_arg =
    let doc =
      "Run up to $(docv) jobs at once, one per worker domain (default: \
       the core count the runtime recommends)."
    in
    Arg.(
      value
      & opt int (Tdat_parallel.Pool.default_jobs ())
      & info [ "j"; "jobs" ] ~docv:"N" ~doc)
  in
  let queue_arg =
    let doc =
      "Admission-queue capacity: at most $(docv) accepted jobs wait for a \
       worker; one more is rejected with a 429-style $(b,busy) error."
    in
    Arg.(value & opt int 64 & info [ "queue" ] ~docv:"N" ~doc)
  in
  let doc = "Run the long-lived analysis daemon" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Listens on a Unix-domain or TCP socket and answers \
         line-delimited JSON requests: one object per line carrying a \
         $(b,cmd) of $(b,analyze), $(b,check), $(b,study), $(b,ping), \
         $(b,stats) or $(b,shutdown).  Analysis jobs wait in a bounded \
         admission queue that $(b,--jobs) worker domains pull from, one \
         job each at a time; $(b,analyze) and $(b,check) answers are \
         cached per request and revalidated by file mtime+size; a full \
         queue answers $(b,busy) (429) instead of stalling the socket.  \
         SIGTERM (or the $(b,shutdown) verb) drains gracefully: accepted \
         jobs finish and their responses flush before the process exits.  \
         The $(b,analyze) response's $(b,output) member is byte-identical \
         to $(b,tdat analyze) stdout for the same file.  See DESIGN.md, \
         \"Service architecture\".";
    ]
  in
  Cmd.v
    (Cmd.info "serve" ~doc ~man)
    Term.(
      const (fun obs socket host port j queue ->
          serve_daemon obs socket host port (clamp_jobs j) (max 1 queue))
      $ Tdat_obs_cli.term $ socket_arg $ host_arg $ port_arg $ jobs_arg
      $ queue_arg)

(* --- tdat top ------------------------------------------------------------ *)

(* Live terminal dashboard over a running daemon: poll `stats` every
   --interval seconds and render one frame per poll.  --once prints a
   single frame without touching the terminal (scripts, tests). *)
let top_loop socket host port interval once =
  let address =
    match socket with
    | Some path -> `Unix path
    | None -> `Tcp (host, port)
  in
  let addr_label =
    match address with
    | `Unix path -> path
    | `Tcp (h, p) -> Printf.sprintf "%s:%d" h p
  in
  let module Json = Tdat_json.Json in
  let poll_stats () =
    let client = Tdat_serve.Client.connect address in
    Fun.protect
      ~finally:(fun () -> Tdat_serve.Client.close client)
      (fun () ->
        Tdat_serve.Client.rpc client
          (Json.Obj [ ("id", Json.Num 1.); ("cmd", Json.Str "stats") ]))
  in
  let rec loop () =
    match poll_stats () with
    | Error msg ->
        Printf.eprintf "tdat: top: %s\n" msg;
        1
    | exception Unix.Unix_error (e, _, _) ->
        Printf.eprintf "tdat: top: %s: %s\n" addr_label (Unix.error_message e);
        1
    | Ok response -> (
        match Json.member "result" response with
        | Some result ->
            if not once then print_string "\x1b[2J\x1b[H";
            print_string (Tdat_serve.Render.dashboard ~address:addr_label result);
            flush stdout;
            if once then 0
            else begin
              Unix.sleepf interval;
              loop ()
            end
        | None ->
            Printf.eprintf "tdat: top: daemon answered without a result\n";
            1)
  in
  loop ()

let top_cmd =
  let socket_arg =
    let doc = "Poll the daemon on a Unix-domain socket at $(docv)." in
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)
  in
  let host_arg =
    let doc = "Daemon TCP address (ignored with $(b,--socket))." in
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST" ~doc)
  in
  let port_arg =
    let doc = "Daemon TCP port (ignored with $(b,--socket))." in
    Arg.(value & opt int 4774 & info [ "port" ] ~docv:"PORT" ~doc)
  in
  let interval_arg =
    let doc = "Seconds between polls." in
    Arg.(
      value
      & opt (seconds ~positive:true) 2.
      & info [ "interval" ] ~docv:"SECONDS" ~doc)
  in
  let once_arg =
    let doc =
      "Print a single frame and exit, without clearing the terminal \
       (scripting / tests)."
    in
    Arg.(value & flag & info [ "once" ] ~doc)
  in
  let doc = "Live dashboard over a running serve daemon" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Polls a running $(b,tdat serve) daemon's $(b,stats) verb and \
         renders a terminal dashboard: request and error totals, \
         admission-queue depth, cache hit ratio, per-endpoint rolling \
         p50/p95/p99 latency over the last minute, and the worst-request \
         exemplars with their trace ids.  The same numbers are available \
         machine-readably through the $(b,stats) and $(b,metrics) \
         protocol verbs.";
    ]
  in
  Cmd.v
    (Cmd.info "top" ~doc ~man)
    Term.(
      const (fun socket host port interval once ->
          top_loop socket host port (Float.max 0.1 interval) once)
      $ socket_arg $ host_arg $ port_arg $ interval_arg $ once_arg)

let cmd =
  let doc = "TCP delay analysis for BGP table transfers (T-DAT)" in
  Cmd.group
    (Cmd.info "tdat" ~version:"1.0.0" ~doc)
    ~default:analyze_term
    [ analyze_cmd; check_cmd; study_cmd; serve_cmd; top_cmd ]

(* Backward compatibility: `tdat TRACE.pcap ...` (the pre-subcommand
   spelling, still what README documents first) means `tdat analyze
   TRACE.pcap ...`. *)
let argv =
  let argv = Sys.argv in
  if
    Array.length argv > 1
    && (not (String.equal argv.(1) "analyze"))
    && (not (String.equal argv.(1) "check"))
    && (not (String.equal argv.(1) "study"))
    && (not (String.equal argv.(1) "serve"))
    && (not (String.equal argv.(1) "top"))
    && String.length argv.(1) > 0
    && argv.(1).[0] <> '-'
  then
    Array.append [| argv.(0); "analyze" |] (Array.sub argv 1 (Array.length argv - 1))
  else argv

let () = exit (Cmd.eval' ~argv cmd)
