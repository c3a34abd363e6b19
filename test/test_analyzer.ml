(* The T-DAT analyzer: labeling, ACK shifting, series generation, factor
   attribution, and the problem detectors — unit tests on hand-built
   traces plus ground-truth integration tests on simulated transfers. *)

open Tdat
open Tdat_bgpsim
module Seg = Tdat_pkt.Tcp_segment
module D = Series_defs

let sender_ep = Tdat_pkt.Endpoint.of_quad 10 1 0 1 20001
let receiver_ep = Tdat_pkt.Endpoint.of_quad 10 0 0 2 179
let flow = Tdat_pkt.Flow.v ~sender:sender_ep ~receiver:receiver_ep

let data ~ts ~seq len =
  Seg.v ~ts ~src:sender_ep ~dst:receiver_ep ~seq ~ack:0 ~len
    ~payload:(String.make len 'd') ~flags:Seg.data_flags ()

let ack ~ts ~ack:a ?(window = 65535) () =
  Seg.v ~ts ~src:receiver_ep ~dst:sender_ep ~seq:0 ~ack:a ~window
    ~flags:Seg.ack_flags ()

(* --- Conn_profile labeling ------------------------------------------------ *)

let profile_of segs =
  Conn_profile.of_trace (Tdat_pkt.Trace.of_segments segs) ~flow

let labels p = Array.to_list p.Conn_profile.labels

let test_label_in_order () =
  let p =
    profile_of [ data ~ts:10 ~seq:0 100; data ~ts:20 ~seq:100 100 ]
  in
  Alcotest.(check int) "no retransmissions" 0 (Conn_profile.Private.retransmissions p);
  Alcotest.(check bool) "all in order" true
    (List.for_all (( = ) Conn_profile.In_order) (labels p))

let test_label_redelivery () =
  (* Same bytes twice: downstream-loss recovery. *)
  let p =
    profile_of
      [ data ~ts:10 ~seq:0 100; data ~ts:500_000 ~seq:0 100;
        data ~ts:500_010 ~seq:100 100 ]
  in
  Alcotest.(check int) "one retransmission" 1 (Conn_profile.Private.retransmissions p);
  Alcotest.(check int) "one downstream episode" 1
    (List.length p.Conn_profile.downstream_episodes);
  Alcotest.(check int) "no upstream episode" 0
    (List.length p.Conn_profile.upstream_episodes);
  let ep = List.hd p.Conn_profile.downstream_episodes in
  (* Episode spans original copy to the redelivery. *)
  Alcotest.(check int) "episode start" 10
    (Tdat_timerange.Span.start ep.Conn_profile.span)

let test_label_upstream_fill () =
  (* A hole (packet lost before the sniffer) filled late: upstream loss. *)
  let p =
    profile_of
      [ data ~ts:10 ~seq:0 100; data ~ts:20 ~seq:200 100;
        (* hole [100,200) created at t=20, filled at t=400000 *)
        data ~ts:400_000 ~seq:100 100 ]
  in
  Alcotest.(check int) "upstream episode" 1
    (List.length p.Conn_profile.upstream_episodes);
  Alcotest.(check bool) "labelled fill-retransmission" true
    (List.exists (( = ) Conn_profile.Fill_retransmission) (labels p))

let test_label_reordering () =
  (* Hole filled within a fraction of the RTT: reordering, not loss. *)
  let segs =
    [
      Seg.v ~ts:0 ~src:sender_ep ~dst:receiver_ep ~seq:0 ~ack:0
        ~flags:(Seg.flags ~syn:true ()) ~mss_opt:1400 ();
      Seg.v ~ts:100 ~src:receiver_ep ~dst:sender_ep ~seq:0 ~ack:0
        ~flags:(Seg.flags ~syn:true ~ack:true ()) ();
      Seg.v ~ts:100_000 ~src:sender_ep ~dst:receiver_ep ~seq:0 ~ack:0
        ~flags:Seg.ack_flags () (* handshake ack: rtt = 100ms *);
      data ~ts:200_000 ~seq:0 100;
      data ~ts:200_010 ~seq:200 100;
      data ~ts:200_020 ~seq:100 100 (* fills within 10 µs *);
    ]
  in
  let p = profile_of segs in
  Alcotest.(check bool) "reordering detected" true
    (List.exists (( = ) Conn_profile.Fill_reorder) (labels p));
  Alcotest.(check int) "not counted as loss" 0
    (List.length p.Conn_profile.upstream_episodes);
  Alcotest.(check int) "rtt from handshake" 100_000 p.Conn_profile.rtt

let test_profile_mss_and_window () =
  let segs =
    [
      Seg.v ~ts:0 ~src:sender_ep ~dst:receiver_ep ~seq:0 ~ack:0
        ~flags:(Seg.flags ~syn:true ()) ~mss_opt:1234 ();
      ack ~ts:50 ~ack:0 ~window:9999 ();
      ack ~ts:60 ~ack:0 ~window:12000 ();
    ]
  in
  let p = profile_of segs in
  Alcotest.(check int) "mss from syn" 1234 p.Conn_profile.mss;
  Alcotest.(check int) "max adv window" 12000 p.Conn_profile.max_adv_window

(* --- Ack shifting ------------------------------------------------------------ *)

let test_ack_shift_moves_forward () =
  (* Receiver-side sniffer: the SYN/SYN+ACK/ACK handshake measures an
     upstream round trip of 5 ms; an ACK at t=100 releases data observed
     at t=5100, so its d2 estimate is 5000 and the flight shifts by it. *)
  let segs =
    [
      Seg.v ~ts:0 ~src:sender_ep ~dst:receiver_ep ~seq:0 ~ack:0
        ~flags:(Seg.flags ~syn:true ()) ~mss_opt:1000 ();
      Seg.v ~ts:20 ~src:receiver_ep ~dst:sender_ep ~seq:0 ~ack:0
        ~flags:(Seg.flags ~syn:true ~ack:true ()) ();
      Seg.v ~ts:5_020 ~src:sender_ep ~dst:receiver_ep ~seq:0 ~ack:0
        ~flags:Seg.ack_flags () (* handshake ack: rtt ≈ 5 ms *);
      data ~ts:5_030 ~seq:0 1000;
      ack ~ts:5_100 ~ack:1000 ~window:2000 ();
      data ~ts:10_100 ~seq:1000 1000;
      ack ~ts:10_200 ~ack:2000 ~window:2000 ();
      data ~ts:15_200 ~seq:2000 1000;
    ]
  in
  let p = profile_of segs in
  let shifted, infos = Ack_shift.shift p in
  Alcotest.(check bool) "shift happened" true
    (List.exists (fun i -> i.Ack_shift.applied > 0) infos);
  (* Data ACK flights shift by their estimated d2 (5000). *)
  let shifted_ts =
    List.filteri
      (fun k _ ->
        Tdat_pkt.Trace.ack shifted.Conn_profile.trace shifted.Conn_profile.acks.(k)
        = 1000)
      (Array.to_list shifted.Conn_profile.ack_ts)
  in
  Alcotest.(check (list int)) "first data ack lands at its effect"
    [ 10_100 ] shifted_ts

let test_ack_shift_noop_at_sender () =
  (* Sender-side trace: data follows the ack immediately; d2 ≈ 0. *)
  let segs =
    [
      data ~ts:10 ~seq:0 1000;
      ack ~ts:5_000 ~ack:1000 ~window:2000 ();
      data ~ts:5_001 ~seq:1000 1000;
    ]
  in
  let p = profile_of segs in
  let shifted, _ = Ack_shift.shift p in
  Alcotest.(check bool) "near no-op" true
    (shifted.Conn_profile.ack_ts.(0) - 5_000 <= 1)

(* --- Series generation on hand-built traces ----------------------------------- *)

let test_series_app_limited_gap () =
  (* Data, cleared quickly, then 300 ms of silence, then more data: the
     silence must be attributed to the sending application. *)
  let segs =
    [
      data ~ts:0 ~seq:0 1000;
      ack ~ts:1_000 ~ack:1000 ();
      data ~ts:300_000 ~seq:1000 1000;
      ack ~ts:301_000 ~ack:2000 ();
      data ~ts:600_000 ~seq:2000 1000;
      ack ~ts:601_000 ~ack:3000 ();
    ]
  in
  let p = profile_of segs in
  let gen = Series_gen.generate p in
  Alcotest.(check bool) "app limited dominates" true
    (Series_gen.ratio gen D.Send_app_limited > 0.9)

let test_series_zero_window_stall () =
  (* Receiver closes the window for 200 ms: attributed to flow control. *)
  let segs =
    [
      data ~ts:0 ~seq:0 1000;
      ack ~ts:1_000 ~ack:1000 ~window:0 ();
      ack ~ts:200_000 ~ack:1000 ~window:5000 ();
      data ~ts:201_000 ~seq:1000 1000;
      ack ~ts:202_000 ~ack:2000 ~window:5000 ();
    ]
  in
  let p = profile_of segs in
  let gen = Series_gen.generate p in
  Alcotest.(check bool) "zero-window bound" true
    (Series_gen.ratio gen D.Zero_adv_bnd_out > 0.5);
  Alcotest.(check bool) "recv app limited" true
    (Series_gen.ratio gen D.Recv_app_limited > 0.5)

let test_series_count () =
  let p = profile_of [ data ~ts:0 ~seq:0 100; ack ~ts:1_000 ~ack:100 () ] in
  let gen = Series_gen.generate p in
  (* Every one of the 34 series is materialized (possibly empty). *)
  List.iter
    (fun name -> ignore (Series_gen.spans gen name))
    D.all;
  Alcotest.(check int) "34 series" 34 (List.length D.all)

(* --- Integration: simulated scenarios vs ground truth ------------------------- *)

let analyze_outcome (o : Scenario.outcome) =
  Analyzer.analyze o.Scenario.trace ~flow:o.Scenario.flow ~mrt:o.Scenario.mrt

let group_ratio (a : Analyzer.t) g =
  List.assoc g a.Analyzer.factors.Factors.group_ratios

let factor_ratio (a : Analyzer.t) f =
  List.assoc f a.Analyzer.factors.Factors.ratios

let test_timer_sender_attribution () =
  let result =
    Scenario.run ~seed:21
      [ Scenario.router ~table_prefixes:6000 ~timer_interval:200_000 ~quota:20 1 ]
  in
  let a = analyze_outcome (List.hd result.Scenario.outcomes) in
  Alcotest.(check bool) "sender group dominant" true
    (group_ratio a Factors.Sender > 0.9);
  Alcotest.(check bool) "specifically the app" true
    (factor_ratio a Factors.Bgp_sender_app > 0.9);
  match a.Analyzer.problems.Analyzer.timer with
  | None -> Alcotest.fail "timer not detected"
  | Some t ->
      Alcotest.(check bool)
        (Printf.sprintf "timer %d near 200ms" t.Detect_timer.timer)
        true
        (t.Detect_timer.timer > 180_000 && t.Detect_timer.timer < 220_000)

let test_window_limited_attribution () =
  let rv_tcp = { Tdat_tcpsim.Tcp_types.default with max_adv_window = 16384 } in
  let result =
    Scenario.run ~seed:22 ~collector_tcp:rv_tcp
      [ Scenario.router ~table_prefixes:8000
          ~upstream:(Tdat_tcpsim.Connection.path ~delay:40_000 ()) 1 ]
  in
  let a = analyze_outcome (List.hd result.Scenario.outcomes) in
  Alcotest.(check bool) "receiver group dominant" true
    (group_ratio a Factors.Receiver > 0.5);
  Alcotest.(check bool) "adv window factor" true
    (factor_ratio a Factors.Tcp_adv_window > 0.5);
  Alcotest.(check bool) "no timer false positive" true
    (a.Analyzer.problems.Analyzer.timer = None)

let test_slow_receiver_app_attribution () =
  let result =
    Scenario.run ~seed:23 ~collector_proc_time:3_000
      [ Scenario.router ~table_prefixes:8000 1 ]
  in
  let a = analyze_outcome (List.hd result.Scenario.outcomes) in
  Alcotest.(check bool) "receiver app dominant" true
    (factor_ratio a Factors.Bgp_receiver_app > 0.8)

let test_network_loss_attribution () =
  let rng = Tdat_rng.Rng.create 99 in
  let result =
    Scenario.run ~seed:24
      [
        Scenario.router ~table_prefixes:8000
          ~upstream:
            (Tdat_tcpsim.Connection.path ~delay:5_000
               ~data_loss:
                 (Tdat_netsim.Loss.gilbert rng ~p_enter:0.05 ~p_exit:0.3
                    ~p_loss_bad:0.9)
               ())
          1;
      ]
  in
  let a = analyze_outcome (List.hd result.Scenario.outcomes) in
  Alcotest.(check bool) "network loss visible" true
    (factor_ratio a Factors.Network_loss > 0.05);
  Alcotest.(check bool) "loss episodes recorded" true
    (a.Analyzer.profile.Conn_profile.upstream_episodes <> [])

let test_local_loss_attribution () =
  let result =
    Scenario.run ~seed:25
      ~collector_local:
        (Tdat_tcpsim.Connection.path ~delay:50 ~bandwidth_bps:20_000_000
           ~buffer_pkts:6 ())
      [ Scenario.router ~table_prefixes:8000 1 ]
  in
  let a = analyze_outcome (List.hd result.Scenario.outcomes) in
  Alcotest.(check bool) "receiver-local loss dominant" true
    (factor_ratio a Factors.Recv_local_loss > 0.5);
  Alcotest.(check bool) "ground truth agrees" true (result.Scenario.local_drops > 0)

let test_transfer_duration_close_to_ground_truth () =
  let result =
    Scenario.run ~seed:26
      [ Scenario.router ~table_prefixes:4000 ~timer_interval:100_000 ~quota:40 1 ]
  in
  let o = List.hd result.Scenario.outcomes in
  let a = analyze_outcome o in
  match a.Analyzer.transfer with
  | None -> Alcotest.fail "transfer not identified"
  | Some tr ->
      Alcotest.(check int) "all prefixes collected" 4000
        tr.Transfer_id.prefixes;
      Alcotest.(check bool) "duration positive" true
        (Transfer_id.duration tr > 0)

let test_vendor_trace_reconstruction () =
  (* No MRT archive: the transfer must be identified via pcap2bgp-style
     reconstruction from the packet trace itself. *)
  let result =
    Scenario.run ~seed:27 ~collector_kind:Collector.Vendor
      [ Scenario.router ~table_prefixes:3000 1 ]
  in
  let o = List.hd result.Scenario.outcomes in
  let a = Analyzer.analyze o.Scenario.trace ~flow:o.Scenario.flow in
  match a.Analyzer.transfer with
  | None -> Alcotest.fail "transfer not identified from raw trace"
  | Some tr ->
      Alcotest.(check bool) "reconstructed" true
        (tr.Transfer_id.source = Transfer_id.Reconstructed);
      Alcotest.(check int) "all prefixes recovered" 3000
        tr.Transfer_id.prefixes

let test_peer_group_detection () =
  let r =
    Scenario.router ~table_prefixes:2000 ~timer_interval:200_000 ~quota:5
      ~group_window:32 1
  in
  let pg =
    Scenario.run_peer_group ~seed:13 ~vendor_fail_at:500_000
      ~deadline:1_800_000_000 r
  in
  let q = pg.Scenario.quagga_outcome and v = pg.Scenario.vendor_outcome in
  let aq = Analyzer.analyze q.Scenario.trace ~flow:q.Scenario.flow ~mrt:q.Scenario.mrt in
  let av = Analyzer.analyze v.Scenario.trace ~flow:v.Scenario.flow in
  (* The blocked quagga member shows a long keepalive-only idle period. *)
  Alcotest.(check bool) "suspect found" true
    (aq.Analyzer.problems.Analyzer.peer_group_suspects <> []);
  (* Cross-connection confirmation against the failed vendor session. *)
  let confirmed =
    Detect_peer_group.confirm aq.Analyzer.series ~other:av.Analyzer.series
  in
  Alcotest.(check bool) "confirmed against other member" true (confirmed <> []);
  Alcotest.(check bool) "blocked ~hold time" true
    (Detect_peer_group.blocked_delay confirmed > 100_000_000)

let test_consecutive_loss_detection () =
  (* A 300 ms congestion burst dropping every other packet mid-transfer:
     the survivors expose the holes, so the episode is visible and counts
     well past the 8-packet threshold. *)
  let rng = Tdat_rng.Rng.create 5 in
  let burst =
    Tdat_timerange.Span_set.of_span
      (Tdat_timerange.Span.v 300_000 400_000)
  in
  let windowed = Tdat_netsim.Loss.bernoulli_during rng burst 0.5 in
  let result =
    Scenario.run ~seed:28
      [
        Scenario.router ~table_prefixes:60_000
          ~upstream:
            (Tdat_tcpsim.Connection.path ~delay:20_000 ~data_loss:windowed ())
          1;
      ]
  in
  let a = analyze_outcome (List.hd result.Scenario.outcomes) in
  let cl = a.Analyzer.problems.Analyzer.consecutive_losses in
  Alcotest.(check bool) "episodes detected" true
    (cl.Detect_loss.episodes <> [])

let test_analyze_all_jobs_deterministic () =
  (* A mixed fleet merged into one capture: analyze_all must return
     byte-identical results whatever the worker count, including the
     audit diagnostics. *)
  let routers =
    List.init 6 (fun i ->
        let id = i + 1 in
        let timer_interval =
          match id mod 3 with 0 -> None | 1 -> Some 200_000 | _ -> Some 100_000
        in
        let quota = match id mod 2 with 0 -> 6 | _ -> 15 in
        Scenario.router ~table_prefixes:(1_000 + (300 * id)) ?timer_interval
          ~quota id)
  in
  let result = Scenario.run ~seed:41 routers in
  let trace =
    Tdat_pkt.Trace.of_segments
      (List.concat_map
         (fun o -> Tdat_pkt.Trace.segments o.Scenario.trace)
         result.Scenario.outcomes)
  in
  let digest results =
    List.map
      (fun (flow, a) ->
        Format.asprintf "%a|%s|%a" Tdat_pkt.Flow.pp flow (Report.to_string a)
          Tdat_audit.Diag.pp_report a.Analyzer.audit)
      results
  in
  let seq = digest (Analyzer.analyze_all ~audit:true ~jobs:1 trace) in
  Alcotest.(check int) "one analysis per session" 6 (List.length seq);
  List.iter
    (fun jobs ->
      let par = digest (Analyzer.analyze_all ~audit:true ~jobs trace) in
      Alcotest.(check (list string))
        (Printf.sprintf "jobs=%d identical to jobs=1" jobs)
        seq par)
    [ 2; 4 ]

let test_concurrent_transfers_shift_bottleneck () =
  (* Fig. 15's mechanism: more concurrent transfers push the receiving BGP
     process ratio up relative to few-transfer runs. *)
  let run n seed =
    let routers =
      List.init n (fun i -> Scenario.router ~table_prefixes:3000 (i + 1))
    in
    let result = Scenario.run ~seed ~collector_proc_time:800 routers in
    let ratios =
      List.map
        (fun o -> factor_ratio (analyze_outcome o) Factors.Bgp_receiver_app)
        result.Scenario.outcomes
    in
    Tdat_stats.Descriptive.mean ratios
  in
  let low = run 1 31 and high = run 10 32 in
  Alcotest.(check bool)
    (Printf.sprintf "receiver-app grows with concurrency (%.2f -> %.2f)" low
       high)
    true (high > low)

let suite =
  [
    Alcotest.test_case "label in order" `Quick test_label_in_order;
    Alcotest.test_case "label redelivery" `Quick test_label_redelivery;
    Alcotest.test_case "label upstream fill" `Quick test_label_upstream_fill;
    Alcotest.test_case "label reordering" `Quick test_label_reordering;
    Alcotest.test_case "profile mss/window" `Quick test_profile_mss_and_window;
    Alcotest.test_case "ack shift forward" `Quick test_ack_shift_moves_forward;
    Alcotest.test_case "ack shift noop at sender" `Quick
      test_ack_shift_noop_at_sender;
    Alcotest.test_case "series: app gap" `Quick test_series_app_limited_gap;
    Alcotest.test_case "series: zero window" `Quick
      test_series_zero_window_stall;
    Alcotest.test_case "series: all 34" `Quick test_series_count;
    Alcotest.test_case "attribution: timer sender" `Quick
      test_timer_sender_attribution;
    Alcotest.test_case "attribution: adv window" `Quick
      test_window_limited_attribution;
    Alcotest.test_case "attribution: receiver app" `Quick
      test_slow_receiver_app_attribution;
    Alcotest.test_case "attribution: network loss" `Quick
      test_network_loss_attribution;
    Alcotest.test_case "attribution: local loss" `Quick
      test_local_loss_attribution;
    Alcotest.test_case "transfer id ground truth" `Quick
      test_transfer_duration_close_to_ground_truth;
    Alcotest.test_case "vendor reconstruction" `Quick
      test_vendor_trace_reconstruction;
    Alcotest.test_case "peer group detection" `Slow test_peer_group_detection;
    Alcotest.test_case "consecutive loss detection" `Quick
      test_consecutive_loss_detection;
    Alcotest.test_case "analyze_all jobs-deterministic" `Slow
      test_analyze_all_jobs_deterministic;
    Alcotest.test_case "concurrency shifts bottleneck" `Slow
      test_concurrent_transfers_shift_bottleneck;
  ]
