(* Unit-level exercises of the problem detectors on hand-crafted traces:
   each detector must fire on its textbook signature and stay silent on
   clean transfers. *)

open Tdat
module Seg = Tdat_pkt.Tcp_segment
module Span = Tdat_timerange.Span

let sender_ep = Tdat_pkt.Endpoint.of_quad 10 1 0 1 20001
let receiver_ep = Tdat_pkt.Endpoint.of_quad 10 0 0 2 179
let flow = Tdat_pkt.Flow.v ~sender:sender_ep ~receiver:receiver_ep

let data ~ts ~seq len =
  Seg.v ~ts ~src:sender_ep ~dst:receiver_ep ~seq ~ack:0 ~len
    ~payload:(String.make len 'd') ~flags:Seg.data_flags ()

let ack ~ts ~ack:a ?(window = 65535) () =
  Seg.v ~ts ~src:receiver_ep ~dst:sender_ep ~seq:0 ~ack:a ~window
    ~flags:Seg.ack_flags ()

let gen_of segs =
  let p = Conn_profile.of_trace (Tdat_pkt.Trace.of_segments segs) ~flow in
  Series_gen.generate p

(* A paced transfer: burst of data every [period], acked quickly. *)
let paced_transfer ~period ~jitter ~bursts =
  let rng = Tdat_rng.Rng.create 33 in
  let segs = ref [] in
  let seq = ref 0 in
  for i = 0 to bursts - 1 do
    let t = (i * period) + Tdat_rng.Rng.int rng (jitter + 1) in
    segs := data ~ts:t ~seq:!seq 1000 :: !segs;
    segs := ack ~ts:(t + 1_000) ~ack:(!seq + 1000) () :: !segs;
    seq := !seq + 1000
  done;
  List.rev !segs

let test_timer_fires_on_regular_gaps () =
  let gen = gen_of (paced_transfer ~period:200_000 ~jitter:2_000 ~bursts:40) in
  match Detect_timer.detect gen with
  | None -> Alcotest.fail "regular 200ms gaps not detected"
  | Some t ->
      Alcotest.(check bool) "timer near 200ms" true
        (t.Detect_timer.timer > 190_000 && t.Detect_timer.timer < 215_000);
      Alcotest.(check bool) "most gaps counted" true (t.Detect_timer.gaps >= 30)

let test_timer_silent_on_irregular_gaps () =
  (* Same mean but huge jitter: no pronounced timer. *)
  let gen =
    gen_of (paced_transfer ~period:200_000 ~jitter:350_000 ~bursts:40)
  in
  Alcotest.(check bool) "irregular gaps not a timer" true
    (Detect_timer.detect gen = None)

let test_timer_silent_on_few_gaps () =
  let gen = gen_of (paced_transfer ~period:200_000 ~jitter:0 ~bursts:5) in
  Alcotest.(check bool) "below min_count" true (Detect_timer.detect gen = None)

(* The array detector against the frozen list pipeline on the series
   of the three transfers above (a pronounced timer, one too irregular
   to pass, too few gaps) and of a longer, looser one: 400 bursts 50 ms
   apart with up to 20 ms of jitter. *)
let test_timer_matches_list_pipeline () =
  List.iter
    (fun (what, segs) ->
      let gen = gen_of segs in
      Alcotest.(check bool) what true
        (Detect_timer.detect gen = Legacy_ref.detect_timer gen))
    [
      ("regular", paced_transfer ~period:200_000 ~jitter:2_000 ~bursts:40);
      ("irregular", paced_transfer ~period:200_000 ~jitter:350_000 ~bursts:40);
      ("few", paced_transfer ~period:200_000 ~jitter:0 ~bursts:5);
      ("many", paced_transfer ~period:50_000 ~jitter:20_000 ~bursts:400);
    ]

let test_loss_detector_counts_episode_packets () =
  (* 10 redeliveries clustered within a second: one episode >= 8. *)
  let segs = ref [ data ~ts:0 ~seq:0 14_000 ] in
  for i = 0 to 9 do
    (* Same bytes again: redeliveries, 100 ms apart. *)
    segs := data ~ts:(500_000 + (i * 100_000)) ~seq:(i * 1_000) 1_000 :: !segs
  done;
  segs := data ~ts:2_000_000 ~seq:14_000 1_000 :: !segs;
  segs := ack ~ts:2_001_000 ~ack:15_000 () :: !segs;
  let gen = gen_of (List.rev !segs) in
  let r = Detect_loss.detect gen in
  Alcotest.(check int) "one episode at threshold 8" 1
    (List.length r.Detect_loss.episodes);
  Alcotest.(check bool) "episode counts all packets" true
    ((List.hd r.Detect_loss.episodes).Detect_loss.packets >= 10)

let test_loss_detector_merge_gap () =
  (* Two clusters of 5 separated by 1 s merge below the default 1.5 s
     merge gap, but split with merge_gap = 0.5 s. *)
  let segs = ref [ data ~ts:0 ~seq:0 12_000 ] in
  for i = 0 to 4 do
    segs := data ~ts:(500_000 + (i * 50_000)) ~seq:(i * 1_000) 1_000 :: !segs
  done;
  for i = 0 to 4 do
    segs := data ~ts:(1_750_000 + (i * 50_000)) ~seq:(5_000 + (i * 1_000)) 1_000 :: !segs
  done;
  let gen = gen_of (List.rev !segs) in
  Alcotest.(check int) "merged across the gap" 1
    (List.length (Detect_loss.detect gen).Detect_loss.episodes);
  Alcotest.(check int) "split with a tight merge gap" 0
    (List.length
       (Detect_loss.detect ~merge_gap:100_000 gen).Detect_loss.episodes)

let test_loss_detector_silent_when_clean () =
  let gen = gen_of (paced_transfer ~period:50_000 ~jitter:0 ~bursts:30) in
  Alcotest.(check bool) "clean transfer" true
    ((Detect_loss.detect gen).Detect_loss.episodes = [])

let test_peer_group_suspect_requires_keepalives () =
  (* 100 s of pure silence is NOT a suspect (could be anything)... *)
  let silent =
    [
      data ~ts:0 ~seq:0 1_000;
      ack ~ts:1_000 ~ack:1_000 ();
      data ~ts:100_000_000 ~seq:1_000 1_000;
      ack ~ts:100_001_000 ~ack:2_000 ();
    ]
  in
  Alcotest.(check int) "silence alone is not blocking" 0
    (List.length (Detect_peer_group.suspects (gen_of silent)));
  (* ...but the same idle period carrying periodic keepalives is. *)
  let keepalives =
    List.init 3 (fun i ->
        data ~ts:(30_000_000 * (i + 1)) ~seq:(1_000 + (i * 19)) 19)
  in
  let blocked =
    [
      data ~ts:0 ~seq:0 1_000;
      ack ~ts:1_000 ~ack:1_000 ();
      data ~ts:100_000_000 ~seq:1_057 1_000;
      ack ~ts:100_001_000 ~ack:2_057 ();
    ]
    @ keepalives
  in
  let suspects = Detect_peer_group.suspects (gen_of blocked) in
  Alcotest.(check int) "keepalive-only idle detected" 1 (List.length suspects);
  Alcotest.(check int) "keepalives counted" 3
    (List.hd suspects).Detect_peer_group.keepalives

let test_zero_ack_bug_conflict () =
  (* Zero-window periods overlapping a retransmission recovery. *)
  let segs =
    [
      data ~ts:0 ~seq:0 1_000;
      ack ~ts:1_000 ~ack:1_000 ~window:0 ();
      (* Redelivery of the same bytes during the zero-window phase. *)
      data ~ts:300_000 ~seq:0 1_000;
      ack ~ts:301_000 ~ack:1_000 ~window:0 ();
      data ~ts:700_000 ~seq:0 1_000;
      ack ~ts:900_000 ~ack:1_000 ~window:8_000 ();
      data ~ts:901_000 ~seq:1_000 1_000;
      ack ~ts:902_000 ~ack:2_000 ~window:8_000 ();
    ]
  in
  let gen = gen_of segs in
  match Detect_zero_ack.detect gen with
  | None -> Alcotest.fail "conflict not detected"
  | Some r ->
      Alcotest.(check bool) "substantial conflict" true
        (r.Detect_zero_ack.total > 100_000)

let test_zero_ack_bug_silent_without_zero_window () =
  let segs =
    [
      data ~ts:0 ~seq:0 1_000;
      data ~ts:300_000 ~seq:0 1_000 (* redelivery, but window open *);
      ack ~ts:301_000 ~ack:1_000 ~window:8_000 ();
    ]
  in
  Alcotest.(check bool) "no zero window, no conflict" true
    (Detect_zero_ack.detect (gen_of segs) = None)

let test_report_renders () =
  let segs = paced_transfer ~period:200_000 ~jitter:0 ~bursts:20 in
  let a =
    Analyzer.analyze (Tdat_pkt.Trace.of_segments segs) ~flow
  in
  let text = Report.to_string a in
  Alcotest.(check bool) "mentions factors" true
    (String.length text > 100);
  let timeline = Report.series_timeline a.Analyzer.series in
  Alcotest.(check bool) "timeline has rows" true
    (String.contains timeline '|')

let suite =
  [
    Alcotest.test_case "timer: regular gaps" `Quick
      test_timer_fires_on_regular_gaps;
    Alcotest.test_case "timer: irregular gaps" `Quick
      test_timer_silent_on_irregular_gaps;
    Alcotest.test_case "timer: few gaps" `Quick test_timer_silent_on_few_gaps;
    Alcotest.test_case "timer: detect == list pipeline" `Quick
      test_timer_matches_list_pipeline;
    Alcotest.test_case "loss: episode packets" `Quick
      test_loss_detector_counts_episode_packets;
    Alcotest.test_case "loss: merge gap" `Quick test_loss_detector_merge_gap;
    Alcotest.test_case "loss: clean transfer" `Quick
      test_loss_detector_silent_when_clean;
    Alcotest.test_case "peer group: keepalives required" `Quick
      test_peer_group_suspect_requires_keepalives;
    Alcotest.test_case "zero-ack: conflict" `Quick test_zero_ack_bug_conflict;
    Alcotest.test_case "zero-ack: silent" `Quick
      test_zero_ack_bug_silent_without_zero_window;
    Alcotest.test_case "report renders" `Quick test_report_renders;
  ]

let test_custom_series () =
  (* The user-extensibility hook of Section III-C: define derived series
     with set algebra and quantify them like built-ins. *)
  let segs = paced_transfer ~period:200_000 ~jitter:0 ~bursts:20 in
  let gen = gen_of segs in
  Series_gen.Private.define gen ~name:"activity"
    (Series_gen.union_spans gen
       [ Series_defs.Transmission; Series_defs.Outstanding ]);
  Series_gen.Private.define gen ~name:"app-during-loss"
    (Tdat_timerange.Span_set.inter
       (Series_gen.spans gen Series_defs.Send_app_limited)
       (Series_gen.spans gen Series_defs.All_loss));
  Alcotest.(check (list string)) "registered" [ "activity"; "app-during-loss" ]
    (Series_gen.custom_names gen);
  let custom_ratio name =
    Option.map (Series_gen.ratio_of_spans gen) (Series_gen.custom gen name)
  in
  (match custom_ratio "activity" with
  | Some r -> Alcotest.(check bool) "activity ratio positive" true (r > 0.)
  | None -> Alcotest.fail "activity missing");
  Alcotest.(check (option (float 1e-9))) "empty intersection" (Some 0.)
    (custom_ratio "app-during-loss");
  Alcotest.(check bool) "unknown name" true (Series_gen.custom gen "nope" = None)

let suite =
  suite @ [ Alcotest.test_case "custom series" `Quick test_custom_series ]
