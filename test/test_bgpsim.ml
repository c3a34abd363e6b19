(* Scenario-level behaviour: table transfers complete, archives match
   ground truth, timer-driven senders leave gaps, peer groups block. *)

open Tdat_bgpsim
module Msg = Tdat_bgp.Msg
module Trace = Tdat_pkt.Trace
module Seg = Tdat_pkt.Tcp_segment

let run_one ?timer_interval ?(quota = max_int) ?(prefixes = 400) () =
  let r = Scenario.router ?timer_interval ~quota ~table_prefixes:prefixes 1 in
  let result = Scenario.run ~seed:5 [ r ] in
  match result.Scenario.outcomes with
  | [ o ] -> (result, o)
  | _ -> Alcotest.fail "expected one outcome"

let test_transfer_completes () =
  let _, o = run_one () in
  Alcotest.(check bool) "speaker finished" true o.Scenario.speaker_finished;
  Alcotest.(check bool) "trace non-empty" true (Trace.length o.Scenario.trace > 0)

let test_mrt_matches_table () =
  let _, o = run_one () in
  let announced =
    o.Scenario.mrt
    |> List.concat_map (fun (r : Tdat_bgp.Mrt.record) ->
           match r.Tdat_bgp.Mrt.msg with
           | Msg.Update u -> u.Msg.nlri
           | _ -> [])
    |> List.sort_uniq compare
  in
  let truth =
    o.Scenario.table
    |> List.map (fun (r : Tdat_bgp.Table.route) -> r.Tdat_bgp.Table.prefix)
    |> List.sort_uniq compare
  in
  Alcotest.(check int) "archive holds the whole table" (List.length truth)
    (List.length announced);
  Alcotest.(check bool) "same prefixes" true (announced = truth)

let data_gaps trace =
  (* Inter-arrival gaps between consecutive data packets, µs. *)
  let data =
    Trace.segments trace |> List.filter Seg.is_data
    |> List.map (fun (s : Seg.t) -> s.ts)
  in
  let rec gaps = function
    | a :: (b :: _ as rest) -> (b - a) :: gaps rest
    | _ -> []
  in
  gaps data

let test_timer_gaps_visible () =
  let _, o = run_one ~timer_interval:200_000 ~quota:5 ~prefixes:600 () in
  let gaps = data_gaps o.Scenario.trace in
  let long = List.filter (fun g -> g > 150_000) gaps in
  Alcotest.(check bool) "many ~200ms gaps" true (List.length long > 10);
  Alcotest.(check bool) "speaker finished" true o.Scenario.speaker_finished

let test_greedy_sender_fast () =
  let _, o_greedy = run_one ~prefixes:600 () in
  let _, o_paced = run_one ~timer_interval:200_000 ~quota:5 ~prefixes:600 () in
  let duration o =
    match Trace.Private.window o.Scenario.trace with
    | Some w -> Tdat_timerange.Span.length w
    | None -> 0
  in
  Alcotest.(check bool) "paced transfer is much slower" true
    (duration o_paced > 3 * duration o_greedy)

let test_concurrent_transfers () =
  let routers = List.init 8 (fun i -> Scenario.router ~table_prefixes:300 (i + 1)) in
  let result = Scenario.run ~seed:9 ~collector_proc_time:400 routers in
  List.iter
    (fun o ->
      Alcotest.(check bool)
        (Printf.sprintf "router %d finished" o.Scenario.spec.Scenario.router_id)
        true o.Scenario.speaker_finished)
    result.Scenario.outcomes;
  (* Per-connection traces partition the site trace's data packets. *)
  let total =
    List.fold_left
      (fun acc o -> acc + Trace.length o.Scenario.trace)
      0 result.Scenario.outcomes
  in
  Alcotest.(check int) "connection traces partition the site trace"
    (Trace.length result.Scenario.site_trace) total

let test_vendor_collector_has_no_mrt () =
  let r = Scenario.router ~table_prefixes:200 1 in
  let result = Scenario.run ~seed:3 ~collector_kind:Collector.Vendor [ r ] in
  let o = List.hd result.Scenario.outcomes in
  Alcotest.(check int) "no archive" 0 (List.length o.Scenario.mrt);
  Alcotest.(check bool) "still finished" true o.Scenario.speaker_finished

let test_peer_group_lockstep () =
  (* Without failures both members finish. *)
  let r = Scenario.router ~table_prefixes:400 1 in
  let pg = Scenario.run_peer_group ~seed:11 r in
  Alcotest.(check bool) "quagga finished" true
    pg.Scenario.quagga_outcome.Scenario.speaker_finished;
  Alcotest.(check bool) "vendor finished" true
    pg.Scenario.vendor_outcome.Scenario.speaker_finished

let test_peer_group_blocking () =
  (* Vendor collector dies mid-transfer: the quagga member must stall for
     the hold time (180 s) and then complete. *)
  let r =
    Scenario.router ~table_prefixes:800 ~timer_interval:200_000 ~quota:5
      ~group_window:32 1
  in
  let pg =
    Scenario.run_peer_group ~seed:13 ~vendor_fail_at:500_000
      ~deadline:1_800_000_000 r
  in
  Alcotest.(check bool) "vendor member failed" true
    pg.Scenario.vendor_outcome.Scenario.speaker_failed;
  (match pg.Scenario.vendor_removed_at with
  | None -> Alcotest.fail "vendor member never removed"
  | Some at ->
      Alcotest.(check bool) "removed after ~hold time" true
        (at >= 170_000_000));
  Alcotest.(check bool) "quagga eventually finished" true
    pg.Scenario.quagga_outcome.Scenario.speaker_finished;
  (* The quagga transfer must contain a long update-free period — only
     keepalives flow while the group is blocked. *)
  let update_ts =
    Trace.segments pg.Scenario.quagga_outcome.Scenario.trace
    |> List.filter (fun (s : Seg.t) -> s.len > 2 * Msg.header_size)
    |> List.map (fun (s : Seg.t) -> s.ts)
  in
  let rec max_gap acc = function
    | a :: (b :: _ as rest) -> max_gap (max acc (b - a)) rest
    | _ -> acc
  in
  Alcotest.(check bool) "blocking gap > 100s" true
    (max_gap 0 update_ts > 100_000_000)

let test_collector_failure_stalls_transfer () =
  let r = Scenario.router ~table_prefixes:2000 1 in
  let result =
    Scenario.run ~seed:17 ~collector_fail_at:15_000
      ~deadline:600_000_000 [ r ]
  in
  let o = List.hd result.Scenario.outcomes in
  Alcotest.(check bool) "transfer did not finish" false
    o.Scenario.speaker_finished

let suite =
  [
    Alcotest.test_case "transfer completes" `Quick test_transfer_completes;
    Alcotest.test_case "mrt matches table" `Quick test_mrt_matches_table;
    Alcotest.test_case "timer gaps visible" `Quick test_timer_gaps_visible;
    Alcotest.test_case "greedy vs paced" `Quick test_greedy_sender_fast;
    Alcotest.test_case "concurrent transfers" `Quick test_concurrent_transfers;
    Alcotest.test_case "vendor has no mrt" `Quick
      test_vendor_collector_has_no_mrt;
    Alcotest.test_case "peer group lockstep" `Quick test_peer_group_lockstep;
    Alcotest.test_case "peer group blocking" `Slow test_peer_group_blocking;
    Alcotest.test_case "collector failure" `Quick
      test_collector_failure_stalls_transfer;
  ]
