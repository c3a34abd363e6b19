(* Tdat_audit: the runtime invariant validators.  Three layers of tests:
   randomized properties showing the span-set algebra always produces
   canonical sets (A001 never fires on library output), targeted
   corruption tests showing each validator detects a deliberately broken
   input, and end-to-end runs showing [Analyzer.analyze ~audit:true] is
   silent on the simulator scenarios the integration tests use. *)

open Tdat
open Tdat_bgpsim
open Tdat_timerange
module Checks = Tdat_audit.Checks
module Diag = Tdat_audit.Diag
module Seg = Tdat_pkt.Tcp_segment

let prop ?(count = 100) name arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

let has_code code diags =
  List.exists (fun (d : Diag.t) -> String.equal d.Diag.code code) diags

let check_clean what diags =
  if diags <> [] then
    Alcotest.failf "%s: unexpected audit findings:@\n%s" what
      (Format.asprintf "%a" Diag.pp_report diags)

(* --- A001 canonicality: randomized properties over the algebra ---------- *)

let arb_spans =
  let open QCheck.Gen in
  let gen_span =
    let* a = int_bound 5_000 in
    let* len = int_range 1 400 in
    return (Span.v a (a + len))
  in
  QCheck.make
    ~print:(fun l ->
      Format.asprintf "%a"
        (Format.pp_print_list ~pp_sep:Format.pp_print_space Span.pp)
        (Span_set.to_list (Span_set.of_spans l)))
    (list_size (int_bound 30) gen_span)

let canonical set = Checks.canonical_set set = []

let prop_of_spans_canonical =
  prop "of_spans is canonical" arb_spans (fun l ->
      canonical (Span_set.of_spans l))

let prop_union_canonical =
  prop "union is canonical" (QCheck.pair arb_spans arb_spans)
    (fun (a, b) ->
      canonical (Span_set.union (Span_set.of_spans a) (Span_set.of_spans b)))

let prop_inter_canonical =
  prop "inter is canonical" (QCheck.pair arb_spans arb_spans)
    (fun (a, b) ->
      canonical (Span_set.inter (Span_set.of_spans a) (Span_set.of_spans b)))

let prop_diff_canonical =
  prop "diff is canonical" (QCheck.pair arb_spans arb_spans)
    (fun (a, b) ->
      canonical (Span_set.diff (Span_set.of_spans a) (Span_set.of_spans b)))

let prop_complement_canonical =
  prop "complement is canonical" arb_spans (fun l ->
      canonical
        (Span_set.Private.complement ~within:(Span.v 0 6_000) (Span_set.of_spans l)))

(* --- A001 corruption: raw lists that are not canonical ------------------ *)

let test_a001_detects_corruption () =
  let overlap = [ Span.v 0 100; Span.v 50 150 ] in
  let adjacent = [ Span.v 0 100; Span.v 100 200 ] in
  let unsorted = [ Span.v 500 600; Span.v 0 100 ] in
  Alcotest.(check bool) "overlap flagged" true
    (has_code "A001" (Checks.Private.canonical_spans overlap));
  Alcotest.(check bool) "adjacency flagged" true
    (has_code "A001" (Checks.Private.canonical_spans adjacent));
  Alcotest.(check bool) "disorder flagged" true
    (has_code "A001" (Checks.Private.canonical_spans unsorted));
  check_clean "canonical list"
    (Checks.Private.canonical_spans [ Span.v 0 100; Span.v 200 300 ])

(* --- A002/A003: trace sanity on hand-built segments --------------------- *)

let src = Tdat_pkt.Endpoint.of_quad 10 1 0 1 20001
let dst = Tdat_pkt.Endpoint.of_quad 10 0 0 2 179

let seg ?(src = src) ?(dst = dst) ~ts ~seq ~ack ?(len = 0) ?(window = 65535) ()
    =
  Seg.v ~ts ~src ~dst ~seq ~ack ~len ~window
    ~payload:(String.make (max len 0) 'd')
    ~flags:Seg.ack_flags ()

(* A trace of the segments and the indices of all its packets. *)
let packets segs =
  let t = Tdat_pkt.Trace.of_segments segs in
  (t, Array.init (Tdat_pkt.Trace.length t) Fun.id)

let test_a002_detects_disorder () =
  check_clean "ordered trace" (Checks.monotone_times [| 10; 20 |]);
  let diags = Checks.monotone_times [| 20; 10 |] in
  Alcotest.(check bool) "disorder flagged" true (has_code "A002" diags);
  Alcotest.(check bool) "as an error" true (Diag.errors diags <> [])

let test_a003_detects_negative_fields () =
  let t, all = packets [ seg ~ts:10 ~seq:(-4) ~ack:0 () ] in
  let diags = Checks.seq_ack_sane t all in
  Alcotest.(check bool) "negative seq flagged" true (has_code "A003" diags);
  Alcotest.(check bool) "as an error" true (Diag.errors diags <> [])

let test_a003_detects_ack_regression () =
  let diags =
    let t, all =
      packets [ seg ~ts:10 ~seq:0 ~ack:1000 (); seg ~ts:20 ~seq:0 ~ack:400 () ]
    in
    Checks.seq_ack_sane t all
  in
  Alcotest.(check bool) "regression flagged" true (has_code "A003" diags);
  Alcotest.(check bool) "as a warning, not an error" true
    (diags <> [] && Diag.errors diags = []);
  (* The reverse direction keeps its own cursor: interleaved directions
     with individually monotone acks are clean. *)
  let t, all =
    packets
      [
        seg ~ts:10 ~seq:0 ~ack:1000 ();
        seg ~ts:15 ~src:dst ~dst:src ~seq:0 ~ack:50 ();
        seg ~ts:20 ~seq:0 ~ack:2000 ();
        seg ~ts:25 ~src:dst ~dst:src ~seq:0 ~ack:90 ();
      ]
  in
  check_clean "two monotone directions" (Checks.seq_ack_sane t all)

(* --- A004: ACK-shift conservation --------------------------------------- *)

(* Three ACKs (packets 0, 1 and 3) and, as packet 2, a copy of the
   second with another window: a shift that puts it in the second's
   place has rewritten that ACK. *)
let acks_trace, _ =
  packets
    [
      seg ~ts:10 ~seq:0 ~ack:100 ();
      seg ~ts:20 ~seq:0 ~ack:200 ();
      seg ~ts:20 ~seq:0 ~ack:200 ~window:1234 ();
      seg ~ts:30 ~seq:0 ~ack:300 ();
    ]

let acks = ([| 0; 1; 3 |], [| 10; 20; 30 |])

let conserved after =
  Checks.ack_shift_conserved acks_trace ~before:acks ~after ()

let test_a004_accepts_forward_shift () =
  check_clean "identity shift" (conserved acks);
  check_clean "uniform forward shift"
    (conserved (fst acks, Array.map (fun ts -> ts + 5) (snd acks)))

let test_a004_detects_dropped_segment () =
  Alcotest.(check bool) "drop flagged" true
    (has_code "A004" (conserved ([| 0; 3 |], [| 10; 30 |])))

let test_a004_detects_backward_shift () =
  Alcotest.(check bool) "backward move flagged" true
    (has_code "A004" (conserved (fst acks, [| 10; 5; 30 |])))

let test_a004_detects_rewritten_segment () =
  Alcotest.(check bool) "rewrite flagged" true
    (has_code "A004" (conserved ([| 0; 2; 3 |], snd acks)))

(* --- A005: factor accounting -------------------------------------------- *)

let test_a005_detects_bad_ratios () =
  Alcotest.(check bool) "ratio above one flagged" true
    (has_code "A005" (Checks.ratios_in_range [ ("cwnd", 1.5) ]));
  Alcotest.(check bool) "negative ratio flagged" true
    (has_code "A005" (Checks.ratios_in_range [ ("cwnd", -0.2) ]));
  Alcotest.(check bool) "nan flagged" true
    (has_code "A005" (Checks.ratios_in_range [ ("cwnd", Float.nan) ]));
  check_clean "boundary ratios"
    (Checks.ratios_in_range [ ("a", 0.0); ("b", 1.0); ("c", 0.37) ])

let test_a005_detects_oversized_series () =
  Alcotest.(check bool) "size beyond period flagged" true
    (has_code "A005" (Checks.sizes_bounded ~period:100 [ ("s", 150) ]));
  Alcotest.(check bool) "negative size flagged" true
    (has_code "A005" (Checks.sizes_bounded ~period:100 [ ("s", -1) ]));
  check_clean "bounded sizes"
    (Checks.sizes_bounded ~period:100 [ ("a", 0); ("b", 100) ])

(* --- Analyzer.analyze ~audit:true on the simulator scenarios ------------ *)

let audit_outcome ?(mrt = true) (o : Scenario.outcome) =
  let a =
    if mrt then
      Analyzer.analyze o.Scenario.trace ~flow:o.Scenario.flow
        ~mrt:o.Scenario.mrt ~audit:true
    else Analyzer.analyze o.Scenario.trace ~flow:o.Scenario.flow ~audit:true
  in
  a.Analyzer.audit

let scenario_clean name diags () = check_clean name diags

let test_scenario_timer_clean () =
  let result =
    Scenario.run ~seed:21
      [ Scenario.router ~table_prefixes:6000 ~timer_interval:200_000 ~quota:20 1 ]
  in
  scenario_clean "timer scenario"
    (audit_outcome (List.hd result.Scenario.outcomes))
    ()

let test_scenario_window_clean () =
  let rv_tcp = { Tdat_tcpsim.Tcp_types.default with max_adv_window = 16384 } in
  let result =
    Scenario.run ~seed:22 ~collector_tcp:rv_tcp
      [ Scenario.router ~table_prefixes:8000
          ~upstream:(Tdat_tcpsim.Connection.path ~delay:40_000 ()) 1 ]
  in
  scenario_clean "window-limited scenario"
    (audit_outcome (List.hd result.Scenario.outcomes))
    ()

let test_scenario_loss_clean () =
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
  scenario_clean "network-loss scenario"
    (audit_outcome (List.hd result.Scenario.outcomes))
    ()

let test_scenario_local_loss_clean () =
  let result =
    Scenario.run ~seed:25
      ~collector_local:
        (Tdat_tcpsim.Connection.path ~delay:50 ~bandwidth_bps:20_000_000
           ~buffer_pkts:6 ())
      [ Scenario.router ~table_prefixes:8000 1 ]
  in
  scenario_clean "receiver-local loss scenario"
    (audit_outcome (List.hd result.Scenario.outcomes))
    ()

let test_scenario_vendor_clean () =
  (* Vendor collector: no MRT archive, transfer reconstructed from the
     trace alone — the audit must hold on that path too. *)
  let result =
    Scenario.run ~seed:27 ~collector_kind:Collector.Vendor
      [ Scenario.router ~table_prefixes:3000 1 ]
  in
  scenario_clean "vendor scenario"
    (audit_outcome ~mrt:false (List.hd result.Scenario.outcomes))
    ()

let test_a007_accepts_identical_snapshots () =
  let snap = "{\"counters\":{\"x\":3},\"histograms\":{}}" in
  let diags =
    Tdat_audit.Checks.stable_snapshots_equal ~reference:snap ~candidate:snap ()
  in
  Alcotest.(check int) "identical snapshots are clean" 0 (List.length diags)

let test_a007_detects_divergence () =
  let diags =
    Tdat_audit.Checks.stable_snapshots_equal ~subject:"test-run"
      ~reference:"{\"a\":1}" ~candidate:"{\"a\":2}" ()
  in
  match diags with
  | [ d ] ->
      Alcotest.(check string) "code" "A007" d.Tdat_audit.Diag.code;
      Alcotest.(check bool) "is error" true (Tdat_audit.Diag.is_error d)
  | _ -> Alcotest.fail "expected exactly one A007 diagnostic"

let suite =
  [
    prop_of_spans_canonical;
    prop_union_canonical;
    prop_inter_canonical;
    prop_diff_canonical;
    prop_complement_canonical;
    Alcotest.test_case "A001 corrupted span lists" `Quick
      test_a001_detects_corruption;
    Alcotest.test_case "A002 disordered trace" `Quick test_a002_detects_disorder;
    Alcotest.test_case "A003 negative fields" `Quick
      test_a003_detects_negative_fields;
    Alcotest.test_case "A003 ack regression" `Quick
      test_a003_detects_ack_regression;
    Alcotest.test_case "A004 forward shift accepted" `Quick
      test_a004_accepts_forward_shift;
    Alcotest.test_case "A004 dropped segment" `Quick
      test_a004_detects_dropped_segment;
    Alcotest.test_case "A004 backward shift" `Quick
      test_a004_detects_backward_shift;
    Alcotest.test_case "A004 rewritten segment" `Quick
      test_a004_detects_rewritten_segment;
    Alcotest.test_case "A005 bad ratios" `Quick test_a005_detects_bad_ratios;
    Alcotest.test_case "A005 oversized series" `Quick
      test_a005_detects_oversized_series;
    Alcotest.test_case "A007 identical snapshots" `Quick
      test_a007_accepts_identical_snapshots;
    Alcotest.test_case "A007 divergent snapshots" `Quick
      test_a007_detects_divergence;
    Alcotest.test_case "audit clean: timer scenario" `Slow
      test_scenario_timer_clean;
    Alcotest.test_case "audit clean: window scenario" `Slow
      test_scenario_window_clean;
    Alcotest.test_case "audit clean: network-loss scenario" `Slow
      test_scenario_loss_clean;
    Alcotest.test_case "audit clean: local-loss scenario" `Slow
      test_scenario_local_loss_clean;
    Alcotest.test_case "audit clean: vendor scenario" `Slow
      test_scenario_vendor_clean;
  ]
