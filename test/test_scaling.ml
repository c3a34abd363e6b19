(* Size-ratio guards ([Size_ratio]) on every layer whose cost grows with
   the input: the L-method knee, the timer detector, stream reassembly
   with its delivery-time lookups and under permanent holes, the
   streaming and list transfer-end scans, the MRT archive scan,
   connection partitioning, series generation and the span-set kernels.
   Each guard that has a quadratic counterpart — the frozen kernels in
   [Legacy_ref], the per-connection rescan, the pairwise span-set
   reference — is run against it too, to show the guard rejects it. *)

open Tdat_bgp
module Seg = Tdat_pkt.Tcp_segment
module Endpoint = Tdat_pkt.Endpoint
module Trace = Tdat_pkt.Trace
module Span = Tdat_timerange.Span
module Span_set = Tdat_timerange.Span_set

(* --- L-method knee ------------------------------------------------------ *)

(* The rank/value curve [Knee.knee_of_sorted] builds from [n] gap lengths:
   a plateau at a 200 ms timer with a tail of longer gaps. *)
let knee_curve n =
  let rng = Random.State.make [| n |] in
  let a =
    Array.init n (fun i ->
        if i < n * 4 / 5 then 200_000. +. Random.State.float rng 2_000.
        else 200_000. +. Random.State.float rng 5_000_000.)
  in
  Array.sort Float.compare a;
  Array.mapi (fun i v -> (float_of_int i, v)) a

let test_knee_linear () =
  Size_ratio.check "Knee.l_method" ~n:20_000 ~setup:knee_curve
    Tdat_stats.Knee.l_method

(* A smaller n than the guard above: the frozen kernel is O(n^2), so at
   8 x 20k points one run would take minutes. *)
let test_knee_legacy_rejected () =
  Size_ratio.check_rejects "Legacy_ref.l_method" ~n:300 ~setup:knee_curve
    Legacy_ref.l_method

(* --- timer detector ------------------------------------------------------ *)

(* The series of a transfer paced by a 200 ms timer: [n] one-segment
   bursts, each ACKed 1 ms later, so [n] app-limited gaps, nearly all in
   the cluster the detector validates and takes the median of. *)
let paced_series n =
  let rng = Random.State.make [| n |] in
  let ep1 = Endpoint.of_quad 10 0 0 1 20000
  and ep2 = Endpoint.of_quad 10 0 0 2 179 in
  let flow = Tdat_pkt.Flow.v ~sender:ep1 ~receiver:ep2 in
  let segs =
    List.concat
      (List.init n (fun i ->
           let ts = (200_000 * i) + Random.State.int rng 2_000
           and seq = 1_000 * i in
           [
             Seg.v ~ts ~src:ep1 ~dst:ep2 ~seq ~ack:0 ~len:1_000
               ~flags:Seg.data_flags ();
             Seg.v ~ts:(ts + 1_000) ~src:ep2 ~dst:ep1 ~seq:0
               ~ack:(seq + 1_000) ~window:65535 ~flags:Seg.ack_flags ();
           ]))
  in
  ( n,
    Tdat.Series_gen.generate
      (Tdat.Conn_profile.of_trace (Trace.of_segments segs) ~flow) )

let test_timer_linear () =
  Size_ratio.check "Detect_timer.detect" ~n:2_000 ~setup:paced_series
    (fun (n, gen) ->
      match Tdat.Detect_timer.detect gen with
      | Some r when r.Tdat.Detect_timer.gaps > 9 * n / 10 -> r
      | Some _ | None -> Alcotest.fail "no pronounced timer in the paced series")

(* --- stream reassembly + delivery times --------------------------------- *)

let ep1 = Endpoint.of_quad 10 0 0 1 20000
let ep2 = Endpoint.of_quad 10 0 0 2 179
let seg_len = 100
let payload = String.make seg_len 'x'

(* [n] segments with each adjacent pair swapped, so the frontier advances
   on every second segment, plus a duplicate of every tenth one. *)
let reordered_segments n =
  let seg i =
    Seg.v ~ts:(1_000 * (i + 1)) ~src:ep1 ~dst:ep2 ~seq:(i * seg_len) ~ack:0
      ~flags:Seg.data_flags ~payload ()
  in
  List.concat
    (List.init n (fun i ->
         let j = if i mod 2 = 0 then min (i + 1) (n - 1) else i - 1 in
         if i mod 10 = 0 then [ seg j; seg j ] else [ seg j ]))

(* The delivery time of every 50th byte below [frontier]: the lookups
   [Mct] and [Msg_reader] make once per message. *)
let query_deliveries frontier delivery_time =
  let acc = ref 0 and off = ref 0 in
  while !off < frontier do
    acc := !acc + delivery_time !off;
    off := !off + (seg_len / 2)
  done;
  !acc

let reassemble_and_query segs =
  let r = Legacy_ref.Fresh_reasm.create () in
  List.iter (Legacy_ref.Fresh_reasm.feed r) segs;
  query_deliveries
    (Stream_reassembly.Private.contiguous_length r)
    (Stream_reassembly.delivery_time r)

let legacy_reassemble_and_query segs =
  let r = Legacy_ref.reasm_create () in
  List.iter (Legacy_ref.reasm_feed r) segs;
  query_deliveries r.Legacy_ref.frontier (Legacy_ref.delivery_time r)

let test_reassembly_linear () =
  Size_ratio.check "Stream_reassembly feed + delivery_time" ~n:4_000
    ~setup:reordered_segments reassemble_and_query

let test_reassembly_legacy_rejected () =
  Size_ratio.check_rejects "legacy feed + list-scan delivery_time" ~n:1_000
    ~setup:reordered_segments legacy_reassemble_and_query

(* A lossy capture: [n] segments of which every other one never
   arrives, so every segment opens a hole of its own and no hole ever
   closes. *)
let lossy_segments n =
  List.init n (fun i ->
      Seg.v ~ts:(1_000 * (i + 1)) ~src:ep1 ~dst:ep2 ~seq:(2 * i * seg_len)
        ~ack:0 ~flags:Seg.data_flags ~payload ())

let test_reassembly_holes_linear () =
  Size_ratio.check "Stream_reassembly feed under permanent holes" ~n:5_000
    ~setup:lossy_segments (fun segs ->
      let r = Legacy_ref.Fresh_reasm.create () in
      List.iter (Legacy_ref.Fresh_reasm.feed r) segs;
      Stream_reassembly.Private.total_gaps r)

let test_reassembly_holes_legacy_rejected () =
  Size_ratio.check_rejects "list-interval feed under permanent holes" ~n:500
    ~setup:lossy_segments (fun segs ->
      let r = Legacy_ref.List_reasm.create () in
      List.iter (Legacy_ref.List_reasm.feed r) segs;
      Legacy_ref.List_reasm.total_gaps r)

(* The streaming transfer-end scan is guarded by the sequential-/24 test
   in [Test_equiv], which times [Mct.transfer_end_of_reasm] at 3750 and
   30000 messages. *)

(* --- MRT archive scan and the list transfer-end scan --------------------- *)

(* An archive of [n] records: the peer reaching Established, then [n - 1]
   UPDATEs 10 ms apart, each announcing four /24s no earlier one did. *)
let archive_entries n =
  let peer_ip = 0x0A000001l and local_ip = 0x0A000002l in
  let prefix k = Prefix.of_quad (11 + (k / 65536)) (k / 256 mod 256) (k mod 256) 0 24 in
  Mrt.State
    {
      Mrt.sc_ts = 1_000_000;
      sc_peer_as = 64500;
      sc_local_as = 65000;
      sc_peer_ip = peer_ip;
      sc_local_ip = local_ip;
      old_state = Mrt.Open_confirm;
      new_state = Mrt.Established;
    }
  :: List.init (n - 1) (fun i ->
         Mrt.Message
           {
             Mrt.ts = 1_010_000 + (10_000 * i);
             peer_as = 64500;
             local_as = 65000;
             peer_ip;
             local_ip;
             msg = Msg.update ~nlri:(List.init 4 (fun j -> prefix ((4 * i) + j))) ();
           })

(* [Archive.scan_file] reads each size-[n] archive from a file written
   with [Mrt.to_file_entries]. *)
let test_archive_scan_linear () =
  let files = ref [] in
  let archive_file n =
    let path = Filename.temp_file "tdat_scaling" ".mrt" in
    files := path :: !files;
    Mrt.to_file_entries path (archive_entries n);
    path
  in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove !files)
    (fun () ->
      Size_ratio.check "Archive.scan_file" ~n:2_000 ~setup:archive_file
        (fun path -> Tdat_study.Archive.scan_file path))

(* The same archive as the announcement batches [Transfer_id] hands the
   list scan for --mrt input. *)
let archive_batches n =
  List.filter_map
    (function
      | Mrt.Message { Mrt.ts; msg = Msg.Update u; _ } -> Some (ts, u.Msg.nlri)
      | Mrt.Message _ | Mrt.State _ -> None)
    (archive_entries n)

let test_list_transfer_end_linear () =
  Size_ratio.check "Mct.transfer_end" ~n:4_000 ~setup:archive_batches
    (fun batches -> Mct.transfer_end ~start:0 batches)

(* --- partition ---------------------------------------------------------- *)

(* [n] segments over [n / 16] connections, interleaved in time. *)
let multi_connection_trace n =
  let conns = max 1 (n / 16) in
  Trace.of_segments
    (List.init n (fun i ->
         let c = i mod conns in
         let client =
           Endpoint.of_quad 10 (c / 65536) (c / 256 mod 256) (c mod 256) 20000
         in
         Seg.v ~ts:i ~src:client ~dst:ep2 ~seq:(i / conns * 10) ~ack:0 ~len:10
           ~flags:Seg.data_flags ()))

let test_partition_linear () =
  Size_ratio.check "Trace.partition_connections" ~n:8_000
    ~setup:multi_connection_trace Trace.partition_connections

(* The per-connection rescan the single pass replaced: one O(packets)
   frozen split per connection. *)
let test_partition_rescan_rejected () =
  Size_ratio.check_rejects "connections + split_connection rescan" ~n:2_000
    ~setup:multi_connection_trace (fun t ->
      List.map
        (fun (a, b) -> Legacy_ref.split_connection t ~sender:a ~receiver:b)
        (Trace.connections t))

(* --- series generation -------------------------------------------------- *)

(* A profiled connection of [n] 1000-byte data segments 1 ms apart, every
   second one ACKed, with a retransmission after every 50th. *)
let profile_of_size n =
  let flow = Tdat_pkt.Flow.v ~sender:ep1 ~receiver:ep2 in
  let data ~ts ~seq =
    Seg.v ~ts ~src:ep1 ~dst:ep2 ~seq ~ack:0 ~len:1_000 ~flags:Seg.data_flags ()
  in
  let segs =
    List.concat
      (List.init n (fun i ->
           let ts = 1_000 * (i + 1) and seq = 1_000 * i in
           let ack =
             if i mod 2 = 1 then
               [
                 Seg.v ~ts:(ts + 500) ~src:ep2 ~dst:ep1 ~seq:0
                   ~ack:(seq + 1_000) ~window:65535 ~flags:Seg.ack_flags ();
               ]
             else []
           in
           let retx =
             if i mod 50 = 49 then [ data ~ts:(ts + 200) ~seq ] else []
           in
           (data ~ts ~seq :: retx) @ ack))
  in
  Tdat.Conn_profile.of_trace (Trace.of_segments segs) ~flow

let test_series_gen_linear () =
  Size_ratio.check "Series_gen.generate" ~n:2_000 ~setup:profile_of_size
    (fun p -> Tdat.Series_gen.generate p)

(* --- span-set kernels -------------------------------------------------- *)

(* Two sets of [n] spans each, offset so every span of one overlaps two
   of the other. *)
let span_set_pair n =
  let set off =
    Span_set.of_span_array
      (Array.init n (fun i -> Span.v ((i * 100) + off) ((i * 100) + off + 60)))
  in
  (set 0, set 50)

let kernels (a, b) =
  let within = Span.v 0 (Span_set.size a * 4) in
  Span_set.size (Span_set.union a b)
  + Span_set.size (Span_set.inter a b)
  + Span_set.size (Span_set.diff a b)
  + Span_set.size (Span_set.Private.complement ~within a)

let test_span_set_linear () =
  Size_ratio.check "Span_set union/inter/diff/complement" ~n:20_000
    ~setup:span_set_pair kernels

(* The pairwise reference model of [Test_timerange] intersects every
   span with every other. *)
let test_span_set_pairwise_rejected () =
  Size_ratio.check_rejects "pairwise reference inter" ~n:200
    ~setup:span_set_pair (fun (a, b) -> Test_timerange.ref_inter a b)

let suite =
  [
    Alcotest.test_case "knee: L-method is linear" `Quick test_knee_linear;
    Alcotest.test_case "knee: guard rejects the frozen O(n^2) kernel" `Quick
      test_knee_legacy_rejected;
    Alcotest.test_case "timer detector is linear" `Quick test_timer_linear;
    Alcotest.test_case "reassembly: feed + delivery_time is linear" `Quick
      test_reassembly_linear;
    Alcotest.test_case "reassembly: guard rejects the list scan" `Quick
      test_reassembly_legacy_rejected;
    Alcotest.test_case "reassembly: feed under permanent holes is linear"
      `Quick test_reassembly_holes_linear;
    Alcotest.test_case "reassembly: guard rejects the list-interval feed"
      `Quick test_reassembly_holes_legacy_rejected;
    Alcotest.test_case "archive scan is linear" `Quick
      test_archive_scan_linear;
    Alcotest.test_case "list transfer-end scan is linear" `Quick
      test_list_transfer_end_linear;
    Alcotest.test_case "partition is linear" `Quick test_partition_linear;
    Alcotest.test_case "partition: guard rejects the rescan" `Quick
      test_partition_rescan_rejected;
    Alcotest.test_case "series generation is linear" `Quick
      test_series_gen_linear;
    Alcotest.test_case "span-set kernels are linear" `Quick
      test_span_set_linear;
    Alcotest.test_case "span-set: guard rejects the pairwise reference" `Quick
      test_span_set_pairwise_rejected;
  ]
