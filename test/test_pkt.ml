(* Packet model and pcap codec. *)

open Tdat_pkt
module Seg = Tcp_segment

let ep1 = Endpoint.of_quad 192 168 1 1 12345
let ep2 = Endpoint.of_quad 10 0 0 2 179

let seg ?(ts = 0) ?(seq = 0) ?(ack = 0) ?len ?(window = 65535) ?flags
    ?mss_opt ?payload ~src ~dst () =
  Seg.v ~ts ~src ~dst ~seq ~ack ?len ~window ?flags ?mss_opt ?payload ()

let test_endpoint () =
  Alcotest.(check string) "render" "192.168.1.1:12345" (Format.asprintf "%a" Endpoint.pp ep1);
  Alcotest.(check bool) "equal" true (Endpoint.equal ep1 ep1);
  Alcotest.(check bool) "distinct" false (Endpoint.equal ep1 ep2);
  Alcotest.check_raises "bad octet"
    (Invalid_argument "Endpoint.of_quad: a octet 256") (fun () ->
      ignore (Endpoint.of_quad 256 0 0 1 80));
  (* High first octet exercises the unsigned-compare path. *)
  let high = Endpoint.of_quad 200 0 0 1 80 in
  let low = Endpoint.of_quad 10 0 0 1 80 in
  Alcotest.(check bool) "unsigned order" true (Endpoint.compare low high < 0)

let test_segment () =
  let s = seg ~src:ep1 ~dst:ep2 ~payload:"hello" () in
  Alcotest.(check int) "len from payload" 5 s.Seg.len;
  Alcotest.(check int) "seq_end" 5 (Seg.seq_end s);
  Alcotest.(check bool) "is_data" true (Seg.is_data s);
  Alcotest.check_raises "len mismatch"
    (Invalid_argument "Tcp_segment.v: len disagrees with payload") (fun () ->
      ignore (seg ~src:ep1 ~dst:ep2 ~len:3 ~payload:"hello" ()))

let test_flow () =
  let flow = Flow.v ~sender:ep1 ~receiver:ep2 in
  let d = seg ~src:ep1 ~dst:ep2 ~payload:"x" () in
  let a = seg ~src:ep2 ~dst:ep1 () in
  let other = seg ~src:ep2 ~dst:(Endpoint.of_quad 1 2 3 4 5) () in
  Alcotest.(check bool) "to receiver" true
    (Legacy_ref.flow_direction flow d = Some Flow.To_receiver);
  Alcotest.(check bool) "to sender" true
    (Legacy_ref.flow_direction flow a = Some Flow.To_sender);
  Alcotest.(check bool) "foreign" true (Legacy_ref.flow_direction flow other = None);
  let rev = Flow.v ~sender:ep2 ~receiver:ep1 in
  Alcotest.(check bool) "key orientation-independent" true
    (Flow.key flow = Flow.key rev)

let test_trace () =
  let segs =
    [
      seg ~ts:30 ~src:ep2 ~dst:ep1 ();
      seg ~ts:10 ~src:ep1 ~dst:ep2 ~payload:"aa" ();
      seg ~ts:20 ~src:ep1 ~dst:ep2 ~payload:"bbb" ();
    ]
  in
  let t = Trace.of_segments segs in
  Alcotest.(check int) "length" 3 (Trace.length t);
  Alcotest.(check int) "bytes" 5 (Trace.total_bytes t);
  (match Trace.segments t with
  | first :: _ -> Alcotest.(check int) "sorted" 10 first.Seg.ts
  | [] -> Alcotest.fail "empty");
  Alcotest.(check int) "one connection" 1 (List.length (Trace.connections t));
  let flow = Trace.infer_sender t (List.hd (Trace.connections t)) in
  Alcotest.(check bool) "sender by volume" true
    (Endpoint.equal flow.Flow.sender ep1)

let test_trace_split () =
  let ep3 = Endpoint.of_quad 10 9 9 9 5000 in
  let t =
    Trace.of_segments
      [
        seg ~ts:1 ~src:ep1 ~dst:ep2 ~payload:"x" ();
        seg ~ts:2 ~src:ep3 ~dst:ep2 ~payload:"y" ();
        seg ~ts:3 ~src:ep2 ~dst:ep1 ();
      ]
  in
  Alcotest.(check int) "two connections" 2 (List.length (Trace.connections t));
  let sub = Legacy_ref.split_connection t ~sender:ep1 ~receiver:ep2 in
  Alcotest.(check int) "split keeps both directions" 2 (Trace.length sub)

let test_trace_partition () =
  (* partition_connections must agree with connections + the frozen
     per-connection split — same keys, same first-appearance order, same
     sub-traces — while scanning the trace only once. *)
  let ep3 = Endpoint.of_quad 10 9 9 9 5000 in
  let ep4 = Endpoint.of_quad 172 16 0 7 33000 in
  let t =
    Trace.of_segments
      [
        seg ~ts:1 ~src:ep1 ~dst:ep2 ~payload:"aa" ();
        seg ~ts:2 ~src:ep3 ~dst:ep2 ~payload:"b" ();
        seg ~ts:3 ~src:ep2 ~dst:ep1 ();
        seg ~ts:4 ~src:ep4 ~dst:ep2 ~payload:"cccc" ();
        seg ~ts:5 ~src:ep2 ~dst:ep3 ();
        seg ~ts:6 ~src:ep1 ~dst:ep2 ~payload:"dd" ();
      ]
  in
  let parts = Trace.partition_connections t in
  Alcotest.(check int) "one bucket per connection" 3 (List.length parts);
  Alcotest.(check bool) "keys in first-appearance order" true
    (List.for_all2
       (fun (a, b) (a', b') -> Endpoint.equal a a' && Endpoint.equal b b')
       (Trace.connections t) (List.map fst parts));
  List.iter
    (fun ((a, b), sub) ->
      let reference = Legacy_ref.split_connection t ~sender:a ~receiver:b in
      Alcotest.(check int)
        (Format.asprintf "bucket %a<->%a size" Endpoint.pp a Endpoint.pp b)
        (Trace.length reference) (Trace.length sub);
      Alcotest.(check bool) "same segments" true
        (List.for_all2
           (fun (x : Seg.t) (y : Seg.t) -> x = y)
           (Trace.segments reference) (Trace.segments sub));
      Alcotest.(check bool) "voids inherited" true
        (List.equal Tdat_timerange.Span.equal
           (Tdat_timerange.Span_set.to_list (Trace.voids sub))
           (Tdat_timerange.Span_set.to_list (Trace.voids t))))
    parts;
  Alcotest.(check int) "empty trace partitions to nothing" 0
    (List.length (Trace.partition_connections (Trace.of_segments [])))

let test_pcap_roundtrip () =
  let segs =
    [
      seg ~ts:1_500_000 ~src:ep1 ~dst:ep2 ~seq:0 ~flags:(Seg.flags ~syn:true ())
        ~mss_opt:1400 ();
      seg ~ts:1_501_000 ~src:ep2 ~dst:ep1
        ~flags:(Seg.flags ~syn:true ~ack:true ())
        ~mss_opt:1200 ~window:16384 ();
      seg ~ts:1_502_000 ~src:ep1 ~dst:ep2 ~seq:0 ~payload:"table transfer"
        ~flags:Seg.data_flags ();
      seg ~ts:1_503_000 ~src:ep2 ~dst:ep1 ~ack:14 ~window:16370
        ~flags:Seg.ack_flags ();
    ]
  in
  let t = Trace.of_segments segs in
  let decoded = (Pcap.decode_result ~strict:true (Pcap.encode t)).Pcap.trace in
  Alcotest.(check int) "packet count" 4 (Trace.length decoded);
  let d = List.nth (Trace.segments decoded) 2 in
  Alcotest.(check string) "payload survives" "table transfer" d.Seg.payload;
  Alcotest.(check int) "timestamp survives" 1_502_000 d.Seg.ts;
  let sa = List.nth (Trace.segments decoded) 1 in
  Alcotest.(check (option int)) "mss option survives" (Some 1200) sa.Seg.mss_opt;
  Alcotest.(check int) "window survives" 16384 sa.Seg.window;
  Alcotest.(check bool) "flags survive" true
    (sa.Seg.flags.Seg.syn && sa.Seg.flags.Seg.ack)

let test_pcap_rejects_garbage () =
  Alcotest.check_raises "bad magic" (Pcap.Decode_error "Pcap.decode: bad magic")
    (fun () -> ignore (Pcap.decode_result ~strict:true (String.make 32 'z')));
  Alcotest.check_raises "truncated"
    (Pcap.Decode_error "Pcap.decode: truncated header") (fun () ->
      ignore (Pcap.decode_result ~strict:true "abc"))

let test_pcap_file_io () =
  let t =
    Trace.of_segments [ seg ~ts:5 ~src:ep1 ~dst:ep2 ~payload:"disk" () ]
  in
  let path = Filename.temp_file "tdat_test" ".pcap" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Pcap.to_file path t;
      let back = (Pcap.read_file ~strict:true path).Pcap.trace in
      Alcotest.(check int) "read back" 1 (Trace.length back))

let prop name arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count:100 arb f)

let arb_segment =
  let gen =
    QCheck.Gen.(
      let* ts = int_bound 10_000_000 in
      let* seq = int_bound 1_000_000 in
      let* ack = int_bound 1_000_000 in
      let* window = int_bound 65535 in
      let* len = int_bound 1400 in
      let* flip = bool in
      let payload = String.make len 'p' in
      let src, dst = if flip then (ep1, ep2) else (ep2, ep1) in
      return
        (Seg.v ~ts ~src ~dst ~seq ~ack ~window ~flags:Seg.data_flags ~payload
           ()))
  in
  QCheck.make ~print:(fun s -> Format.asprintf "%a" Seg.pp s) gen

let qcheck_suite =
  [
    prop "pcap roundtrip preserves segments"
      (QCheck.list_of_size (QCheck.Gen.int_range 0 20) arb_segment)
      (fun segs ->
        let t = Trace.of_segments segs in
        let back = (Pcap.decode_result ~strict:true (Pcap.encode t)).Pcap.trace in
        List.for_all2
          (fun (a : Seg.t) (b : Seg.t) ->
            a.Seg.ts = b.Seg.ts && a.Seg.seq = b.Seg.seq
            && a.Seg.ack = b.Seg.ack && a.Seg.len = b.Seg.len
            && a.Seg.window = b.Seg.window
            && a.Seg.payload = b.Seg.payload
            && Endpoint.equal a.Seg.src b.Seg.src)
          (Trace.segments t) (Trace.segments back));
  ]

let suite =
  [
    Alcotest.test_case "endpoint" `Quick test_endpoint;
    Alcotest.test_case "segment" `Quick test_segment;
    Alcotest.test_case "flow" `Quick test_flow;
    Alcotest.test_case "trace" `Quick test_trace;
    Alcotest.test_case "trace split" `Quick test_trace_split;
    Alcotest.test_case "trace partition" `Quick test_trace_partition;
    Alcotest.test_case "pcap roundtrip" `Quick test_pcap_roundtrip;
    Alcotest.test_case "pcap garbage" `Quick test_pcap_rejects_garbage;
    Alcotest.test_case "pcap file io" `Quick test_pcap_file_io;
  ]
  @ qcheck_suite
