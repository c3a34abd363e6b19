(* BGP protocol substrate: codecs, table generation, packing, stream
   reassembly, MRT, and the MCT table-transfer end detector. *)

open Tdat_bgp
module Seg = Tdat_pkt.Tcp_segment

let ep1 = Tdat_pkt.Endpoint.of_quad 10 0 0 1 20000
let ep2 = Tdat_pkt.Endpoint.of_quad 10 0 0 2 179

(* --- Prefix ----------------------------------------------------------- *)

let test_prefix_basics () =
  let p = Prefix.of_quad 192 168 255 255 16 in
  Alcotest.(check string) "masked render" "192.168.0.0/16" (Prefix.to_string p);
  Alcotest.(check int) "encoded size" 3 (Prefix.encoded_size p);
  let default = Prefix.of_quad 1 2 3 4 0 in
  Alcotest.(check string) "default route" "0.0.0.0/0" (Prefix.to_string default);
  Alcotest.check_raises "bad length" (Invalid_argument "Prefix.v: bad length 33")
    (fun () -> ignore (Prefix.of_quad 0 0 0 0 33))

let test_prefix_codec () =
  let cases =
    [ Prefix.of_quad 10 0 0 0 8; Prefix.of_quad 203 0 113 0 24;
      Prefix.of_quad 198 51 100 128 25; Prefix.of_quad 0 0 0 0 0 ]
  in
  List.iter
    (fun p ->
      let buf = Buffer.create 8 in
      Prefix.encode buf p;
      let decoded, off =
        Prefix.decode_slice (Tdat_pkt.Slice.of_string (Buffer.contents buf)) 0
      in
      Alcotest.(check bool) (Prefix.to_string p ^ " roundtrips") true (p = decoded);
      Alcotest.(check int) "consumed all" (Buffer.length buf) off)
    cases

(* --- AS path / attributes ---------------------------------------------- *)

let test_as_path_codec () =
  let path = [ As_path.Seq [ 64500; 64501 ]; As_path.Set [ 64502; 64503 ] ] in
  let buf = Buffer.create 16 in
  As_path.encode buf path;
  let decoded =
    As_path.decode_slice (Tdat_pkt.Slice.of_string (Buffer.contents buf))
  in
  Alcotest.(check bool) "roundtrip" true (path = decoded)

let test_attr_codec () =
  let attrs =
    [
      Attr.Origin Attr.Igp;
      Attr.As_path (As_path.of_asns [ 1; 2; 3 ]);
      Attr.Next_hop 0x0A000001l;
      Attr.Med 42l;
      Attr.Local_pref 100l;
    ]
  in
  let buf = Buffer.create 64 in
  List.iter (Attr.encode buf) attrs;
  let decoded =
    Attr.decode_all_slice (Tdat_pkt.Slice.of_string (Buffer.contents buf))
  in
  Alcotest.(check int) "count" 5 (List.length decoded);
  Alcotest.(check bool) "same signature" true
    (Attr.signature attrs = Attr.signature decoded)

let test_attr_signature_order_independent () =
  let a = [ Attr.Origin Attr.Igp; Attr.Next_hop 1l ] in
  let b = [ Attr.Next_hop 1l; Attr.Origin Attr.Igp ] in
  Alcotest.(check bool) "order independent" true
    (Attr.signature a = Attr.signature b)

(* --- Messages ----------------------------------------------------------- *)

let sample_update =
  Msg.update
    ~attrs:[ Attr.Origin Attr.Igp; Attr.As_path (As_path.of_asns [ 7; 8 ]);
             Attr.Next_hop 0x0A000001l ]
    ~nlri:[ Prefix.of_quad 203 0 113 0 24; Prefix.of_quad 198 51 100 0 24 ]
    ()

let test_msg_roundtrip () =
  let msgs =
    [
      Msg.Open { Msg.version = 4; my_as = 64500; hold_time = 180; bgp_id = 7l };
      sample_update;
      Msg.Keepalive;
      Msg.Notification { Msg.code = 6; subcode = 2; data = "bye" };
    ]
  in
  List.iter
    (fun m ->
      let bytes = Msg.encode m in
      Alcotest.(check (option int)) "declared length matches"
        (Some (String.length bytes)) (Msg.peek_length bytes 0);
      match Msg.decode bytes 0 with
      | Some (decoded, fin) ->
          Alcotest.(check int) "consumed all" (String.length bytes) fin;
          Alcotest.(check bool) "roundtrip" true (decoded = m)
      | None -> Alcotest.fail "decode returned None")
    msgs

let test_msg_partial () =
  let bytes = Msg.encode sample_update in
  let partial = String.sub bytes 0 (String.length bytes - 1) in
  Alcotest.(check bool) "partial is None" true (Msg.decode partial 0 = None);
  Alcotest.(check bool) "short header is None" true
    (Msg.peek_length (String.sub bytes 0 10) 0 = None)

let test_msg_bad_marker () =
  let bytes = Bytes.of_string (Msg.encode Msg.Keepalive) in
  Bytes.set bytes 3 '\000';
  Alcotest.check_raises "marker check"
    (Bgp_error.Decode_error
       { context = "Msg.peek_length"; message = "bad marker" })
    (fun () -> ignore (Msg.decode (Bytes.to_string bytes) 0))

(* --- Table generation and packing --------------------------------------- *)

let gen_table n =
  Table.generate ~rng:(Tdat_rng.Rng.create 77) ~n_prefixes:n ()

let test_table_generation () =
  let t = gen_table 500 in
  Alcotest.(check int) "count" 500 (List.length t);
  let distinct =
    List.sort_uniq compare (List.map (fun r -> r.Table.prefix) t)
  in
  Alcotest.(check int) "all distinct" 500 (List.length distinct)

(* The routes a list of UPDATEs announces: the inverse of
   [Update_gen.pack]. *)
let unpack msgs =
  List.concat_map
    (function
      | Msg.Update u ->
          List.map
            (fun prefix -> { Table.prefix; attrs = u.Msg.attrs })
            u.Msg.nlri
      | Msg.Open _ | Msg.Keepalive | Msg.Notification _ -> [])
    msgs

let test_pack_unpack () =
  let t = gen_table 400 in
  let msgs = Update_gen.pack t in
  Alcotest.(check bool) "packs into fewer messages" true
    (List.length msgs < 400);
  List.iter
    (fun m ->
      Alcotest.(check bool) "within max size" true
        (String.length (Msg.encode m) <= Msg.max_size))
    msgs;
  let back = unpack msgs in
  let norm tbl =
    List.sort compare
      (List.map
         (fun (r : Table.route) -> (r.Table.prefix, Attr.signature r.Table.attrs))
         tbl)
  in
  Alcotest.(check bool) "unpack recovers routes" true (norm t = norm back)

let test_pack_respects_size_limit () =
  (* A single attribute group with many prefixes must split. *)
  let attrs = [ Attr.Origin Attr.Igp; Attr.Next_hop 9l ] in
  let t =
    List.init 2000 (fun i ->
        { Table.prefix = Prefix.of_quad (1 + (i / 65536)) (i / 256 mod 256) (i mod 256) 0 24;
          attrs })
  in
  let msgs = Update_gen.pack t in
  Alcotest.(check bool) "split into several" true (List.length msgs > 1);
  Alcotest.(check int) "no prefix lost" 2000
    (List.fold_left (fun acc m -> acc + Msg.nlri_count m) 0 msgs)

(* --- Stream reassembly --------------------------------------------------- *)

let data_seg ~ts ~seq payload =
  Seg.v ~ts ~src:ep1 ~dst:ep2 ~seq ~ack:0 ~flags:Seg.data_flags ~payload ()

let test_reassembly_in_order () =
  let r =
    Legacy_ref.Fresh_reasm.of_segments
      [ data_seg ~ts:1 ~seq:0 "hello "; data_seg ~ts:2 ~seq:6 "world" ]
  in
  Alcotest.(check string) "stream" "hello world" (Stream_reassembly.contiguous r);
  Alcotest.(check int) "delivery of byte 0" 1
    (Stream_reassembly.delivery_time r 0);
  Alcotest.(check int) "delivery of byte 8" 2
    (Stream_reassembly.delivery_time r 8)

let test_reassembly_out_of_order () =
  let r =
    Legacy_ref.Fresh_reasm.of_segments
      [ data_seg ~ts:1 ~seq:6 "world"; data_seg ~ts:5 ~seq:0 "hello " ]
  in
  Alcotest.(check string) "stream" "hello world" (Stream_reassembly.contiguous r);
  (* Byte 8 became deliverable only when the hole was filled at t=5. *)
  Alcotest.(check int) "hole-gated delivery" 5
    (Stream_reassembly.delivery_time r 8)

let test_reassembly_retransmission () =
  let r =
    Legacy_ref.Fresh_reasm.of_segments
      [
        data_seg ~ts:1 ~seq:0 "abc";
        data_seg ~ts:2 ~seq:0 "abc" (* dup *);
        data_seg ~ts:3 ~seq:3 "def";
      ]
  in
  Alcotest.(check string) "no duplication" "abcdef"
    (Stream_reassembly.contiguous r);
  Alcotest.(check int) "duplicate bytes counted" 3
    (Stream_reassembly.Private.duplicate_bytes r)

let test_reassembly_overlap_and_gaps () =
  let r =
    Legacy_ref.Fresh_reasm.of_segments
      [
        data_seg ~ts:1 ~seq:0 "abcd";
        data_seg ~ts:2 ~seq:2 "cdef" (* overlap *);
        data_seg ~ts:3 ~seq:10 "xx" (* gap at [6,10) *);
      ]
  in
  Alcotest.(check string) "overlap merged" "abcdef"
    (Stream_reassembly.contiguous r);
  Alcotest.(check int) "one open gap" 1 (Stream_reassembly.Private.total_gaps r)

(* --- Msg_reader ----------------------------------------------------------- *)

let test_msg_reader_extracts_with_timestamps () =
  let m1 = Msg.encode sample_update in
  let m2 = Msg.encode Msg.Keepalive in
  let stream = m1 ^ m2 in
  let half = String.length m1 / 2 in
  let segs =
    [
      data_seg ~ts:10 ~seq:0 (String.sub stream 0 half);
      data_seg ~ts:20 ~seq:half
        (String.sub stream half (String.length stream - half));
    ]
  in
  let msgs = Msg_reader.Private.extract (Legacy_ref.Fresh_reasm.of_segments segs) in
  Alcotest.(check int) "two messages" 2 (List.length msgs);
  let first = List.hd msgs in
  Alcotest.(check int) "first completed by second segment" 20
    first.Msg_reader.ts;
  Alcotest.(check int) "offset" 0 first.Msg_reader.offset

let test_msg_reader_from_trace () =
  let stream = Msg.encode sample_update in
  let trace =
    Tdat_pkt.Trace.of_segments
      [
        data_seg ~ts:5 ~seq:100 stream;
        (* ack in other direction must be ignored *)
        Seg.v ~ts:6 ~src:ep2 ~dst:ep1 ~seq:0 ~ack:100 ~flags:Seg.ack_flags ();
      ]
  in
  let flow = Tdat_pkt.Flow.v ~sender:ep1 ~receiver:ep2 in
  let msgs = Msg_reader.extract_from_trace trace ~flow in
  Alcotest.(check int) "one update" 1 (List.length msgs);
  Alcotest.(check int) "nlri count" 2
    (Msg.nlri_count (List.hd msgs).Msg_reader.msg)

(* --- MRT ------------------------------------------------------------------ *)

let test_mrt_roundtrip () =
  let records =
    [
      { Mrt.ts = 1_234_567_890_123_456; peer_as = 64500; local_as = 65000;
        peer_ip = 0x0A000001l; local_ip = 0x0A000002l; msg = sample_update };
      { Mrt.ts = 1_234_567_891_000_000; peer_as = 64500; local_as = 65000;
        peer_ip = 0x0A000001l; local_ip = 0x0A000002l; msg = Msg.Keepalive };
    ]
  in
  let back =
    Mrt.messages
      (Archive_file.read ~strict:true
         (Archive_file.encode (List.map (fun r -> Mrt.Message r) records)))
        .Mrt.entries
  in
  Alcotest.(check int) "count" 2 (List.length back);
  List.iter2
    (fun (a : Mrt.record) (b : Mrt.record) ->
      Alcotest.(check int) "microsecond ts" a.Mrt.ts b.Mrt.ts;
      Alcotest.(check int) "peer as" a.Mrt.peer_as b.Mrt.peer_as;
      Alcotest.(check bool) "msg" true (a.Mrt.msg = b.Mrt.msg))
    records back

(* --- MCT -------------------------------------------------------------------- *)

let prefixes_chunk lo n =
  List.init n (fun i ->
      Prefix.of_quad (1 + ((lo + i) / 65536)) ((lo + i) / 256 mod 256)
        ((lo + i) mod 256) 0 24)

let test_mct_simple () =
  (* 10 updates of 50 fresh prefixes each, then churn re-announcing. *)
  let updates =
    List.init 10 (fun i ->
        ((i * 1_000_000) + 1_000_000, prefixes_chunk (i * 50) 50))
    @ [ (11_500_000, prefixes_chunk 0 50) (* churn: all dups *) ]
  in
  match Mct.transfer_end ~start:0 updates with
  | None -> Alcotest.fail "no transfer found"
  | Some r ->
      Alcotest.(check int) "ends before churn" 10_000_000 r.Mct.end_ts;
      Alcotest.(check int) "all prefixes" 500 r.Mct.prefixes;
      Alcotest.(check int) "updates" 10 r.Mct.updates

let test_mct_quiet_gap () =
  let updates =
    [ (1_000_000, prefixes_chunk 0 100); (2_000_000, prefixes_chunk 100 100);
      (60_000_000, prefixes_chunk 200 100) (* after a long silence *) ]
  in
  let config = { Mct.Private.default_config with Mct.quiet_gap = 30_000_000 } in
  match Mct.transfer_end ~config ~start:0 updates with
  | None -> Alcotest.fail "no transfer found"
  | Some r -> Alcotest.(check int) "quiet gap ends transfer" 2_000_000 r.Mct.end_ts

let test_mct_respects_start () =
  let updates =
    [ (500, prefixes_chunk 0 100); (1_000_000, prefixes_chunk 100 100) ]
  in
  match Mct.transfer_end ~start:600 updates with
  | None -> Alcotest.fail "no transfer found"
  | Some r ->
      Alcotest.(check int) "skips pre-start updates" 100 r.Mct.prefixes

let test_mct_empty () =
  Alcotest.(check bool) "no updates" true (Mct.transfer_end ~start:0 [] = None)

let suite =
  [
    Alcotest.test_case "prefix basics" `Quick test_prefix_basics;
    Alcotest.test_case "prefix codec" `Quick test_prefix_codec;
    Alcotest.test_case "as_path codec" `Quick test_as_path_codec;
    Alcotest.test_case "attr codec" `Quick test_attr_codec;
    Alcotest.test_case "attr signature" `Quick test_attr_signature_order_independent;
    Alcotest.test_case "msg roundtrip" `Quick test_msg_roundtrip;
    Alcotest.test_case "msg partial" `Quick test_msg_partial;
    Alcotest.test_case "msg bad marker" `Quick test_msg_bad_marker;
    Alcotest.test_case "table generation" `Quick test_table_generation;
    Alcotest.test_case "pack/unpack" `Quick test_pack_unpack;
    Alcotest.test_case "pack size limit" `Quick test_pack_respects_size_limit;
    Alcotest.test_case "reassembly in order" `Quick test_reassembly_in_order;
    Alcotest.test_case "reassembly out of order" `Quick
      test_reassembly_out_of_order;
    Alcotest.test_case "reassembly retransmission" `Quick
      test_reassembly_retransmission;
    Alcotest.test_case "reassembly overlap" `Quick
      test_reassembly_overlap_and_gaps;
    Alcotest.test_case "msg reader timestamps" `Quick
      test_msg_reader_extracts_with_timestamps;
    Alcotest.test_case "msg reader from trace" `Quick test_msg_reader_from_trace;
    Alcotest.test_case "mrt roundtrip" `Quick test_mrt_roundtrip;
    Alcotest.test_case "mct simple" `Quick test_mct_simple;
    Alcotest.test_case "mct quiet gap" `Quick test_mct_quiet_gap;
    Alcotest.test_case "mct respects start" `Quick test_mct_respects_start;
    Alcotest.test_case "mct empty" `Quick test_mct_empty;
  ]
