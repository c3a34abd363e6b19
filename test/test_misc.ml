(* Odds and ends: behaviours not covered by the per-library suites —
   void periods, sniffer-location interpretation, packing order, MCT
   configuration knobs, big-endian pcap, speaker keepalives. *)

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

(* --- void periods flow from trace to series ------------------------------- *)

let test_void_periods () =
  let voids =
    Tdat_timerange.Span_set.of_span (Span.v 100_000 200_000)
  in
  let trace =
    Tdat_pkt.Trace.of_segments ~voids
      [ data ~ts:0 ~seq:0 1_000; ack ~ts:1_000 ~ack:1_000 ();
        data ~ts:300_000 ~seq:1_000 1_000; ack ~ts:301_000 ~ack:2_000 () ]
  in
  let p = Conn_profile.of_trace trace ~flow in
  let gen = Series_gen.generate p in
  Alcotest.(check int) "void series carries the period" 100_000
    (Series_gen.size gen Series_defs.Void_period)

(* --- sniffer-location interpretation -------------------------------------- *)

let loss_trace =
  [
    data ~ts:10 ~seq:0 100;
    data ~ts:20 ~seq:200 100 (* hole: upstream loss *);
    data ~ts:400_000 ~seq:100 100 (* late fill *);
    ack ~ts:401_000 ~ack:300 ();
  ]

let test_interpretation_near_receiver () =
  let p = Conn_profile.of_trace (Tdat_pkt.Trace.of_segments loss_trace) ~flow in
  let gen = Series_gen.generate p in
  Alcotest.(check bool) "upstream -> network loss" true
    (Series_gen.size gen Series_defs.Network_loss > 0);
  Alcotest.(check int) "no sender-local attribution" 0
    (Series_gen.size gen Series_defs.Send_local_loss)

let test_interpretation_near_sender () =
  let p = Conn_profile.of_trace (Tdat_pkt.Trace.of_segments loss_trace) ~flow in
  let config =
    { Series_gen.default_config with sniffer_location = `Near_sender }
  in
  let gen = Series_gen.generate ~config p in
  Alcotest.(check bool) "upstream -> sender-local loss" true
    (Series_gen.size gen Series_defs.Send_local_loss > 0);
  Alcotest.(check int) "no network attribution" 0
    (Series_gen.size gen Series_defs.Network_loss)

(* --- packing preserves attribute-group order ------------------------------- *)

let test_pack_order () =
  let open Tdat_bgp in
  let attrs_a = [ Attr.Origin Attr.Igp; Attr.Next_hop 1l ] in
  let attrs_b = [ Attr.Origin Attr.Igp; Attr.Next_hop 2l ] in
  let table =
    [
      { Table.prefix = Prefix.of_quad 10 0 0 0 24; attrs = attrs_a };
      { Table.prefix = Prefix.of_quad 10 0 1 0 24; attrs = attrs_b };
      { Table.prefix = Prefix.of_quad 10 0 2 0 24; attrs = attrs_a };
    ]
  in
  match Update_gen.pack table with
  | [ Msg.Update u1; Msg.Update u2 ] ->
      Alcotest.(check int) "group A batched" 2 (List.length u1.Msg.nlri);
      Alcotest.(check int) "group B second" 1 (List.length u2.Msg.nlri)
  | msgs ->
      Alcotest.failf "expected 2 updates, got %d" (List.length msgs)

let test_pack_empty_table () =
  Alcotest.(check int) "empty table packs to nothing" 0
    (List.length (Tdat_bgp.Update_gen.pack []))

(* --- MCT configuration knobs ----------------------------------------------- *)

let test_mct_dup_fraction () =
  let open Tdat_bgp in
  let fresh lo n =
    List.init n (fun i -> Prefix.of_quad 10 ((lo + i) / 256) ((lo + i) mod 256) 0 24)
  in
  (* An update that re-announces half its prefixes: churn at
     dup_fraction 0.4, still-transfer at 0.6. *)
  let updates =
    [
      (1_000, fresh 0 100);
      (2_000, fresh 50 100) (* 50% duplicates *);
      (3_000, fresh 150 100);
    ]
  in
  let end_at frac =
    let config = { Mct.Private.default_config with Mct.dup_fraction = frac } in
    (Option.get (Mct.transfer_end ~config ~start:0 updates)).Mct.end_ts
  in
  Alcotest.(check int) "strict cuts at the dup update" 1_000 (end_at 0.4);
  Alcotest.(check int) "lenient keeps going" 3_000 (end_at 0.6)

(* --- big-endian pcap -------------------------------------------------------- *)

let test_pcap_big_endian () =
  (* Byte-swap the little-endian global+record headers of a valid file
     and check the reader still accepts it. *)
  let trace =
    Tdat_pkt.Trace.of_segments [ data ~ts:1_000_000 ~seq:0 100 ]
  in
  let le = Bytes.of_string (Tdat_pkt.Pcap.encode trace) in
  let swap32 off =
    let a = Bytes.get le off and b = Bytes.get le (off + 1) in
    let c = Bytes.get le (off + 2) and d = Bytes.get le (off + 3) in
    Bytes.set le off d; Bytes.set le (off + 1) c;
    Bytes.set le (off + 2) b; Bytes.set le (off + 3) a
  in
  let swap16 off =
    let a = Bytes.get le off and b = Bytes.get le (off + 1) in
    Bytes.set le off b; Bytes.set le (off + 1) a
  in
  swap32 0; swap16 4; swap16 6; swap32 8; swap32 12; swap32 16; swap32 20;
  swap32 24; swap32 28; swap32 32; swap32 36;
  let decoded =
    (Tdat_pkt.Pcap.decode_result ~strict:true (Bytes.to_string le))
      .Tdat_pkt.Pcap.trace
  in
  Alcotest.(check int) "big-endian file read" 1 (Tdat_pkt.Trace.length decoded);
  Alcotest.(check int) "timestamp preserved" 1_000_000
    (List.hd (Tdat_pkt.Trace.segments decoded)).Seg.ts

(* --- speaker keepalives ------------------------------------------------------ *)

let test_speaker_keepalives_when_blocked () =
  (* A group member held back by a sibling that never acknowledges must
     emit periodic keepalives through the stall (Section II-B3: "only
     the keep-alive messages are periodically exchanged"). *)
  let engine = Tdat_netsim.Engine.create () in
  let module Connection = Tdat_tcpsim.Connection in
  let site =
    Connection.Site.create ~engine ~local:(Connection.path ~delay:50 ()) ()
  in
  let sender2_ep = Tdat_pkt.Endpoint.of_quad 10 1 0 1 20002 in
  let conn =
    Connection.create ~engine ~sender_ep ~receiver_ep
      ~upstream:(Connection.path ()) ~site ()
  in
  let conn2 =
    Connection.create ~engine ~sender_ep:sender2_ep ~receiver_ep
      ~upstream:(Connection.path ()) ~site ()
  in
  let rcv = Connection.receiver conn in
  Tdat_tcpsim.Receiver.set_on_data rcv (fun () ->
      Tdat_tcpsim.Receiver.consume rcv (Tdat_tcpsim.Receiver.available rcv));
  (* The sibling's receiver is dead from the start: it never establishes,
     so its group progress stays at zero and blocks the healthy member. *)
  Tdat_tcpsim.Receiver.kill (Connection.receiver conn2);
  let table =
    Tdat_bgp.Table.generate ~rng:(Tdat_rng.Rng.create 3) ~n_prefixes:600 ()
  in
  let speaker =
    Tdat_bgpsim.Speaker.create ~engine
      ~msgs:(Tdat_bgp.Update_gen.pack table)
      ~timer_interval:200_000 ~group_window:4
      ~keepalive_interval:5_000_000 ()
  in
  ignore
    (Tdat_bgpsim.Speaker.add_member speaker
       (Connection.sender conn));
  ignore
    (Tdat_bgpsim.Speaker.add_member speaker
       (Connection.sender conn2));
  Connection.start conn;
  Connection.start conn2;
  Tdat_bgpsim.Speaker.start speaker;
  Tdat_netsim.Engine.run ~until:31_000_000 engine;
  let keepalives =
    Tdat_pkt.Trace.segments (Connection.Site.trace site)
    |> List.filter (fun (s : Seg.t) ->
           s.Seg.len = 19 && Tdat_pkt.Endpoint.equal s.Seg.src sender_ep)
  in
  Alcotest.(check bool)
    (Printf.sprintf "periodic keepalives (%d seen)" (List.length keepalives))
    true
    (List.length keepalives >= 4)

let suite =
  [
    Alcotest.test_case "void periods" `Quick test_void_periods;
    Alcotest.test_case "interp near receiver" `Quick
      test_interpretation_near_receiver;
    Alcotest.test_case "interp near sender" `Quick
      test_interpretation_near_sender;
    Alcotest.test_case "pack order" `Quick test_pack_order;
    Alcotest.test_case "pack empty" `Quick test_pack_empty_table;
    Alcotest.test_case "mct dup fraction" `Quick test_mct_dup_fraction;
    Alcotest.test_case "pcap big endian" `Quick test_pcap_big_endian;
    Alcotest.test_case "speaker keepalives" `Quick
      test_speaker_keepalives_when_blocked;
  ]
