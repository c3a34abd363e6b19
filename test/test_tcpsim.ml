(* End-to-end behaviour of the TCP simulator: transfers complete, losses
   recover, flow control throttles, probing survives zero windows. *)

open Tdat_tcpsim
module Engine = Tdat_netsim.Engine
module Loss = Tdat_netsim.Loss
module Seg = Tdat_pkt.Tcp_segment
module Endpoint = Tdat_pkt.Endpoint

let sender_ep = Endpoint.of_quad 10 0 0 1 33000
let receiver_ep = Endpoint.of_quad 10 0 0 2 179

type harness = {
  engine : Engine.t;
  conn : Connection.t;
  site : Connection.Site.t;
}

let make_harness ?(sender_cfg = Tcp_types.default)
    ?(receiver_cfg = Tcp_types.default) ?(upstream = Connection.path ())
    ?(local = Connection.path ~delay:50 ()) ?rng ?(auto_drain = true) () =
  let engine = Engine.create () in
  let site = Connection.Site.create ~engine ?rng ~local () in
  let conn =
    Connection.create ~engine ~sender_cfg ~receiver_cfg ~sender_ep
      ~receiver_ep ~upstream ~site ?rng ()
  in
  if auto_drain then begin
    let rcv = Connection.receiver conn in
    Receiver.set_on_data rcv (fun () ->
        Receiver.consume rcv (Receiver.available rcv))
  end;
  { engine; conn; site }

let run h = Engine.run h.engine

let payload n = String.init n (fun i -> Char.chr (i mod 256))

let test_handshake () =
  let h = make_harness () in
  Connection.start h.conn;
  run h;
  Alcotest.(check bool) "established" true
    (Sender.established (Connection.sender h.conn))

let test_small_transfer () =
  let h = make_harness () in
  Connection.start h.conn;
  let data = payload 10_000 in
  Sender.write (Connection.sender h.conn) data;
  run h;
  let rcv = Connection.receiver h.conn in
  Alcotest.(check int) "all bytes delivered" 10_000 (Receiver.Private.rcv_nxt rcv);
  Alcotest.(check bool) "all acked" true
    (Sender.all_acked (Connection.sender h.conn))

let test_payload_integrity () =
  let h = make_harness ~auto_drain:false () in
  Connection.start h.conn;
  let data = payload 30_000 in
  let received = Buffer.create 30_000 in
  let rcv = Connection.receiver h.conn in
  Receiver.set_on_data rcv (fun () ->
      Buffer.add_string received (Receiver.peek rcv);
      Receiver.consume rcv (Receiver.available rcv));
  Sender.write (Connection.sender h.conn) data;
  run h;
  Alcotest.(check string) "stream intact" data (Buffer.contents received)

let test_transfer_with_loss () =
  let rng = Tdat_rng.Rng.create 42 in
  let upstream =
    Connection.path ~data_loss:(Loss.bernoulli (Tdat_rng.Rng.split rng) 0.02)
      ()
  in
  let h = make_harness ~upstream ~rng () in
  Connection.start h.conn;
  let data = payload 200_000 in
  Sender.write (Connection.sender h.conn) data;
  run h;
  Alcotest.(check int) "all bytes delivered despite loss" 200_000
    (Receiver.Private.rcv_nxt (Connection.receiver h.conn));
  let c = Sender.counters (Connection.sender h.conn) in
  Alcotest.(check bool) "retransmissions happened" true
    (c.Sender.retransmissions > 0)

let test_heavy_loss_recovery () =
  let rng = Tdat_rng.Rng.create 7 in
  let upstream =
    Connection.path
      ~data_loss:
        (Loss.gilbert (Tdat_rng.Rng.split rng) ~p_enter:0.01 ~p_exit:0.2
           ~p_loss_bad:0.8)
      ()
  in
  let h = make_harness ~upstream ~rng () in
  Connection.start h.conn;
  Sender.write (Connection.sender h.conn) (payload 150_000);
  run h;
  Alcotest.(check int) "delivered through bursty loss" 150_000
    (Receiver.Private.rcv_nxt (Connection.receiver h.conn))

let test_ack_loss_recovery () =
  let rng = Tdat_rng.Rng.create 11 in
  let upstream =
    Connection.path ~ack_loss:(Loss.bernoulli (Tdat_rng.Rng.split rng) 0.05)
      ()
  in
  let h = make_harness ~upstream ~rng () in
  Connection.start h.conn;
  Sender.write (Connection.sender h.conn) (payload 100_000);
  run h;
  Alcotest.(check int) "delivered through ACK loss" 100_000
    (Receiver.Private.rcv_nxt (Connection.receiver h.conn))

let test_flow_control_limits_flight () =
  (* A receiver that never drains: the sender must stop at the advertised
     window, not flood. *)
  let receiver_cfg = { Tcp_types.default with max_adv_window = 8_000 } in
  let h = make_harness ~receiver_cfg ~auto_drain:false () in
  Connection.start h.conn;
  Sender.write (Connection.sender h.conn) (payload 100_000);
  Engine.run ~until:5_000_000 h.engine;
  let rcvd = Receiver.Private.rcv_nxt (Connection.receiver h.conn) in
  Alcotest.(check bool) "window respected"
    true
    (rcvd <= 8_000 + Tcp_types.default.Tcp_types.mss)

let test_slow_drain_completes () =
  (* Application drains 2 KB every 50 ms: transfer completes, throttled by
     flow control. *)
  let receiver_cfg = { Tcp_types.default with max_adv_window = 8_000 } in
  let h = make_harness ~receiver_cfg ~auto_drain:false () in
  let rcv = Connection.receiver h.conn in
  let rec drain () =
    let n = min 2_000 (Receiver.available rcv) in
    if n > 0 then Receiver.consume rcv n;
    ignore (Engine.schedule_after h.engine 50_000 drain)
  in
  ignore (Engine.schedule_after h.engine 50_000 drain);
  Connection.start h.conn;
  Sender.write (Connection.sender h.conn) (payload 60_000);
  Engine.run ~until:60_000_000 h.engine;
  Alcotest.(check int) "all delivered under slow drain" 60_000
    (Receiver.Private.rcv_nxt rcv)

let test_zero_window_probe () =
  (* Application stalls for 2 s with a tiny buffer; probing must resume the
     transfer once it drains. *)
  let receiver_cfg = { Tcp_types.default with max_adv_window = 4_000 } in
  let h = make_harness ~receiver_cfg ~auto_drain:false () in
  let rcv = Connection.receiver h.conn in
  ignore
    (Engine.schedule_after h.engine 2_000_000 (fun () ->
         let rec drain () =
           let n = Receiver.available rcv in
           if n > 0 then Receiver.consume rcv n;
           ignore (Engine.schedule_after h.engine 10_000 drain)
         in
         drain ()));
  Connection.start h.conn;
  Sender.write (Connection.sender h.conn) (payload 50_000);
  Engine.run ~until:120_000_000 h.engine;
  Alcotest.(check int) "completed after zero-window stall" 50_000
    (Receiver.Private.rcv_nxt rcv)

let test_rto_backoff () =
  let rto = Rto.create ~min_rto:200_000 ~max_rto:60_000_000 ~backoff_factor:2. in
  Rto.sample rto 10_000;
  let r0 = Rto.current rto in
  Rto.backoff rto;
  let r1 = Rto.current rto in
  Rto.backoff rto;
  let r2 = Rto.current rto in
  Alcotest.(check bool) "monotone backoff" true (r0 <= r1 && r1 <= r2);
  Alcotest.(check bool) "doubling" true (r2 >= 2 * r0);
  Rto.sample rto 10_000;
  Alcotest.(check int) "sample resets backoff" r0 (Rto.current rto)

let test_rto_clamping () =
  let rto = Rto.create ~min_rto:200_000 ~max_rto:1_000_000 ~backoff_factor:2. in
  Rto.sample rto 1_000;
  Alcotest.(check int) "clamped to min" 200_000 (Rto.current rto);
  for _ = 1 to 20 do
    Rto.backoff rto
  done;
  Alcotest.(check int) "clamped to max" 1_000_000 (Rto.current rto)

let test_dead_receiver_retransmits () =
  let h = make_harness () in
  Connection.start h.conn;
  Engine.run ~until:100_000 h.engine;
  Receiver.kill (Connection.receiver h.conn);
  Sender.write (Connection.sender h.conn) (payload 20_000);
  Engine.run ~until:30_000_000 h.engine;
  let c = Sender.counters (Connection.sender h.conn) in
  Alcotest.(check bool) "timeouts accumulated" true (c.Sender.timeouts >= 3);
  Alcotest.(check bool) "not acked" false
    (Sender.all_acked (Connection.sender h.conn))

let test_tahoe_and_reno_complete () =
  List.iter
    (fun flavor ->
      let rng = Tdat_rng.Rng.create 19 in
      let sender_cfg = { Tcp_types.default with flavor } in
      let upstream =
        Connection.path
          ~data_loss:(Loss.bernoulli (Tdat_rng.Rng.split rng) 0.02)
          ()
      in
      let h = make_harness ~sender_cfg ~upstream ~rng () in
      Connection.start h.conn;
      Sender.write (Connection.sender h.conn) (payload 120_000);
      run h;
      Alcotest.(check int) "delivered" 120_000
        (Receiver.Private.rcv_nxt (Connection.receiver h.conn)))
    [ Tcp_types.Tahoe; Tcp_types.Reno; Tcp_types.New_reno ]

let test_sniffer_sees_both_directions () =
  let h = make_harness () in
  Connection.start h.conn;
  Sender.write (Connection.sender h.conn) (payload 20_000);
  run h;
  let trace = Connection.Site.trace h.site in
  let segs = Tdat_pkt.Trace.segments trace in
  let data = List.exists (fun s -> Seg.is_data s) segs in
  let acks =
    List.exists (fun (s : Seg.t) -> Endpoint.equal s.src receiver_ep) segs
  in
  Alcotest.(check bool) "data packets captured" true data;
  Alcotest.(check bool) "ack packets captured" true acks

let test_local_overflow_drops () =
  (* 30 KB burst into a 5-packet local buffer on a slow local link: the
     local link must drop (receiver-local loss) and TCP must recover. *)
  let local = Connection.path ~delay:50 ~bandwidth_bps:10_000_000 ~buffer_pkts:5 () in
  let h = make_harness ~local () in
  Connection.start h.conn;
  Sender.write (Connection.sender h.conn) (payload 120_000);
  Engine.run ~until:120_000_000 h.engine;
  Alcotest.(check bool) "local drops happened" true
    (Connection.Site.local_drops h.site > 0);
  Alcotest.(check int) "recovered regardless" 120_000
    (Receiver.Private.rcv_nxt (Connection.receiver h.conn))

let suite =
  [
    Alcotest.test_case "handshake" `Quick test_handshake;
    Alcotest.test_case "small transfer" `Quick test_small_transfer;
    Alcotest.test_case "payload integrity" `Quick test_payload_integrity;
    Alcotest.test_case "transfer with loss" `Quick test_transfer_with_loss;
    Alcotest.test_case "heavy bursty loss" `Quick test_heavy_loss_recovery;
    Alcotest.test_case "ack loss" `Quick test_ack_loss_recovery;
    Alcotest.test_case "flow control" `Quick test_flow_control_limits_flight;
    Alcotest.test_case "slow drain completes" `Quick test_slow_drain_completes;
    Alcotest.test_case "zero-window probe" `Quick test_zero_window_probe;
    Alcotest.test_case "rto backoff" `Quick test_rto_backoff;
    Alcotest.test_case "rto clamping" `Quick test_rto_clamping;
    Alcotest.test_case "dead receiver" `Quick test_dead_receiver_retransmits;
    Alcotest.test_case "all flavors" `Quick test_tahoe_and_reno_complete;
    Alcotest.test_case "sniffer taps both ways" `Quick
      test_sniffer_sees_both_directions;
    Alcotest.test_case "local overflow" `Quick test_local_overflow_drops;
  ]
