module Seg = Tdat_pkt.Tcp_segment
module Link = Tdat_netsim.Link
module Sniffer = Tdat_netsim.Sniffer
module Loss = Tdat_netsim.Loss

type path = {
  delay : Tdat_timerange.Time_us.t;
  jitter : Tdat_timerange.Time_us.t;
  bandwidth_bps : int;
  buffer_pkts : int;
  data_loss : Loss.t;
  ack_loss : Loss.t;
}

let path ?(delay = 1_000) ?(jitter = 0) ?(bandwidth_bps = 1_000_000_000)
    ?(buffer_pkts = 128) ?(data_loss = Loss.none) ?(ack_loss = Loss.none) () =
  { delay; jitter; bandwidth_bps; buffer_pkts; data_loss; ack_loss }

(* Routing key: (src, dst) endpoints of the segment. *)
module Route_key = struct
  type t = Tdat_pkt.Endpoint.t * Tdat_pkt.Endpoint.t

  let equal (a1, a2) (b1, b2) =
    Tdat_pkt.Endpoint.equal a1 b1 && Tdat_pkt.Endpoint.equal a2 b2

  let hash (a, b) =
    Hashtbl.hash
      (Int32.to_int a.Tdat_pkt.Endpoint.ip, a.Tdat_pkt.Endpoint.port,
       Int32.to_int b.Tdat_pkt.Endpoint.ip, b.Tdat_pkt.Endpoint.port)
end

module Routes = Hashtbl.Make (Route_key)

module Site = struct
  type t = {
    sniffer : Sniffer.t;
    down_data : Link.t; (* sniffer -> receiver host *)
    down_ack : Link.t;  (* receiver host -> sniffer *)
    to_receiver : (Seg.t -> unit) Routes.t;
    to_sender : (Seg.t -> unit) Routes.t;
  }

  let route table seg =
    match Routes.find_opt table (seg.Seg.src, seg.Seg.dst) with
    | Some handler -> handler seg
    | None -> () (* unknown flow: dropped silently *)

  let create ~engine ?rng ~local () =
    let sniffer = Sniffer.create ~engine () in
    let to_receiver = Routes.create 16 in
    let to_sender = Routes.create 16 in
    let rec site =
      lazy
        {
          sniffer;
          down_data =
            Link.create ~engine ~delay:local.delay
              ~jitter:local.jitter ?jitter_rng:rng
              ~bandwidth_bps:local.bandwidth_bps
              ~buffer_pkts:local.buffer_pkts ~loss:local.data_loss
              ~deliver:(fun seg -> route (Lazy.force site).to_receiver seg)
              ();
          down_ack =
            Link.create ~engine ~delay:local.delay
              ~jitter:local.jitter ?jitter_rng:rng
              ~bandwidth_bps:local.bandwidth_bps
              ~buffer_pkts:local.buffer_pkts ~loss:local.ack_loss
              ~deliver:(fun seg ->
                let t = Lazy.force site in
                Sniffer.tap t.sniffer ~then_:(route t.to_sender) seg)
              ();
          to_receiver;
          to_sender;
        }
    in
    Lazy.force site

  (* Entry point for packets arriving from the network side (after the
     upstream link): tap, then traverse the local link to the box. *)
  let ingress_from_network t seg =
    Sniffer.tap t.sniffer ~then_:(fun seg -> Link.send t.down_data seg) seg

  (* Entry point for packets the receiver host emits (ACKs). *)
  let egress_from_receiver t seg = Link.send t.down_ack seg

  let register_to_receiver t ~src ~dst handler =
    Routes.replace t.to_receiver (src, dst) handler

  let register_to_sender t ~src ~dst handler =
    Routes.replace t.to_sender (src, dst) handler

  let trace t = Sniffer.trace t.sniffer

  let local_drops t =
    let s = Link.stats t.down_data in
    s.Link.dropped_loss + s.Link.dropped_overflow
end

type t = {
  sender : Sender.t;
  receiver : Receiver.t;
  up_data : Link.t;
  flow : Tdat_pkt.Flow.t;
}

let create ~engine ?(sender_cfg = Tcp_types.default)
    ?(receiver_cfg = Tcp_types.default) ~sender_ep ~receiver_ep ~upstream
    ~site ?rng () =
  let receiver = ref None in
  let sender = ref None in
  (* Upstream data link: sender -> site (drops here are upstream losses,
     invisible to the sniffer). *)
  let up_data =
    Link.create ~engine ~delay:upstream.delay
      ~jitter:upstream.jitter ?jitter_rng:rng
      ~bandwidth_bps:upstream.bandwidth_bps ~buffer_pkts:upstream.buffer_pkts
      ~loss:upstream.data_loss
      ~deliver:(fun seg -> Site.ingress_from_network site seg)
      ()
  in
  (* Upstream ACK link: site -> sender. *)
  let up_ack =
    Link.create ~engine ~delay:upstream.delay
      ~jitter:upstream.jitter ?jitter_rng:rng
      ~bandwidth_bps:upstream.bandwidth_bps ~buffer_pkts:upstream.buffer_pkts
      ~loss:upstream.ack_loss
      ~deliver:(fun seg ->
        match !sender with Some s -> Sender.on_segment s seg | None -> ())
      ()
  in
  let snd =
    Sender.create ~engine ~config:sender_cfg ~local:sender_ep
      ~remote:receiver_ep
      ~send:(fun seg -> Link.send up_data seg)
      ?rng ()
  in
  let rcv =
    Receiver.create ~engine ~config:receiver_cfg ~local:receiver_ep
      ~remote:sender_ep
      ~send:(fun seg -> Site.egress_from_receiver site seg)
      ()
  in
  sender := Some snd;
  receiver := Some rcv;
  Site.register_to_receiver site ~src:sender_ep ~dst:receiver_ep (fun seg ->
      Receiver.on_segment rcv seg);
  Site.register_to_sender site ~src:receiver_ep ~dst:sender_ep (fun seg ->
      Link.send up_ack seg);
  {
    sender = snd;
    receiver = rcv;
    up_data;
    flow = Tdat_pkt.Flow.v ~sender:sender_ep ~receiver:receiver_ep;
  }

let sender t = t.sender
let receiver t = t.receiver
let start t = Sender.start t.sender

let upstream_drops t =
  let s = Link.stats t.up_data in
  s.Link.dropped_loss + s.Link.dropped_overflow

let flow t = t.flow
