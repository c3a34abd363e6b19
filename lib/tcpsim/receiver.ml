module Seg = Tdat_pkt.Tcp_segment
module Engine = Tdat_netsim.Engine

type t = {
  engine : Engine.t;
  config : Tcp_types.config;
  local : Tdat_pkt.Endpoint.t;
  remote : Tdat_pkt.Endpoint.t;
  send : Seg.t -> unit;
  mutable rcv_nxt : int;
  mutable consumed : int;
  stream : Buffer.t; (* all contiguous bytes ever received *)
  mutable ooo : (int * string) list; (* out-of-order (seq, payload), sorted *)
  mutable unacked_segments : int;
  mutable delack_timer : Engine.timer option;
  mutable on_data : unit -> unit;
  mutable killed : bool;
}

let create ~engine ~config ~local ~remote ~send () =
  {
    engine;
    config;
    local;
    remote;
    send;
    rcv_nxt = 0;
    consumed = 0;
    stream = Buffer.create 4096;
    ooo = [];
    unacked_segments = 0;
    delack_timer = None;
    on_data = (fun () -> ());
    killed = false;
  }

let ooo_bytes t =
  List.fold_left (fun acc (_, p) -> acc + String.length p) 0 t.ooo

(* Out-of-order segments occupy the same receive buffer as deliverable
   data: while a sequence hole is open, buffered-but-undeliverable bytes
   close the advertised window just like unconsumed ones. *)
let buffered t = t.rcv_nxt - t.consumed + ooo_bytes t
let raw_window t = max 0 (t.config.Tcp_types.max_adv_window - buffered t)

(* Receiver-side silly-window-syndrome avoidance (RFC 1122): advertise
   zero until at least one MSS of buffer is free, rather than dribbling
   sub-MSS windows.  This is what makes genuine zero-window phases (and
   persist probing) appear on the wire. *)
let advertised_window t =
  let raw = raw_window t in
  if raw < t.config.Tcp_types.mss then 0 else raw

let available t = t.rcv_nxt - t.consumed
let rcv_nxt t = t.rcv_nxt
let set_on_data t f = t.on_data <- f
let kill t = t.killed <- true

let peek t =
  Buffer.sub t.stream t.consumed (t.rcv_nxt - t.consumed)

let send_ack ?(syn = false) t =
  (match t.delack_timer with
  | Some timer -> Engine.cancel timer
  | None -> ());
  t.delack_timer <- None;
  t.unacked_segments <- 0;
  let flags = Seg.flags ~ack:true ~syn () in
  let mss_opt = if syn then Some t.config.Tcp_types.mss else None in
  t.send
    (Seg.v ~ts:(Engine.now t.engine) ~src:t.local ~dst:t.remote ~seq:0
       ~ack:t.rcv_nxt ~window:(advertised_window t) ~flags ?mss_opt ())

let schedule_delack t =
  match t.delack_timer with
  | Some _ -> ()
  | None ->
      if t.config.Tcp_types.delack_time <= 0 then send_ack t
      else
        t.delack_timer <-
          Some
            (Engine.schedule_after t.engine t.config.Tcp_types.delack_time
               (fun () ->
                 t.delack_timer <- None;
                 send_ack t))

(* Insert an out-of-order payload, keeping the list sorted and dropping
   fully-duplicate segments. *)
let rec insert_ooo seq payload = function
  | [] -> [ (seq, payload) ]
  | (s, p) :: rest when seq < s -> (seq, payload) :: (s, p) :: rest
  | (s, p) :: rest when seq = s && String.length payload <= String.length p ->
      (s, p) :: rest
  | (s, p) :: rest -> (s, p) :: insert_ooo seq payload rest

(* Pull contiguous data out of the out-of-order store after rcv_nxt
   advanced. *)
let drain_ooo t =
  let progressed = ref true in
  while !progressed do
    progressed := false;
    match t.ooo with
    | (seq, payload) :: rest when seq <= t.rcv_nxt ->
        let plen = String.length payload in
        if seq + plen > t.rcv_nxt then begin
          let skip = t.rcv_nxt - seq in
          Buffer.add_substring t.stream payload skip (plen - skip);
          t.rcv_nxt <- seq + plen
        end;
        t.ooo <- rest;
        progressed := true
    | _ -> ()
  done

let on_segment t (seg : Seg.t) =
  if not t.killed then begin
    if seg.flags.Seg.syn then begin
      (* Passive open: answer SYN with SYN+ACK advertising our MSS. *)
      send_ack ~syn:true t
    end
    else if Seg.is_data seg then begin
      let before = t.rcv_nxt in
      let seq = seg.seq and plen = seg.len in
      let payload =
        if seg.payload = "" then String.make plen '\000' else seg.payload
      in
      if seq + plen <= t.rcv_nxt then
        (* Entirely duplicate (retransmission): immediate ACK. *)
        send_ack t
      else begin
        (* Flow-control enforcement: accept whatever physically fits the
           buffer (the advertised window may be SWS-rounded to zero). *)
        let room = raw_window t in
        if seq > t.rcv_nxt then begin
          (* Out of order: store (bounded by room heuristically) and send
             an immediate duplicate ACK. *)
          if room > 0 then t.ooo <- insert_ooo seq payload t.ooo;
          send_ack t
        end
        else begin
          let skip = t.rcv_nxt - seq in
          let usable = min (plen - skip) room in
          if usable > 0 then begin
            Buffer.add_substring t.stream payload skip usable;
            t.rcv_nxt <- t.rcv_nxt + usable;
            drain_ooo t
          end;
          if usable < plen - skip then
            (* Buffer full: data beyond the window is dropped; tell the
               sender where we stand right away. *)
            send_ack t
          else begin
            t.unacked_segments <- t.unacked_segments + 1;
            if t.unacked_segments >= t.config.Tcp_types.delack_segments then
              send_ack t
            else schedule_delack t
          end;
          if t.rcv_nxt > before then t.on_data ()
        end
      end
    end
  end

let consume t n =
  if n < 0 || n > available t then
    invalid_arg "Receiver.consume: more than available";
  let was_closed = advertised_window t < t.config.Tcp_types.mss in
  t.consumed <- t.consumed + n;
  (* Window update: if the window was (near) closed and consuming opened
     it, advertise the new window so the sender can resume. *)
  if was_closed && advertised_window t >= t.config.Tcp_types.mss then
    send_ack t

module Private = struct
  let rcv_nxt = rcv_nxt
end
