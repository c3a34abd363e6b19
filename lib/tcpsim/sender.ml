module Seg = Tdat_pkt.Tcp_segment
module Engine = Tdat_netsim.Engine

type counters = {
  segments_sent : int;
  bytes_sent : int;
  retransmissions : int;
  timeouts : int;
  fast_retransmits : int;
  probes : int;
}

type t = {
  engine : Engine.t;
  config : Tcp_types.config;
  local : Tdat_pkt.Endpoint.t;
  remote : Tdat_pkt.Endpoint.t;
  send : Seg.t -> unit;
  rng : Tdat_rng.Rng.t option;
  buf : Buffer.t; (* the whole application stream *)
  mutable established : bool;
  mutable syn_time : Tdat_timerange.Time_us.t;
  mutable snd_una : int;
  mutable snd_nxt : int;
  mutable cwnd : int;
  mutable ssthresh : int;
  mutable rwnd : int;
  mutable last_peer_window : int;
  mutable dup_acks : int;
  mutable in_recovery : bool;
  mutable recover : int;
  rto : Rto.t;
  mutable rtx_timer : Engine.timer option;
  mutable syn_timer : Engine.timer option;
  (* One RTT sample in flight: (covering stream offset, send time). *)
  mutable rtt_sample : (int * Tdat_timerange.Time_us.t) option;
  mutable persist_timer : Engine.timer option;
  mutable persist_interval : Tdat_timerange.Time_us.t;
  mutable probing : bool;
  mutable stopped : bool;
  (* counters *)
  mutable segments_sent : int;
  mutable bytes_sent : int;
  mutable retransmissions : int;
  mutable timeouts : int;
  mutable fast_retransmits : int;
  mutable probes_sent : int;
}

let create ~engine ~config ~local ~remote ~send ?rng () =
  if config.Tcp_types.window_update_loss_prob > 0. && rng = None then
    invalid_arg "Sender.create: window_update_loss_prob needs an rng";
  {
    engine;
    config;
    local;
    remote;
    send;
    rng;
    buf = Buffer.create 4096;
    established = false;
    syn_time = 0;
    snd_una = 0;
    snd_nxt = 0;
    cwnd = config.Tcp_types.mss * config.Tcp_types.init_cwnd_segments;
    ssthresh = max_int / 2;
    rwnd = config.Tcp_types.max_adv_window;
    last_peer_window = config.Tcp_types.max_adv_window;
    dup_acks = 0;
    in_recovery = false;
    recover = 0;
    rto =
      Rto.create ~min_rto:config.Tcp_types.min_rto
        ~max_rto:config.Tcp_types.max_rto
        ~backoff_factor:config.Tcp_types.rto_backoff;
    rtx_timer = None;
    syn_timer = None;
    rtt_sample = None;
    persist_timer = None;
    persist_interval = config.Tcp_types.persist_interval;
    probing = false;
    stopped = false;
    segments_sent = 0;
    bytes_sent = 0;
    retransmissions = 0;
    timeouts = 0;
    fast_retransmits = 0;
    probes_sent = 0;
  }

let established t = t.established
let written t = Buffer.length t.buf
let acked t = t.snd_una
let in_flight t = t.snd_nxt - t.snd_una
let all_acked t = t.snd_una >= written t

let counters t =
  {
    segments_sent = t.segments_sent;
    bytes_sent = t.bytes_sent;
    retransmissions = t.retransmissions;
    timeouts = t.timeouts;
    fast_retransmits = t.fast_retransmits;
    probes = t.probes_sent;
  }

let cancel_timer = function Some timer -> Engine.cancel timer | None -> ()

let stop t =
  t.stopped <- true;
  cancel_timer t.rtx_timer;
  cancel_timer t.syn_timer;
  cancel_timer t.persist_timer;
  t.rtx_timer <- None;
  t.syn_timer <- None;
  t.persist_timer <- None

let emit_segment t ~seq ~len ~retransmission =
  let payload = Buffer.sub t.buf seq len in
  let seg =
    Seg.v ~ts:(Engine.now t.engine) ~src:t.local ~dst:t.remote ~seq
      ~ack:0 ~window:t.config.Tcp_types.max_adv_window
      ~flags:Seg.data_flags ~payload ()
  in
  t.segments_sent <- t.segments_sent + 1;
  t.bytes_sent <- t.bytes_sent + len;
  if retransmission then begin
    t.retransmissions <- t.retransmissions + 1;
    (* Karn's rule: outstanding RTT samples are invalid once anything is
       retransmitted. *)
    t.rtt_sample <- None
  end
  else if t.rtt_sample = None then
    t.rtt_sample <- Some (seq + len, Engine.now t.engine);
  t.send seg

let rec arm_rtx t =
  cancel_timer t.rtx_timer;
  t.rtx_timer <-
    Some (Engine.schedule_after t.engine (Rto.current t.rto) (fun () -> on_rto t))

and on_rto t =
  t.rtx_timer <- None;
  if (not t.stopped) && in_flight t > 0 then begin
    t.timeouts <- t.timeouts + 1;
    let flight = in_flight t in
    let mss = t.config.Tcp_types.mss in
    t.ssthresh <- max (flight / 2) (2 * mss);
    t.cwnd <- mss;
    t.dup_acks <- 0;
    t.in_recovery <- false;
    Rto.backoff t.rto;
    let len = min mss (t.snd_nxt - t.snd_una) in
    emit_segment t ~seq:t.snd_una ~len ~retransmission:true;
    arm_rtx t
  end

let arm_persist t =
  if t.persist_timer = None && not t.stopped then begin
    t.probing <- true;
    let rec fire () =
      t.persist_timer <- None;
      if (not t.stopped) && t.probing && t.rwnd = 0 then begin
        (* Zero-window probe: one byte of real data at snd_una if
           unsent data exists there, else at snd_nxt. *)
        if written t > t.snd_nxt || in_flight t > 0 then begin
          let seq = if in_flight t > 0 then t.snd_una else t.snd_nxt in
          let fresh = seq = t.snd_nxt in
          if fresh then t.snd_nxt <- t.snd_nxt + 1;
          t.probes_sent <- t.probes_sent + 1;
          emit_segment t ~seq ~len:1 ~retransmission:(not fresh);
          t.persist_interval <-
            min (2 * t.persist_interval) t.config.Tcp_types.max_rto;
          t.persist_timer <-
            Some (Engine.schedule_after t.engine t.persist_interval fire)
        end
      end
    in
    t.persist_timer <-
      Some (Engine.schedule_after t.engine t.persist_interval fire)
  end

let rec try_send t =
  if t.established && not t.stopped then begin
    let mss = t.config.Tcp_types.mss in
    let window = min t.cwnd t.rwnd in
    let progressed = ref true in
    while !progressed do
      progressed := false;
      let avail = written t - t.snd_nxt in
      let usable = t.snd_una + window - t.snd_nxt in
      if avail > 0 && usable > 0 then begin
        let len = min (min mss avail) usable in
        (* Silly-window avoidance: hold back a sub-MSS tail that does not
           fill the usable window. *)
        if len = mss || len = avail || len = usable then begin
          emit_segment t ~seq:t.snd_nxt ~len ~retransmission:false;
          t.snd_nxt <- t.snd_nxt + len;
          if t.rtx_timer = None then arm_rtx t;
          progressed := true
        end
      end
    done;
    if t.rwnd = 0 && in_flight t = 0 && written t > t.snd_nxt then
      arm_persist t
  end

and process_ack t (seg : Seg.t) =
  let mss = t.config.Tcp_types.mss in
  (* The zero-window probe-discard bug (Section IV-B): a window-update
     ACK races the pending probe; the probe is discarded although its
     sequence number was already consumed.  The byte is never
     transmitted until loss recovery fills the hole — at a receiver-side
     sniffer this reads as an upstream loss during a zero-window phase. *)
  (if
     t.probing && seg.window > 0
     && t.config.Tcp_types.window_update_loss_prob > 0.
     && written t > t.snd_nxt
     &&
     match t.rng with
     | Some rng ->
         Tdat_rng.Rng.bernoulli rng t.config.Tcp_types.window_update_loss_prob
     | None -> false
   then begin
     t.snd_nxt <- t.snd_nxt + 1;
     (* The phantom byte is "outstanding": the timeout path recovers it
        even if no further traffic produces duplicate ACKs. *)
     if t.rtx_timer = None then arm_rtx t
   end);
  let window_changed = seg.window <> t.last_peer_window in
  t.last_peer_window <- seg.window;
  t.rwnd <- seg.window;
  if t.rwnd > 0 && t.probing then begin
    t.probing <- false;
    cancel_timer t.persist_timer;
    t.persist_timer <- None;
    t.persist_interval <- t.config.Tcp_types.persist_interval
  end;
  let ack = seg.ack in
  if ack > t.snd_una then begin
    let newly = ack - t.snd_una in
    t.snd_una <- ack;
    t.dup_acks <- 0;
    (* RTT sampling (Karn-safe: sample cleared on any retransmit). *)
    (match t.rtt_sample with
    | Some (cover, sent_at) when ack >= cover ->
        Rto.sample t.rto (Engine.now t.engine - sent_at);
        t.rtt_sample <- None
    | _ -> ());
    Rto.reset_backoff t.rto;
    if t.in_recovery then begin
      if ack >= t.recover then begin
        (* Full ACK: leave fast recovery. *)
        t.in_recovery <- false;
        t.cwnd <- t.ssthresh
      end
      else begin
        match t.config.Tcp_types.flavor with
        | Tcp_types.New_reno ->
            (* Partial ACK: retransmit the next hole, deflate. *)
            let len = min mss (t.snd_nxt - t.snd_una) in
            if len > 0 then
              emit_segment t ~seq:t.snd_una ~len ~retransmission:true;
            t.cwnd <- max (t.cwnd - newly + mss) mss
        | Tcp_types.Reno | Tcp_types.Tahoe ->
            (* Reno treats any new ACK as recovery exit. *)
            t.in_recovery <- false;
            t.cwnd <- t.ssthresh
      end
    end
    else if t.cwnd < t.ssthresh then
      (* Slow start. *)
      t.cwnd <- t.cwnd + min newly mss
    else
      (* Congestion avoidance. *)
      t.cwnd <- t.cwnd + max 1 (mss * mss / t.cwnd);
    if in_flight t > 0 then arm_rtx t
    else begin
      cancel_timer t.rtx_timer;
      t.rtx_timer <- None
    end;
    try_send t
  end
  else if
    ack = t.snd_una && in_flight t > 0 && seg.len = 0 && not window_changed
  then begin
    t.dup_acks <- t.dup_acks + 1;
    if t.dup_acks = 3 && not t.in_recovery then begin
      (* Fast retransmit. *)
      t.fast_retransmits <- t.fast_retransmits + 1;
      let flight = in_flight t in
      t.ssthresh <- max (flight / 2) (2 * mss);
      let len = min mss (t.snd_nxt - t.snd_una) in
      emit_segment t ~seq:t.snd_una ~len ~retransmission:true;
      (match t.config.Tcp_types.flavor with
      | Tcp_types.Tahoe ->
          t.cwnd <- mss;
          t.dup_acks <- 0
      | Tcp_types.Reno | Tcp_types.New_reno ->
          t.in_recovery <- true;
          t.recover <- t.snd_nxt;
          t.cwnd <- t.ssthresh + (3 * mss));
      arm_rtx t
    end
    else if t.in_recovery then begin
      (* Inflate during recovery; may release new segments. *)
      t.cwnd <- t.cwnd + mss;
      try_send t
    end
  end
  else if window_changed then try_send t

let on_segment t (seg : Seg.t) =
  if not t.stopped then begin
    if seg.flags.Seg.syn && seg.flags.Seg.ack && not t.established then begin
      t.established <- true;
      cancel_timer t.syn_timer;
      t.syn_timer <- None;
      Rto.sample t.rto (Engine.now t.engine - t.syn_time);
      t.rwnd <- seg.window;
      t.last_peer_window <- seg.window;
      (* Complete the three-way handshake with a pure ACK; passive
         analyzers use it to anchor the connection RTT. *)
      t.send
        (Seg.v ~ts:(Engine.now t.engine) ~src:t.local ~dst:t.remote ~seq:0
           ~ack:0 ~window:t.config.Tcp_types.max_adv_window
           ~flags:Seg.ack_flags ());
      try_send t
    end
    else if seg.flags.Seg.ack then process_ack t seg
  end

let start t =
  t.syn_time <- Engine.now t.engine;
  let syn =
    Seg.v ~ts:(Engine.now t.engine) ~src:t.local ~dst:t.remote ~seq:0 ~ack:0
      ~window:t.config.Tcp_types.max_adv_window
      ~flags:(Seg.flags ~syn:true ())
      ~mss_opt:t.config.Tcp_types.mss ()
  in
  t.send syn;
  (* SYN retransmission with a conservative 3 s timer. *)
  let rec arm interval =
    t.syn_timer <-
      Some
        (Engine.schedule_after t.engine interval (fun () ->
             if not (t.established || t.stopped) then begin
               t.send { syn with Seg.ts = Engine.now t.engine };
               arm (2 * interval)
             end))
  in
  arm 3_000_000

let write t data =
  Buffer.add_string t.buf data;
  if t.established then try_send t
