type stats = {
  delivered : int;
  dropped_loss : int;
  dropped_overflow : int;
}

type t = {
  engine : Engine.t;
  delay : Tdat_timerange.Time_us.t;
  jitter : Tdat_timerange.Time_us.t;
  jitter_rng : Tdat_rng.Rng.t option;
  bandwidth_bps : int;
  buffer_pkts : int;
  loss : Loss.t;
  on_drop : Tdat_pkt.Tcp_segment.t -> unit;
  deliver : Tdat_pkt.Tcp_segment.t -> unit;
  mutable busy_until : Tdat_timerange.Time_us.t;
  mutable queued : int;
  mutable delivered : int;
  mutable dropped_loss : int;
  mutable dropped_overflow : int;
}

(* Per-packet wire overhead: Ethernet + IP + TCP headers. *)
let header_overhead = 54

let create ~engine ~delay ?(jitter = 0) ?jitter_rng
    ~bandwidth_bps ?(buffer_pkts = 128) ?(loss = Loss.none)
    ?(on_drop = fun _ -> ()) ~deliver () =
  if bandwidth_bps <= 0 then invalid_arg "Link.create: bandwidth";
  if buffer_pkts < 1 then invalid_arg "Link.create: buffer_pkts";
  {
    engine;
    delay;
    jitter;
    jitter_rng;
    bandwidth_bps;
    buffer_pkts;
    loss;
    on_drop;
    deliver;
    busy_until = 0;
    queued = 0;
    delivered = 0;
    dropped_loss = 0;
    dropped_overflow = 0;
  }

let tx_time t bytes =
  (* Microseconds to serialize [bytes] at the link rate, at least 1. *)
  max 1 (bytes * 8 * 1_000_000 / t.bandwidth_bps)

let propagation t =
  match (t.jitter, t.jitter_rng) with
  | 0, _ | _, None -> t.delay
  | j, Some rng -> t.delay + Tdat_rng.Rng.int rng (j + 1)

let send t (seg : Tdat_pkt.Tcp_segment.t) =
  let now = Engine.now t.engine in
  if Loss.drop t.loss now then begin
    t.dropped_loss <- t.dropped_loss + 1;
    t.on_drop seg
  end
  else if t.queued >= t.buffer_pkts then begin
    t.dropped_overflow <- t.dropped_overflow + 1;
    t.on_drop seg
  end
  else begin
    t.queued <- t.queued + 1;
    let start = max now t.busy_until in
    let finish = start + tx_time t (seg.len + header_overhead) in
    t.busy_until <- finish;
    let arrival = finish + propagation t in
    ignore
      (Engine.schedule_at t.engine finish (fun () ->
           t.queued <- t.queued - 1));
    ignore
      (Engine.schedule_at t.engine arrival (fun () ->
           t.delivered <- t.delivered + 1;
           t.deliver { seg with ts = arrival }))
  end

let stats t =
  {
    delivered = t.delivered;
    dropped_loss = t.dropped_loss;
    dropped_overflow = t.dropped_overflow;
  }

