open Tdat_timerange
module T = Tdat_pkt.Trace

type flight_shift = {
  span : Span.t;
  n_acks : int;
  estimates : int;
  applied : Time_us.t;
}

(* d2 estimate for an ACK at [ack_ts]: the delay until the first data
   packet that this ACK's window-edge advance released, or -1.
   [allowed_before] is the right window edge (ack + win) in force before
   this ACK; the scan starts at data packet [k], the first after the
   ACK, and stops past the bounded wait window. *)
let rec estimate_d2 tr data ~allowed_before ~edge ~ack_ts ~max_wait k =
  if edge <= allowed_before || k >= Array.length data then -1
  else begin
    let i = data.(k) in
    let ts = T.ts tr i and seq_end = T.seq tr i + T.len tr i in
    if ts - ack_ts > max_wait then -1
    else if seq_end > allowed_before && seq_end <= edge then ts - ack_ts
    else estimate_d2 tr data ~allowed_before ~edge ~ack_ts ~max_wait (k + 1)
  end

let shift ?flight_gap (profile : Conn_profile.t) =
  let rtt = profile.Conn_profile.rtt in
  let gap =
    match flight_gap with Some g -> g | None -> max 1_000 (rtt / 4)
  in
  let tr = profile.Conn_profile.trace in
  let acks = profile.Conn_profile.acks in
  let ack_ts = profile.Conn_profile.ack_ts in
  let baseline =
    Option.value ~default:0 profile.Conn_profile.upstream_rtt
  in
  let n = Array.length acks in
  let max_wait = 2 * max rtt 1_000 in
  let data = profile.Conn_profile.data in
  (* The first data packet after the current ACK: ACK times never
     decrease, so it only moves forward. *)
  let first = ref 0 in
  (* Track the pre-ACK window edge as we walk the ACK stream.  Flights
     are contiguous index ranges [lo, hi] split where the inter-arrival
     gap exceeds [gap] — walked in place, no index lists. *)
  let allowed = ref 0 in
  let shifted = Array.copy ack_ts in
  let infos = ref [] in
  let i = ref 0 in
  while !i < n do
    let j = ref !i in
    while !j + 1 < n && ack_ts.(!j + 1) - ack_ts.(!j) <= gap do
      incr j
    done;
    let lo = !i and hi = !j in
    let best = ref max_int and estimates = ref 0 in
    for k = lo to hi do
      let edge = T.ack tr acks.(k) + T.win tr acks.(k) in
      while !first < Array.length data && T.ts tr data.(!first) <= ack_ts.(k) do
        incr first
      done;
      let d2 =
        estimate_d2 tr data ~allowed_before:!allowed ~edge ~ack_ts:ack_ts.(k)
          ~max_wait !first
      in
      if d2 >= 0 then begin
        incr estimates;
        if d2 < !best then best := d2
      end;
      allowed := max !allowed edge
    done;
    let applied = if !estimates = 0 then baseline else !best in
    for k = lo to hi do
      shifted.(k) <- ack_ts.(k) + applied
    done;
    infos :=
      {
        span = Span.v ack_ts.(lo) (ack_ts.(hi) + 1);
        n_acks = hi - lo + 1;
        estimates = !estimates;
        applied;
      }
      :: !infos;
    i := hi + 1
  done;
  (* Shifts rarely reorder ACKs.  The order is (shifted time, sequence
     number), as [Tcp_segment.compare_ts] orders segments.  [Array.sort]
     is not stable, so only input strictly increasing (no ties for the
     sort to permute) skips it; otherwise a permutation is sorted by the
     same comparisons a sort of the segments would make, and so comes
     out the same. *)
  let cmp a b =
    match Int.compare shifted.(a) shifted.(b) with
    | 0 -> Int.compare (T.seq tr acks.(a)) (T.seq tr acks.(b))
    | c -> c
  in
  let strictly_increasing =
    let k = ref 1 in
    while !k < n && cmp (!k - 1) !k < 0 do
      incr k
    done;
    !k >= n
  in
  let acks, ack_ts =
    if strictly_increasing then (acks, shifted)
    else begin
      let perm = Array.init n Fun.id in
      Array.sort cmp perm;
      ( Array.map (fun k -> acks.(k)) perm,
        Array.map (fun k -> shifted.(k)) perm )
    end
  in
  ({ profile with Conn_profile.acks; ack_ts }, List.rev !infos)
