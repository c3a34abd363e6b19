open Tdat_timerange
module Seg = Tdat_pkt.Tcp_segment

type flight_shift = {
  span : Span.t;
  n_acks : int;
  estimates : int;
  applied : Time_us.t;
}

(* d2 estimate for one ACK: the delay until the first data packet that
   this ACK's window-edge advance released.  [allowed_before] is the
   right window edge (ack + win) in force before this ACK. *)
let estimate_d2 (profile : Conn_profile.t) ~allowed_before
    ~(ack : Seg.t) ~max_wait =
  let edge = ack.Seg.ack + ack.Seg.window in
  if edge <= allowed_before then None
  else begin
    let data = profile.Conn_profile.data in
    let n = Array.length data in
    (* Binary search for the first data packet after the ACK, then scan
       forward within the bounded wait window. *)
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if data.(mid).Conn_profile.seg.Seg.ts <= ack.Seg.ts then lo := mid + 1
      else hi := mid
    done;
    let rec search i =
      if i >= n then None
      else begin
        let s = data.(i).Conn_profile.seg in
        if s.Seg.ts - ack.Seg.ts > max_wait then None
        else begin
          let seq_end = Seg.seq_end s in
          if seq_end > allowed_before && seq_end <= edge then
            Some (s.Seg.ts - ack.Seg.ts)
          else search (i + 1)
        end
      end
    in
    search !lo
  end

let shift ?flight_gap (profile : Conn_profile.t) =
  let rtt = profile.Conn_profile.rtt in
  let gap =
    match flight_gap with Some g -> g | None -> max 1_000 (rtt / 4)
  in
  let acks = profile.Conn_profile.acks in
  let baseline =
    Option.value ~default:0 profile.Conn_profile.upstream_rtt
  in
  let n = Array.length acks in
  let max_wait = 2 * max rtt 1_000 in
  (* Track the pre-ACK window edge as we walk the ACK stream.  Flights
     are contiguous index ranges [lo, hi] split where the inter-arrival
     gap exceeds [gap] — walked in place, no index lists. *)
  let allowed = ref 0 in
  let shifted = Array.copy acks in
  let infos = ref [] in
  let i = ref 0 in
  while !i < n do
    let j = ref !i in
    while
      !j + 1 < n && acks.(!j + 1).Seg.ts - acks.(!j).Seg.ts <= gap
    do
      incr j
    done;
    let lo = !i and hi = !j in
    let best = ref max_int and estimates = ref 0 in
    for k = lo to hi do
      let ack = acks.(k) in
      (match
         estimate_d2 profile ~allowed_before:!allowed ~ack ~max_wait
       with
      | Some d2 when d2 >= 0 ->
          incr estimates;
          if d2 < !best then best := d2
      | _ -> ());
      allowed := max !allowed (ack.Seg.ack + ack.Seg.window)
    done;
    let applied = if !estimates = 0 then baseline else !best in
    for k = lo to hi do
      shifted.(k) <-
        { acks.(k) with Seg.ts = acks.(k).Seg.ts + applied }
    done;
    infos :=
      {
        span = Span.v acks.(lo).Seg.ts (acks.(hi).Seg.ts + 1);
        n_acks = hi - lo + 1;
        estimates = !estimates;
        applied;
      }
      :: !infos;
    i := hi + 1
  done;
  (* Shifts rarely reorder ACKs.  [Array.sort] is not stable, so only
     input strictly increasing under [compare_ts] (no ties for the sort
     to permute) skips it, and the result is the same either way. *)
  let strictly_increasing =
    let k = ref 1 in
    while !k < n && Seg.compare_ts shifted.(!k - 1) shifted.(!k) < 0 do
      incr k
    done;
    !k >= n
  in
  if not strictly_increasing then Array.sort Seg.compare_ts shifted;
  ( { profile with Conn_profile.acks = shifted },
    List.rev !infos )
