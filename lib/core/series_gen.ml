open Tdat_timerange
module Seg = Tdat_pkt.Tcp_segment
module T = Tdat_pkt.Trace
module D = Series_defs

type config = {
  sniffer_location : [ `Near_sender | `Near_receiver ];
  small_window_mss : int;
  bound_gap_mss : int;
  app_limit_epsilon : Time_us.t;
  keepalive_max_size : int;
  keepalive_min_idle : Time_us.t;
  idle_gap_min : Time_us.t;
  bandwidth_run : int;
}

let default_config =
  {
    sniffer_location = `Near_receiver;
    small_window_mss = 3;
    bound_gap_mss = 3;
    app_limit_epsilon = 2_000;
    keepalive_max_size = 100;
    keepalive_min_idle = 25_000_000;
    idle_gap_min = 1_000_000;
    bandwidth_run = 20;
  }

module Tbl = Hashtbl

type t = {
  profile : Conn_profile.t;
  window : Span.t;
  events : (D.t, int Series.t) Tbl.t;
  span_cache : (D.t, Span_set.t) Tbl.t;
  customs : (string, Span_set.t) Tbl.t;
}

let events t name =
  match Tbl.find_opt t.events name with
  | Some s -> s
  | None -> Series.empty

let spans t name =
  match Tbl.find_opt t.span_cache name with
  | Some s -> s
  | None ->
      let s = Series.to_span_set (events t name) in
      Tbl.add t.span_cache name s;
      s

let size t name = Span_set.size (spans t name)

let ratio_of_spans t set =
  let total = Span.length t.window in
  if total <= 0 then 0.
  else
    float_of_int (Span_set.size (Span_set.clip t.window set))
    /. float_of_int total

let ratio t name = ratio_of_spans t (spans t name)
let window t = t.window
let profile t = t.profile

let union_spans t names =
  List.fold_left (fun acc n -> Span_set.union acc (spans t n)) Span_set.empty
    names

let define t ~name set = Tbl.replace t.customs name (Span_set.clip t.window set)
let custom t name = Tbl.find_opt t.customs name

let custom_names t =
  Tbl.fold (fun name _ acc -> name :: acc) t.customs [] |> List.sort String.compare

(* ---- helpers --------------------------------------------------------- *)

let clip_series window s = Series.clip window s

let series_of_spans set =
  let b = Series.builder () in
  Span_set.iter (fun sp -> Series.add b sp 0) set;
  Series.build b

(* Estimated serialization time of an MSS packet: the smallest positive
   inter-arrival between consecutive near-MSS data packets, capped at
   10 ms — when a trace never shows back-to-back packets the minimum gap
   says nothing about the wire rate. *)
let estimate_tx_mss ~data_ts ~data_len ndata mss =
  let best = ref max_int in
  for k = 1 to ndata - 1 do
    if data_len.(k - 1) >= mss * 9 / 10 && data_ts.(k) > data_ts.(k - 1) then
      best := min !best (data_ts.(k) - data_ts.(k - 1))
  done;
  if !best = max_int then 10 else max 1 (min !best 10_000)

let tx_time tx_mss mss len = max 1 (tx_mss * len / max 1 mss)

(* Group the first [n] timestamps of [ts] into flights: a gap larger
   than [gap] starts a new flight.  Emits one event per flight
   ([first, last+1], count) straight into a series. *)
let flight_series ts n gap =
  let b = Series.builder () in
  if n > 0 then begin
    let first = ref ts.(0) and last = ref ts.(0) and count = ref 1 in
    for i = 1 to n - 1 do
      let t = ts.(i) in
      if t - !last <= gap then begin
        last := t;
        incr count
      end
      else begin
        Series.add b (Span.v !first (!last + 1)) !count;
        first := t;
        last := t;
        count := 1
      end
    done;
    Series.add b (Span.v !first (!last + 1)) !count
  end;
  Series.build b

(* ---- generation ------------------------------------------------------ *)

(* [generate]'s body.  Data packet [k]'s time and length are read
   through the trace once, into per-domain scratch arrays ([data_ts],
   [data_len]; longer than needed, so only their first [ndata] entries
   count).  ACK [k]'s time is the profile's [ack_ts.(k)] (shifted, when
   the profile is); its other fields are read through the trace. *)
let generate_from ~config ?window ~data_ts ~data_len (p : Conn_profile.t) =
  let win =
    match window with Some w -> w | None -> Conn_profile.analysis_window p
  in
  let ev : (D.t, int Series.t) Tbl.t = Tbl.create 64 in
  let put name series = Tbl.replace ev name (clip_series win series) in
  let put_raw name series = Tbl.replace ev name series in
  let mss = p.Conn_profile.mss in
  let rtt = p.Conn_profile.rtt in
  let tr = p.Conn_profile.trace and data = p.Conn_profile.data in
  let labels = p.Conn_profile.labels and ack_ts = p.Conn_profile.ack_ts in
  let acks = p.Conn_profile.acks in
  let ndata = Array.length data in
  let n_acks = Array.length ack_ts in
  let tx_mss = estimate_tx_mss ~data_ts ~data_len ndata mss in

  (* -- extraction: packets ------------------------------------------- *)
  let b = Series.builder () in
  for k = 0 to ndata - 1 do
    Series.add b (Span.point data_ts.(k)) data_len.(k)
  done;
  put D.Data_pkt (Series.build b);
  let b = Series.builder () in
  for k = 0 to n_acks - 1 do
    Series.add b (Span.point ack_ts.(k)) (T.win tr acks.(k))
  done;
  put D.Ack_pkt (Series.build b);

  (* -- transmission --------------------------------------------------- *)
  let b = Series.builder () in
  for k = 0 to ndata - 1 do
    Series.add b
      (Span.of_duration data_ts.(k) (tx_time tx_mss mss data_len.(k)))
      data_len.(k)
  done;
  put D.Transmission (Series.build b);

  (* -- labeling-derived point series ---------------------------------- *)
  let b_retx = Series.builder () and b_oos = Series.builder () in
  for k = 0 to ndata - 1 do
    match labels.(k) with
    | Conn_profile.Redelivery | Conn_profile.Fill_retransmission ->
        Series.add b_retx (Span.point data_ts.(k)) data_len.(k);
        Series.add b_oos (Span.point data_ts.(k)) data_len.(k)
    | Conn_profile.Fill_reorder ->
        Series.add b_oos (Span.point data_ts.(k)) data_len.(k)
    | Conn_profile.In_order | Conn_profile.Above_hole -> ()
  done;
  put D.Retransmission (Series.build b_retx);
  put D.Out_of_sequence (Series.build b_oos);

  (* -- dup acks -------------------------------------------------------- *)
  let b = Series.builder () in
  let prev_ack = ref (-1) and prev_win = ref (-1) in
  for k = 0 to n_acks - 1 do
    let i = acks.(k) in
    if
      T.len tr i = 0 && T.ack tr i = !prev_ack && T.win tr i = !prev_win
      && T.flags tr i land Seg.syn_bit = 0
    then Series.add b (Span.point ack_ts.(k)) (T.ack tr i);
    prev_ack := T.ack tr i;
    prev_win := T.win tr i
  done;
  put D.Dup_ack (Series.build b);

  (* -- loss episodes ---------------------------------------------------- *)
  let episode_series eps =
    let b = Series.builder () in
    List.iter
      (fun (e : Conn_profile.loss_episode) ->
        Series.add b e.Conn_profile.span e.Conn_profile.packets)
      eps;
    Series.build b
  in
  put D.Upstream_loss (episode_series p.Conn_profile.upstream_episodes);
  put D.Downstream_loss (episode_series p.Conn_profile.downstream_episodes);

  (* -- advertised window ------------------------------------------------ *)
  let b_win = Series.builder () in
  for k = 0 to n_acks - 1 do
    let stop = if k + 1 < n_acks then ack_ts.(k + 1) else Span.stop win in
    if stop > ack_ts.(k) then
      Series.add b_win (Span.v ack_ts.(k) stop) (T.win tr acks.(k))
  done;
  let adv_window = Series.build b_win in
  put D.Adv_window adv_window;
  let small_thresh = config.small_window_mss * mss in
  let max_adv = p.Conn_profile.max_adv_window in
  let filter_window f =
    Series.filter (fun _ w -> f w) adv_window
  in
  put D.Zero_adv_window (filter_window (fun w -> w = 0));
  put D.Small_adv_window (filter_window (fun w -> w > 0 && w < small_thresh));
  put D.Large_adv_window (filter_window (fun w -> w >= max_adv - small_thresh));

  (* -- flights / idle gaps ----------------------------------------------
     The combined timeline is a two-pointer merge of the two (already
     time-sorted) directions in a scratch array, not a sort of a
     concatenated list. *)
  let flight_gap = max 1_000 (rtt / 4) in
  let module Scratch = Tdat_parallel.Scratch in
  put D.Data_flight (flight_series data_ts ndata flight_gap);
  put D.Ack_flight (flight_series ack_ts n_acks flight_gap);
  Scratch.with_ints ~slot:Scratch.slot_series_all_ts (ndata + n_acks)
    (fun all_ts ->
      let i = ref 0 and j = ref 0 and k = ref 0 in
      while !i < ndata || !j < n_acks do
        let take_data =
          !j >= n_acks || (!i < ndata && data_ts.(!i) <= ack_ts.(!j))
        in
        if take_data then begin
          all_ts.(!k) <- data_ts.(!i);
          incr i
        end
        else begin
          all_ts.(!k) <- ack_ts.(!j);
          incr j
        end;
        incr k
      done;
      let b = Series.builder () in
      for i = 0 to !k - 2 do
        if all_ts.(i + 1) - all_ts.(i) > config.idle_gap_min then
          Series.add b (Span.v all_ts.(i) all_ts.(i + 1)) 0
      done;
      put D.Idle_gap (Series.build b));

  (* -- keepalive-only periods --------------------------------------------
     Boundaries are the large-packet timestamps framed by the window
     edges; small-packet timestamps are kept sorted in scratch and each
     candidate interval counts its interior by binary search. *)
  let b = Series.builder () in
  Scratch.with_ints ~slot:Scratch.slot_series_small_ts ndata (fun small_ts ->
      let n_small_total = ref 0 in
      for k = 0 to ndata - 1 do
        if data_len.(k) <= config.keepalive_max_size then begin
          small_ts.(!n_small_total) <- data_ts.(k);
          incr n_small_total
        end
      done;
      (* Number of small-packet timestamps strictly inside (a, b'). *)
      let count_small a b' =
        let lo = ref 0 and hi = ref !n_small_total in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if small_ts.(mid) <= a then lo := mid + 1 else hi := mid
        done;
        let first = !lo in
        let lo = ref first and hi = ref !n_small_total in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if small_ts.(mid) < b' then lo := mid + 1 else hi := mid
        done;
        !lo - first
      in
      let ka_interval a b' =
        if b' - a >= config.keepalive_min_idle then begin
          let n_small = count_small a b' in
          if n_small > 0 then Series.add b (Span.v a b') n_small
        end
      in
      let prev = ref (Span.start win) in
      for k = 0 to ndata - 1 do
        if data_len.(k) > config.keepalive_max_size then begin
          ka_interval !prev data_ts.(k);
          prev := data_ts.(k)
        end
      done;
      ka_interval !prev (Span.stop win));
  put D.Keepalive_only (Series.build b);

  (* -- handshake / teardown ----------------------------------------------- *)
  (match (p.Conn_profile.syn_rtt, ndata) with
  | Some srtt, _ ->
      put D.Syn_period
        (Series.of_list
           [ (Span.of_duration p.Conn_profile.start_time (max 1 srtt), 0) ])
  | None, _ -> put_raw D.Syn_period Series.empty);
  put_raw D.Fin_period Series.empty;
  put D.Void_period (series_of_spans p.Conn_profile.voids);

  (* -- the attribution walk ----------------------------------------------
     Explain each inter-transmission gap: window-bounded wait (adv/cwnd),
     then application-limited tail once the pipe drains. *)
  let b_out = Series.builder () in
  let b_adv = Series.builder () in
  let b_zero_adv = Series.builder () in
  let b_cwnd = Series.builder () in
  let b_app = Series.builder () in
  let b_recv_extra = Series.builder () in
  (* Window value in force at a given time (last ack at or before t). *)
  (* First ack index with ts > t. *)
  let ack_after ts =
    let lo = ref 0 and hi = ref n_acks in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if ack_ts.(mid) <= ts then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  let window_at ts =
    let k = ack_after ts in
    if k = 0 then max_adv else T.win tr acks.(k - 1)
  in
  let max_sent = ref 0 in
  let classify_wait ~t0 ~t1 ~out ~w =
    if t1 > t0 && out > 0 then begin
      let span = Span.v t0 t1 in
      if w = 0 then begin
        Series.add b_adv span out;
        Series.add b_zero_adv span out
      end
      else if w - out < config.bound_gap_mss * mss then
        Series.add b_adv span out
      else Series.add b_cwnd span out
    end
  in
  (* Track the running cumulative ack as we walk data packets. *)
  let ack_idx = ref 0 and cum_ack = ref 0 in
  let advance_acks_upto ts =
    while !ack_idx < n_acks && ack_ts.(!ack_idx) <= ts do
      cum_ack := max !cum_ack (T.ack tr acks.(!ack_idx));
      incr ack_idx
    done
  in
  let first_data_ts = if ndata > 0 then Some data_ts.(0) else None in
  (* Pre-transfer application silence: from handshake completion to the
     first data packet. *)
  (match (p.Conn_profile.syn_rtt, first_data_ts) with
  | Some srtt, Some fd ->
      let established = p.Conn_profile.start_time + srtt in
      if fd - established > config.app_limit_epsilon then
        Series.add b_app (Span.v established fd) 0
  | _ -> ());
  for i = 0 to ndata - 1 do
    let s_ts = data_ts.(i) and s_len = data_len.(i) in
    advance_acks_upto s_ts;
    max_sent := max !max_sent (T.seq tr data.(i) + s_len);
    let sent_i = !max_sent in
    let out_i = max 0 (sent_i - !cum_ack) in
    let t_i = s_ts + tx_time tx_mss mss s_len in
    let t_next = if i + 1 < ndata then data_ts.(i + 1) else Span.stop win in
    let is_last = i = ndata - 1 in
    (* After the final data packet the sender's silence explains nothing:
       the transfer is over on the wire.  Any remaining analysis window
       (an MCT end lagging behind, e.g. a collector draining its backlog)
       is attributed to the receiving application exactly where the
       advertised window shows unconsumed buffer, and left unattributed
       elsewhere. *)
    let attribute_tail_after_wire_end tc =
      let j = ref (ack_after tc) in
      let prev_ts = ref tc and prev_w = ref (window_at tc) in
      while !j < n_acks && ack_ts.(!j) < t_next do
        let a_ts = ack_ts.(!j) in
        if a_ts > !prev_ts && !prev_w < max_adv then
          Series.add b_recv_extra (Span.v !prev_ts a_ts) !prev_w;
        prev_ts := a_ts;
        prev_w := T.win tr acks.(!j);
        incr j
      done;
      if t_next > !prev_ts && !prev_w < max_adv then
        Series.add b_recv_extra (Span.v !prev_ts t_next) !prev_w
    in
    if t_next > t_i then begin
      (* Outstanding span and clearing time within (t_i, t_next). *)
      let j = ref (ack_after s_ts) in
      let t_clear = ref None in
      let running = ref !cum_ack in
      while !t_clear = None && !j < n_acks && ack_ts.(!j) < t_next do
        running := max !running (T.ack tr acks.(!j));
        if !running >= sent_i then t_clear := Some ack_ts.(!j);
        incr j
      done;
      (match !t_clear with
      | Some tc ->
          let tc = max tc t_i in
          Series.add b_out (Span.v s_ts (max (s_ts + 1) tc)) out_i;
          if is_last then begin
            classify_wait ~t0:t_i ~t1:tc ~out:out_i ~w:(window_at t_i);
            attribute_tail_after_wire_end tc
          end
          else if t_next - tc > config.app_limit_epsilon then begin
            let w_tail = window_at tc in
            if w_tail < mss then begin
              (* Closed-window stall: both the wait and the silence are
                 flow-control bound. *)
              classify_wait ~t0:t_i ~t1:tc ~out:out_i ~w:(window_at t_i);
              let span = Span.v tc t_next in
              Series.add b_adv span 0;
              if w_tail = 0 then Series.add b_zero_adv span 0
            end
            else
              (* The sender stayed silent after the pipe drained with the
                 window open: nothing but the application limited this
                 whole gap (the ACK wait was not on the critical path). *)
              Series.add b_app (Span.v t_i t_next) 0
          end
          else classify_wait ~t0:t_i ~t1:tc ~out:out_i ~w:(window_at t_i)
      | None ->
          (* Pipe never drained before the next transmission (or before
             the window ends: data still in flight, possibly forever —
             loss episodes cover the pathological cases). *)
          Series.add b_out (Span.v s_ts t_next) out_i;
          classify_wait ~t0:t_i ~t1:t_next ~out:out_i ~w:(window_at t_i))
    end
    else
      Series.add b_out (Span.point s_ts) out_i
  done;
  put D.Outstanding (Series.build b_out);
  put D.Send_app_limited (Series.build b_app);
  put D.Adv_bnd_out (Series.build b_adv);
  put D.Zero_adv_bnd_out (Series.build b_zero_adv);
  put D.Cwnd_bnd_out (Series.build b_cwnd);

  (* -- bandwidth-bound runs ----------------------------------------------- *)
  let b = Series.builder () in
  let run_start = ref None and run_len = ref 0 in
  let flush_run last_ts last_len =
    (match (!run_start, !run_len) with
    | Some start, n when n >= config.bandwidth_run ->
        Series.add b
          (Span.v start (last_ts + tx_time tx_mss mss last_len))
          n
    | _ -> ());
    run_start := None;
    run_len := 0
  in
  for i = 0 to ndata - 1 do
    (match !run_start with
    | None ->
        run_start := Some data_ts.(i);
        run_len := 1
    | Some _ ->
        let expected = 2 * tx_time tx_mss mss data_len.(i - 1) in
        if data_ts.(i) - data_ts.(i - 1) <= expected then incr run_len
        else begin
          flush_run data_ts.(i - 1) data_len.(i - 1);
          run_start := Some data_ts.(i);
          run_len := 1
        end);
    if i = ndata - 1 then flush_run data_ts.(i) data_len.(i)
  done;
  put D.Bandwidth_bound (Series.build b);

  (* -- interpretation (sniffer location) ----------------------------------- *)
  let upstream = Tbl.find ev D.Upstream_loss in
  let downstream = Tbl.find ev D.Downstream_loss in
  (match config.sniffer_location with
  | `Near_receiver ->
      put_raw D.Send_local_loss Series.empty;
      put_raw D.Recv_local_loss downstream;
      put_raw D.Network_loss upstream
  | `Near_sender ->
      put_raw D.Send_local_loss upstream;
      put_raw D.Recv_local_loss Series.empty;
      put_raw D.Network_loss downstream);

  (* -- retransmission periods & algebra ------------------------------------ *)
  put_raw D.Retrans_period (Series.merge upstream downstream);
  let t =
    {
      profile = p;
      window = win;
      events = ev;
      span_cache = Tbl.create 16;
      customs = Tbl.create 4;
    }
  in
  let inter a b' = Span_set.inter (spans t a) (spans t b') in
  put_raw D.Small_adv_bnd_out
    (series_of_spans (inter D.Adv_bnd_out D.Small_adv_window));
  put_raw D.Large_adv_bnd_out
    (series_of_spans (inter D.Adv_bnd_out D.Large_adv_window));
  put_raw D.All_loss
    (series_of_spans
       (union_spans t [ D.Send_local_loss; D.Recv_local_loss; D.Network_loss ]));
  (* The conflict signature: loss-recovery activity while the receiver
     window is shut — "packets get constantly dropped even under low
     transmission rate".  The paper writes ZeroAdvBndOut ∩ UpstreamLoss;
     the window-bound refinement is subsumed by loss periods in this
     implementation (loss overrides window attribution), so the raw
     zero-window series is intersected with the whole retransmission
     period instead — same conflict, same drill-down value. *)
  put_raw D.Zero_ack_bug
    (series_of_spans
       (Span_set.union
          (inter D.Zero_adv_window D.Retrans_period)
          (inter D.Zero_adv_bnd_out D.Retrans_period)));
  (* Receiver-app limited: bounded by a small or zero advertised window,
     plus any post-wire drain periods with unconsumed receive buffer. *)
  let recv_app =
    Span_set.union
      (Span_set.clip win (Series.to_span_set (Series.build b_recv_extra)))
      (Span_set.inter (spans t D.Adv_bnd_out)
         (Span_set.union (spans t D.Small_adv_window)
            (spans t D.Zero_adv_window)))
  in
  put_raw D.Recv_app_limited (series_of_spans recv_app);
  (* Invalidate cached span sets for names added after [t] was built. *)
  Tbl.reset t.span_cache;
  t

let generate ?(config = default_config) ?window (p : Conn_profile.t) =
  let module Scratch = Tdat_parallel.Scratch in
  let tr = p.Conn_profile.trace in
  let data = p.Conn_profile.data in
  let ndata = Array.length data in
  Scratch.with_ints ~slot:Scratch.slot_series_data_ts ndata @@ fun data_ts ->
  Scratch.with_ints ~slot:Scratch.slot_series_data_len ndata @@ fun data_len ->
  for k = 0 to ndata - 1 do
    data_ts.(k) <- T.ts tr data.(k);
    data_len.(k) <- T.len tr data.(k)
  done;
  generate_from ~config ?window ~data_ts ~data_len p

module Private = struct
  let define = define
end
