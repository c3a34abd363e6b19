open Tdat_timerange
module Seg = Tdat_pkt.Tcp_segment
module Flow = Tdat_pkt.Flow
module T = Tdat_pkt.Trace

type label =
  | In_order
  | Above_hole
  | Fill_reorder
  | Fill_retransmission
  | Redelivery

type loss_episode = { span : Span.t; packets : int; bytes : int }

type t = {
  flow : Flow.t;
  start_time : Time_us.t;
  end_time : Time_us.t;
  syn_rtt : Time_us.t option;
  upstream_rtt : Time_us.t option;
  rtt : Time_us.t;
  mss : int;
  max_adv_window : int;
  trace : T.t;
  data : int array;
  labels : label array;
  acks : int array;
  ack_ts : Time_us.t array;
  upstream_episodes : loss_episode list;
  downstream_episodes : loss_episode list;
  voids : Span_set.t;
}

(* A raw recovery event before merging into episodes. *)
type recovery = { r_span : Span.t; r_bytes : int }

let merge_episodes recoveries =
  let spans = List.map (fun r -> (r.r_span, r)) recoveries in
  let sorted =
    List.sort (fun (a, _) (b, _) -> Span.compare a b) spans
  in
  let rec go acc current = function
    | [] -> List.rev (match current with None -> acc | Some e -> e :: acc)
    | (span, r) :: rest -> (
        match current with
        | None ->
            go acc (Some { span; packets = 1; bytes = r.r_bytes }) rest
        | Some e when Span.touches e.span span ->
            go acc
              (Some
                 {
                   span = Span.hull e.span span;
                   packets = e.packets + 1;
                   bytes = e.bytes + r.r_bytes;
                 })
              rest
        | Some e ->
            go (e :: acc) (Some { span; packets = 1; bytes = r.r_bytes }) rest)
  in
  go [] None sorted

(* Holes: open sequence gaps [lo, hi) with creation time. *)
type hole = { h_lo : int; h_hi : int; created : Time_us.t }

let of_trace ?(reorder_factor = 0.25) trace ~flow =
  let n = T.length trace in
  (* Direction predicates over the columns, endpoints compared by id.
     [to_sender] additionally excludes receiver-bound segments,
     mirroring the partition-then-filter the list pipeline used to
     do. *)
  let sender = T.find_endpoint trace flow.Flow.sender in
  let receiver = T.find_endpoint trace flow.Flow.receiver in
  let to_receiver i = T.src trace i = sender && T.dst trace i = receiver in
  let to_sender i =
    (not (to_receiver i)) && T.src trace i = receiver && T.dst trace i = sender
  in
  let has bit i = T.flags trace i land bit <> 0 in
  let is_data_seg i = to_receiver i && T.len trace i > 0 in
  let is_ack_seg i = to_sender i && has Seg.ack_bit i in
  (* Count-then-fill the two per-direction index columns. *)
  let n_data = ref 0 and n_acks = ref 0 in
  for i = 0 to n - 1 do
    if is_data_seg i then incr n_data;
    if is_ack_seg i then incr n_acks
  done;
  let fill count pred =
    let out = Array.make count 0 in
    let k = ref 0 in
    for i = 0 to n - 1 do
      if pred i then begin
        out.(!k) <- i;
        incr k
      end
    done;
    out
  in
  let data = fill !n_data is_data_seg in
  let acks = fill !n_acks is_ack_seg in
  (* The first packet satisfying [pred], or -1. *)
  let find pred =
    let rec go i = if i = n then -1 else if pred i then i else go (i + 1) in
    go 0
  in
  (* Handshake-based RTT: SYN seen at the sniffer to the sender's first
     post-SYN+ACK packet covers the full round trip regardless of the
     sniffer position. *)
  let syn = find (fun i -> to_receiver i && has Seg.syn_bit i) in
  let synack =
    find (fun i -> to_sender i && has Seg.syn_bit i && has Seg.ack_bit i)
  in
  let syn_rtt, upstream_rtt =
    if syn < 0 || synack < 0 then (None, None)
    else begin
      let sa_ts = T.ts trace synack in
      match find (fun i -> to_receiver i && T.ts trace i > sa_ts) with
      | -1 -> (None, None)
      | reply ->
          let reply_ts = T.ts trace reply in
          (Some (reply_ts - T.ts trace syn), Some (reply_ts - sa_ts))
    end
  in
  let start_time =
    if syn >= 0 then T.ts trace syn else if n > 0 then T.ts trace 0 else 0
  in
  let end_time = if n > 0 then T.ts trace (n - 1) else start_time in
  let mss =
    if syn >= 0 && T.mss trace syn >= 0 then T.mss trace syn
    else Array.fold_left (fun acc i -> max acc (T.len trace i)) 536 data
  in
  let max_adv_window =
    Array.fold_left (fun acc i -> max acc (T.win trace i)) 0 acks
  in
  let rtt = max 1_000 (Option.value ~default:1_000 syn_rtt) in
  let reorder_threshold =
    max 1_000 (int_of_float (reorder_factor *. float_of_int rtt))
  in
  (* --- labeling pass ------------------------------------------------ *)
  let expected = ref 0 in
  let holes = ref ([] : hole list) in
  let first_seen : (int, Time_us.t) Hashtbl.t =
    Hashtbl.create (Array.length data)
  in
  let upstream = ref [] and downstream = ref [] in
  let label_packet i =
    let ts = T.ts trace i and len = T.len trace i in
    let lo = T.seq trace i in
    let hi = lo + len in
    let label =
      if lo >= !expected then begin
        (* In order (possibly above an open hole). *)
        if lo > !expected then
          holes := !holes @ [ { h_lo = !expected; h_hi = lo; created = ts } ];
        expected := hi;
        if !holes = [] then In_order else Above_hole
      end
      else begin
        (* Below the frontier: hole fill or redelivery. *)
        let overlapping, rest =
          List.partition (fun h -> lo < h.h_hi && hi > h.h_lo) !holes
        in
        match overlapping with
        | [] ->
            (* All bytes seen before: downstream-loss recovery. *)
            let orig =
              match Hashtbl.find_opt first_seen lo with
              | Some ts -> ts
              | None -> max start_time (ts - rtt)
            in
            let span =
              if ts > orig then Span.v orig (ts + 1) else Span.point ts
            in
            downstream := { r_span = span; r_bytes = len } :: !downstream;
            (if hi > !expected then expected := hi);
            Redelivery
        | _ ->
            (* Fills at least one hole. *)
            let created =
              List.fold_left (fun acc h -> min acc h.created) max_int
                overlapping
            in
            let remaining =
              List.concat_map
                (fun h ->
                  let left =
                    if h.h_lo < lo then
                      [ { h with h_hi = min h.h_hi lo } ]
                    else []
                  in
                  let right =
                    if h.h_hi > hi then
                      [ { h with h_lo = max h.h_lo hi } ]
                    else []
                  in
                  left @ right)
                overlapping
            in
            holes := rest @ remaining;
            if hi > !expected then expected := hi;
            if ts - created <= reorder_threshold then Fill_reorder
            else begin
              let span =
                if ts > created then Span.v created (ts + 1)
                else Span.point ts
              in
              upstream := { r_span = span; r_bytes = len } :: !upstream;
              Fill_retransmission
            end
      end
    in
    if not (Hashtbl.mem first_seen lo) then Hashtbl.add first_seen lo ts;
    label
  in
  (* Labeling is stateful (hole tracking): one pass in time order.  The
     labels are immediates, so the column costs no forced collection
     however long it is. *)
  let labels = Array.make (Array.length data) In_order in
  Array.iteri (fun k i -> labels.(k) <- label_packet i) data;
  {
    flow;
    start_time;
    end_time;
    syn_rtt;
    upstream_rtt;
    rtt;
    mss;
    max_adv_window;
    trace;
    data;
    labels;
    acks;
    ack_ts = Array.map (T.ts trace) acks;
    upstream_episodes = merge_episodes !upstream;
    downstream_episodes = merge_episodes !downstream;
    voids = T.voids trace;
  }

let retransmissions t =
  Array.fold_left
    (fun acc label ->
      match label with
      | Fill_retransmission | Redelivery -> acc + 1
      | In_order | Above_hole | Fill_reorder -> acc)
    0 t.labels

let analysis_window t = Span.v t.start_time (t.end_time + 1)

let pp_summary ppf t =
  Format.fprintf ppf
    "%a: %d data pkts, %d acks, rtt=%a mss=%d maxwin=%d retx=%d (up %d ep, \
     down %d ep)"
    Flow.pp t.flow (Array.length t.data) (Array.length t.acks) Time_us.pp
    t.rtt t.mss t.max_adv_window (retransmissions t)
    (List.length t.upstream_episodes)
    (List.length t.downstream_episodes)

module Private = struct
  let retransmissions = retransmissions
end
