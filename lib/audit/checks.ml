open Tdat_timerange
module Seg = Tdat_pkt.Tcp_segment
module T = Tdat_pkt.Trace

(* --- A001: span-set canonicality ----------------------------------------- *)

let canonical_spans ?(subject = "span set") spans =
  let rec go acc = function
    | a :: (b :: _ as rest) ->
        let acc =
          if Span.compare a b > 0 then
            Diag.error ~code:"A001" ~subject
              ~where:(Span.hull a b)
              "spans out of order: %a before %a" Span.pp a Span.pp b
            :: acc
          else if Span.overlaps a b then
            Diag.error ~code:"A001" ~subject
              ~where:(Span.hull a b)
              "overlapping spans %a and %a" Span.pp a Span.pp b
            :: acc
          else if Span.touches a b then
            Diag.error ~code:"A001" ~subject
              ~where:(Span.hull a b)
              "adjacent spans %a and %a not coalesced" Span.pp a Span.pp b
            :: acc
          else acc
        in
        go acc rest
    | [ _ ] | [] -> List.rev acc
  in
  go [] spans

let canonical_set ?subject set = canonical_spans ?subject (Span_set.to_list set)

(* --- A002: timestamp monotonicity ----------------------------------------- *)

let monotone_times ?(subject = "trace") ts =
  let acc = ref [] in
  for k = Array.length ts - 1 downto 1 do
    let a = ts.(k - 1) and b = ts.(k) in
    if a > b then
      acc :=
        Diag.error ~code:"A002" ~subject ~where:(Span.v b (a + 1))
          "timestamps regress: %a after %a" Time_us.pp b Time_us.pp a
        :: !acc
  done;
  !acc

(* --- A003: seq/ack arithmetic sanity -------------------------------------- *)

let seq_ack_sane ?(subject = "trace") trace packets =
  let field_diags =
    List.concat_map
      (fun i ->
        let ts = T.ts trace i in
        let bad name v =
          if v < 0 then
            Some
              (Diag.error ~code:"A003" ~subject ~where:(Span.point ts)
                 "negative %s (%d) on segment at %a" name v Time_us.pp ts)
          else None
        in
        List.filter_map Fun.id
          [
            bad "seq" (T.seq trace i);
            bad "ack" (T.ack trace i);
            bad "len" (T.len trace i);
            bad "window" (T.win trace i);
          ])
      (Array.to_list packets)
  in
  (* Cumulative ACK must not regress within one direction. *)
  let tbl = Hashtbl.create 4 in
  let regressions =
    List.filter_map
      (fun i ->
        if T.flags trace i land Seg.ack_bit = 0 then None
        else begin
          let key = (T.src trace i, T.dst trace i) and ack = T.ack trace i in
          let prev = Hashtbl.find_opt tbl key in
          Hashtbl.replace tbl key ack;
          match prev with
          | Some p when ack < p ->
              Some
                (Diag.warning ~code:"A003" ~subject
                   ~where:(Span.point (T.ts trace i))
                   "cumulative ack regresses from %d to %d at %a" p ack
                   Time_us.pp (T.ts trace i))
          | _ -> None
        end)
      (Array.to_list packets)
  in
  field_diags @ regressions

(* --- A004: ACK-shift conservation ------------------------------------------ *)

(* Shifting may re-time a packet, nothing else: the packets before and
   after are paired by their index into the trace. *)
let ack_shift_conserved ?(subject = "ack shift") trace ~before ~after () =
  let b_idx, b_ts = before and a_idx, a_ts = after in
  if Array.length b_idx <> Array.length a_idx then
    [
      Diag.error ~code:"A004" ~subject
        "segment count changed across shifting: %d before, %d after"
        (Array.length b_idx) (Array.length a_idx);
    ]
  else begin
    let by_packet idx =
      let order = Array.init (Array.length idx) Fun.id in
      Array.stable_sort (fun x y -> Int.compare idx.(x) idx.(y)) order;
      order
    in
    let bo = by_packet b_idx and ao = by_packet a_idx in
    let diags = ref [] in
    Array.iteri
      (fun k x ->
        let y = ao.(k) in
        let bs = b_ts.(x) and as_ = a_ts.(y) in
        if b_idx.(x) <> a_idx.(y) then
          diags :=
            Diag.error ~code:"A004" ~subject ~where:(Span.point as_)
              "segment rewritten across shifting: %a became %a" Seg.pp
              (T.get trace b_idx.(x)) Seg.pp
              (T.get trace a_idx.(y))
            :: !diags
        else if as_ < bs then
          diags :=
            Diag.error ~code:"A004" ~subject ~where:(Span.v as_ (bs + 1))
              "segment moved backward across shifting (%a -> %a)" Time_us.pp
              bs Time_us.pp as_
            :: !diags)
      bo;
    List.rev !diags
  end

(* --- A005: factor accounting ------------------------------------------------ *)

let ratio_epsilon = 1e-9

let ratios_in_range ?(subject = "factors") ratios =
  List.filter_map
    (fun (name, r) ->
      if not (Float.is_finite r) then
        Some
          (Diag.error ~code:"A005" ~subject "ratio of %s is not finite (%f)"
             name r)
      else if r < -.ratio_epsilon || r > 1. +. ratio_epsilon then
        Some
          (Diag.error ~code:"A005" ~subject
             "ratio of %s out of [0,1]: %.6f" name r)
      else None)
    ratios

let sizes_bounded ?(subject = "series") ~period sizes =
  List.filter_map
    (fun (name, size) ->
      if size < Time_us.zero then
        Some
          (Diag.error ~code:"A005" ~subject "size of %s is negative (%a)"
             name Time_us.pp size)
      else if size > period then
        Some
          (Diag.error ~code:"A005" ~subject
             "size of %s (%a) exceeds the analysis period (%a)" name
             Time_us.pp size Time_us.pp period)
      else None)
    sizes

(* --- A006: stage-timing accounting ----------------------------------------- *)

(* The wall clock granularity plus float rounding: nested stage windows
   measured with the same clock can only exceed their enclosing span by
   measurement noise. *)
let timing_epsilon_s = 1e-4

let stage_timings ?(subject = "stages") ~total_s timings =
  let negative =
    List.filter_map
      (fun (name, d) ->
        if Float.is_finite d && d >= 0. then None
        else
          Some
            (Diag.error ~code:"A006" ~subject
               "stage %s has an invalid duration (%.9f s)" name d))
      timings
  in
  let sum = List.fold_left (fun acc (_, d) -> acc +. d) 0. timings in
  let overrun =
    if timings <> [] && sum > total_s +. timing_epsilon_s then
      [
        Diag.error ~code:"A006" ~subject
          "stage durations sum to %.6f s, exceeding the enclosing span \
           (%.6f s)"
          sum total_s;
      ]
    else []
  in
  negative @ overrun

(* --- A007: cross-jobs determinism of stable metrics ------------------------ *)

(* The runtime counterpart of lint rule L007: stable instruments are
   only fed input-derived values through commutative atomic updates, so
   the stable section of a metrics snapshot must be byte-identical
   whatever --jobs value produced it.  A divergence means either a
   wall-clock/config-dependent value leaked into a stable instrument or
   worker-shared mutable state raced. *)

let first_difference a b =
  let n = min (String.length a) (String.length b) in
  let rec go i = if i < n && Char.equal a.[i] b.[i] then go (i + 1) else i in
  go 0

let excerpt s i =
  let start = if i < 24 then 0 else i - 24 in
  let len = min 48 (String.length s - start) in
  if len <= 0 then "" else String.sub s start len

let stable_snapshots_equal ?(subject = "metrics") ~reference ~candidate () =
  if String.equal reference candidate then []
  else
    let i = first_difference reference candidate in
    [
      Diag.error ~code:"A007" ~subject
        "stable metric snapshots diverge across --jobs values at byte %d \
         (reference %S vs candidate %S); a jobs-dependent value leaked into \
         a stable instrument, or worker-shared mutable state raced — see \
         lint rule L007"
        i (excerpt reference i) (excerpt candidate i);
    ]

module Private = struct
  let canonical_spans = canonical_spans
end
