open Tdat_timerange
module Seg = Tdat_pkt.Tcp_segment
module Endpoint = Tdat_pkt.Endpoint

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

let monotone_segments ?(subject = "trace") segs =
  let rec go acc = function
    | (a : Seg.t) :: (b :: _ as rest) ->
        let acc =
          if a.ts > b.ts then
            Diag.error ~code:"A002" ~subject
              ~where:(Span.v b.ts (a.ts + 1))
              "timestamps regress: %a after %a" Time_us.pp b.ts Time_us.pp
              a.ts
            :: acc
          else acc
        in
        go acc rest
    | [ _ ] | [] -> List.rev acc
  in
  go [] segs

(* --- A003: seq/ack arithmetic sanity -------------------------------------- *)

let seq_ack_sane ?(subject = "trace") segs =
  let field_diags =
    List.concat_map
      (fun (s : Seg.t) ->
        let bad name v =
          if v < 0 then
            Some
              (Diag.error ~code:"A003" ~subject
                 ~where:(Span.point s.ts)
                 "negative %s (%d) on segment at %a" name v Time_us.pp s.ts)
          else None
        in
        List.filter_map Fun.id
          [
            bad "seq" s.seq;
            bad "ack" s.ack;
            bad "len" s.len;
            bad "window" s.window;
          ])
      segs
  in
  (* Cumulative ACK must not regress within one direction. *)
  let tbl = Hashtbl.create 4 in
  let regressions =
    List.filter_map
      (fun (s : Seg.t) ->
        if not s.flags.Seg.ack then None
        else begin
          let key = (s.src, s.dst) in
          let prev = Hashtbl.find_opt tbl key in
          Hashtbl.replace tbl key s.ack;
          match prev with
          | Some p when s.ack < p ->
              Some
                (Diag.warning ~code:"A003" ~subject
                   ~where:(Span.point s.ts)
                   "cumulative ack regresses from %d to %d at %a" p s.ack
                   Time_us.pp s.ts)
          | _ -> None
        end)
      segs
  in
  field_diags @ regressions

(* --- A004: ACK-shift conservation ------------------------------------------ *)

(* Everything but the timestamp: shifting may re-time a segment, nothing
   else. *)
let shape_compare (a : Seg.t) (b : Seg.t) =
  let flag_bits (f : Seg.flags) =
    (if f.syn then 16 else 0)
    lor (if f.ack then 8 else 0)
    lor (if f.fin then 4 else 0)
    lor (if f.rst then 2 else 0)
    lor if f.psh then 1 else 0
  in
  let cmp =
    [
      (fun () -> Endpoint.compare a.src b.src);
      (fun () -> Endpoint.compare a.dst b.dst);
      (fun () -> Int.compare a.seq b.seq);
      (fun () -> Int.compare a.ack b.ack);
      (fun () -> Int.compare a.len b.len);
      (fun () -> Int.compare a.window b.window);
      (fun () -> Int.compare (flag_bits a.flags) (flag_bits b.flags));
    ]
  in
  List.fold_left (fun acc f -> if acc <> 0 then acc else f ()) 0 cmp

let shape_then_ts a b =
  match shape_compare a b with
  | 0 -> Time_us.compare a.Seg.ts b.Seg.ts
  | c -> c

let ack_shift_conserved ?(subject = "ack shift") ~before ~after () =
  if Array.length before <> Array.length after then
    [
      Diag.error ~code:"A004" ~subject
        "segment count changed across shifting: %d before, %d after"
        (Array.length before) (Array.length after);
    ]
  else begin
    let b = Array.copy before and a = Array.copy after in
    Array.sort shape_then_ts b;
    Array.sort shape_then_ts a;
    let diags = ref [] in
    Array.iteri
      (fun i (bs : Seg.t) ->
        let as_ = a.(i) in
        if shape_compare bs as_ <> 0 then
          diags :=
            Diag.error ~code:"A004" ~subject
              ~where:(Span.point as_.Seg.ts)
              "segment rewritten across shifting: %a became %a" Seg.pp bs
              Seg.pp as_
            :: !diags
        else if as_.Seg.ts < bs.Seg.ts then
          diags :=
            Diag.error ~code:"A004" ~subject
              ~where:(Span.v as_.Seg.ts (bs.Seg.ts + 1))
              "segment moved backward across shifting (%a -> %a)" Time_us.pp
              bs.Seg.ts Time_us.pp as_.Seg.ts
            :: !diags)
      b;
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
