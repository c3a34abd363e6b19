module Series = Tdat_timerange.Series
module Span = Tdat_timerange.Span

type result = {
  timer : Tdat_timerange.Time_us.t;
  gaps : int;
  induced_delay : Tdat_timerange.Time_us.t;
}

(* The SendAppLimited event lengths, in event order. *)
let gap_lengths gen =
  let s = Series_gen.events gen Series_defs.Send_app_limited in
  let a = Array.make (Series.cardinal s) 0 in
  let i = ref 0 in
  Series.iter
    (fun sp _ ->
      a.(!i) <- Span.length sp;
      incr i)
    s;
  a

let gap_distribution gen =
  Array.fold_right
    (fun d acc -> Tdat_timerange.Time_us.to_s d :: acc)
    (gap_lengths gen) []
  |> List.sort Float.compare

(* [Descriptive.median] of [a.(first) .. a.(first + n - 1)] ([n >= 1],
   sorted), as floats and by the same arithmetic, so the result is the
   same float. *)
let median_of_range a ~first n =
  let v i = float_of_int a.(first + i) in
  if n = 1 then v 0
  else begin
    let rank = 0.5 *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    let hi = Stdlib.min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    v lo +. (frac *. (v hi -. v lo))
  end

let detect_gaps ?(min_gap = 20_000) ?(max_gap = 2_000_000) ?(min_count = 10)
    ?(cluster_fraction = 0.5) raw =
  let in_range d = d >= min_gap && d <= max_gap in
  let n = Array.fold_left (fun n d -> if in_range d then n + 1 else n) 0 raw in
  if n < min_count then None
  else begin
    (* The in-range gaps, sorted as ints: [float_of_int] is monotone, so
       this is the order of the gaps as floats. *)
    let gaps = Array.make n 0 in
    let j = ref 0 in
    Array.iter
      (fun d ->
        if in_range d then begin
          gaps.(!j) <- d;
          incr j
        end)
      raw;
    Array.sort Int.compare gaps;
    (* The sorted-gap curve, rank on x and value on y.  Seeded with a
       constant pair, which is static data: past 256 points a fresh seed
       forces a minor collection. *)
    let points = Array.make n (0., 0.) in
    Array.iteri (fun i g -> points.(i) <- (float_of_int i, float_of_int g)) gaps;
    match Tdat_stats.Knee.l_method points with
    | None -> None
    | Some (k, _) ->
        (* Validate: a real timer clusters gaps tightly around the knee;
           a wandering inter-burst rhythm spreads too wide to pass.  The
           gaps within ±15% of the knee are one run of the sorted
           array. *)
        let knee = float_of_int gaps.(k) in
        let lo = 0.85 *. knee and hi = 1.15 *. knee in
        let first = ref 0 and last = ref (n - 1) in
        while !first < n && float_of_int gaps.(!first) < lo do
          incr first
        done;
        while !last >= 0 && float_of_int gaps.(!last) > hi do
          decr last
        done;
        let n_clustered = Stdlib.max 0 (!last - !first + 1) in
        if
          n_clustered = 0
          || float_of_int n_clustered
             < cluster_fraction *. float_of_int n
        then None
        else begin
          (* Report the cluster's median as the timer value: robust to
             the knee landing on the cluster's edge. *)
          let timer =
            int_of_float (median_of_range gaps ~first:!first n_clustered)
          in
          let induced = ref 0 in
          for i = !first to !last do
            induced := !induced + gaps.(i)
          done;
          Some { timer; gaps = n_clustered; induced_delay = !induced }
        end
  end

let detect ?min_gap ?max_gap ?min_count ?cluster_fraction gen =
  detect_gaps ?min_gap ?max_gap ?min_count ?cluster_fraction (gap_lengths gen)

module Private = struct
  let detect_gaps = detect_gaps
end
