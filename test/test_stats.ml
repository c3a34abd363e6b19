(* Statistics substrate: descriptive stats, CDFs, histograms, and the
   L-method knee detector used for BGP timer inference. *)

open Tdat_stats

let test_summarize () =
  let s = Descriptive.summarize [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ] in
  Alcotest.(check int) "n" 8 s.Descriptive.n;
  Alcotest.(check (float 1e-9)) "mean" 5.0 s.Descriptive.mean;
  Alcotest.(check (float 1e-6)) "stddev (sample)" 2.13809 s.Descriptive.stddev;
  Alcotest.(check (float 1e-9)) "min" 2.0 s.Descriptive.min;
  Alcotest.(check (float 1e-9)) "max" 9.0 s.Descriptive.max

let test_summarize_edge () =
  let s = Descriptive.summarize [ 42. ] in
  Alcotest.(check (float 1e-9)) "single mean" 42. s.Descriptive.mean;
  Alcotest.(check (float 1e-9)) "single stddev" 0. s.Descriptive.stddev;
  Alcotest.check_raises "empty rejected"
    (Invalid_argument "Descriptive.summarize: empty sample") (fun () ->
      ignore (Descriptive.summarize []))

let test_percentile () =
  let xs = [ 1.; 2.; 3.; 4.; 5. ] in
  Alcotest.(check (float 1e-9)) "median" 3. (Descriptive.median xs);
  Alcotest.(check (float 1e-9)) "p0" 1. (Descriptive.percentile 0. xs);
  Alcotest.(check (float 1e-9)) "p100" 5. (Descriptive.percentile 100. xs);
  Alcotest.(check (float 1e-9)) "p25 interpolates" 2.
    (Descriptive.percentile 25. xs)

let test_slow_threshold () =
  (* mean 10, sd 0 -> threshold = 10 *)
  Alcotest.(check (float 1e-9)) "degenerate" 10.
    (Descriptive.slow_threshold [ 10.; 10.; 10. ])

let test_cdf () =
  let c = Cdf.of_samples [ 1.; 1.; 2.; 3. ] in
  Alcotest.(check (float 1e-9)) "eval below" 0. (Cdf.Private.eval c 0.5);
  Alcotest.(check (float 1e-9)) "eval at dup" 0.5 (Cdf.Private.eval c 1.);
  Alcotest.(check (float 1e-9)) "eval top" 1. (Cdf.Private.eval c 3.);
  Alcotest.(check (float 1e-9)) "quantile 0.5" 1. (Cdf.Private.quantile c 0.5);
  Alcotest.(check (float 1e-9)) "quantile 1.0" 3. (Cdf.Private.quantile c 1.0);
  Alcotest.(check int) "points dedup" 3 (List.length (Cdf.points c));
  let lo, hi = Cdf.Private.support c in
  Alcotest.(check (float 1e-9)) "support lo" 1. lo;
  Alcotest.(check (float 1e-9)) "support hi" 3. hi

let test_histogram () =
  let h = Histogram.create ~lo:0. ~hi:10. ~bins:5 in
  Histogram.add_list h [ 0.5; 1.5; 1.6; 9.5; 11. (* clamped *) ];
  Alcotest.(check int) "total" 5 (Histogram.total h);
  Alcotest.(check (float 1e-9)) "mode" 1.
    (Option.get (Histogram.mode_center h));
  Alcotest.(check int) "nonempty bins" 2
    (List.length (Histogram.nonempty_bins h))

let test_linear_fit () =
  let points = Array.init 10 (fun i -> (float_of_int i, (2. *. float_of_int i) +. 1.)) in
  let f = Knee.Private.linear_fit points in
  Alcotest.(check (float 1e-6)) "slope" 2. f.Knee.slope;
  Alcotest.(check (float 1e-6)) "intercept" 1. f.Knee.intercept;
  Alcotest.(check (float 1e-6)) "rmse" 0. f.Knee.rmse

let test_knee_detection () =
  (* A flat region at 200 then a steep rise: knee near the transition. *)
  let flat = List.init 60 (fun _ -> 200.) in
  let rise = List.init 15 (fun i -> 300. +. (float_of_int i *. 150.)) in
  match Knee.knee_of_sorted (flat @ rise) with
  | None -> Alcotest.fail "no knee found"
  | Some v ->
      Alcotest.(check bool)
        (Printf.sprintf "knee %.0f near flat value" v)
        true
        (v >= 150. && v <= 450.)

let test_knee_too_few () =
  Alcotest.(check (option (float 1e-9))) "tiny input" None
    (Knee.knee_of_sorted [ 1.; 2.; 3. ])

let test_ascii_plots_render () =
  (* Smoke: plots produce non-empty multi-line output and don't raise. *)
  let cdf = Ascii_plot.cdf [ ("a", [ (0., 0.1); (1., 0.5); (2., 1.0) ]) ] in
  Alcotest.(check bool) "cdf renders" true (String.length cdf > 100);
  let sc =
    Ascii_plot.scatter ~x_max:1. ~y_max:1.
      [ ('x', [ (0.2, 0.3); (0.9, 0.9) ]) ]
  in
  Alcotest.(check bool) "scatter renders" true (String.length sc > 100);
  let tl =
    Ascii_plot.timeline ~window:(0., 10.)
      [ ("row", [ (1., 2.); (5., 7.) ]) ]
  in
  Alcotest.(check bool) "timeline has waves" true (String.contains tl '#')

let prop name arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count:200 arb f)

let arb_samples =
  QCheck.list_of_size (QCheck.Gen.int_range 1 50) (QCheck.float_range 0. 1000.)

let qcheck_suite =
  [
    prop "percentile within support" arb_samples (fun xs ->
        QCheck.assume (xs <> []);
        let p = Descriptive.percentile 37. xs in
        let s = Descriptive.summarize xs in
        p >= s.Descriptive.min && p <= s.Descriptive.max);
    prop "cdf eval monotone" arb_samples (fun xs ->
        QCheck.assume (xs <> []);
        let c = Cdf.of_samples xs in
        Cdf.Private.eval c 100. <= Cdf.Private.eval c 500.);
    prop "welford mean matches naive" arb_samples (fun xs ->
        QCheck.assume (xs <> []);
        let naive =
          List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)
        in
        abs_float (Descriptive.mean xs -. naive) < 1e-6);
  ]

(* --- L-method against the frozen O(n^2) kernel ------------------------ *)

(* The cost the L-method minimizes at split [c], as the frozen kernel
   computes it. *)
let legacy_cost points c =
  let n = Array.length points in
  let fit a = (Legacy_ref.knee_linear_fit a).Legacy_ref.rmse in
  let fn = float_of_int n in
  (float_of_int c /. fn *. fit (Array.sub points 0 c))
  +. (float_of_int (n - c) /. fn *. fit (Array.sub points c (n - c)))

let curve ys = Array.mapi (fun i y -> (float_of_int i, y)) ys

(* Each case is (the input to [Knee.l_method], the same curve for the
   oracle).  The two differ only for the offset curves, where the oracle
   gets the curve without the offset: its unshifted sums of x² lose
   every significant digit at x near 1e9, the cancellation the rewrite's
   shift avoids.  The offset values are integers, so adding them is
   exact. *)
let gen_knee_case =
  QCheck.Gen.(
    let sorted g =
      let* n = int_range 4 300 in
      let* ys = array_repeat n g in
      Array.sort Float.compare ys;
      return ys
    in
    let plain ys = (curve ys, curve ys) in
    frequency
      [
        (1, map plain (sorted (float_range 0. 1e6)));
        (* Few distinct values: long runs of equal y and tied splits. *)
        ( 1,
          map plain
            (sorted
               (map float_of_int
                  (oneofl [ 200_000; 200_000; 400_000; 1_000_000 ]))) );
        ( 1,
          let* ys = sorted (map float_of_int (int_bound 100_000)) in
          return
            ( Array.mapi (fun i y -> (1e9 +. float_of_int i, 1e9 +. y)) ys,
              curve ys ) );
      ])

let arb_knee_case =
  QCheck.make
    ~print:(fun (pts, _) ->
      String.concat " "
        (Array.to_list
           (Array.map (fun (x, y) -> Printf.sprintf "(%g,%g)" x y) pts)))
    gen_knee_case

(* Same split as the oracle, or a tied one: the oracle's cost at the new
   split agrees with its optimum to 1e-9 of the curve's largest value
   (the scale of a weighted RMSE; a cost of 0 has no scale of its own). *)
let knee_matches_oracle (pts, oracle_pts) =
  match (Knee.l_method pts, Legacy_ref.l_method oracle_pts) with
  | None, None -> true
  | Some (i, _), Some (j, _) when i = j -> true
  | Some (i, _), Some (j, _) ->
      let scale =
        Array.fold_left
          (fun m (_, y) -> Float.max m (abs_float y))
          0. oracle_pts
      in
      let cost c = legacy_cost oracle_pts (c + 1) in
      abs_float (cost i -. cost j) <= 1e-9 *. scale
  | _ -> false

let knee_oracle_suite =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"l_method picks the frozen kernel's split"
         ~count:400 arb_knee_case knee_matches_oracle);
  ]

let suite =
  [
    Alcotest.test_case "summarize" `Quick test_summarize;
    Alcotest.test_case "summarize edge" `Quick test_summarize_edge;
    Alcotest.test_case "percentile" `Quick test_percentile;
    Alcotest.test_case "slow threshold" `Quick test_slow_threshold;
    Alcotest.test_case "cdf" `Quick test_cdf;
    Alcotest.test_case "histogram" `Quick test_histogram;
    Alcotest.test_case "linear fit" `Quick test_linear_fit;
    Alcotest.test_case "knee detection" `Quick test_knee_detection;
    Alcotest.test_case "knee too few" `Quick test_knee_too_few;
    Alcotest.test_case "ascii plots" `Quick test_ascii_plots_render;
  ]
  @ qcheck_suite @ knee_oracle_suite
