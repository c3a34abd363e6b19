(* The time-range substrate: spans, canonical span sets, event series.
   Includes qcheck properties for the set-algebra laws the analyzer
   relies on. *)

open Tdat_timerange

let span = Alcotest.testable Span.pp Span.equal
(* Span sets compared and printed through their canonical span lists. *)
let span_set_equal a b =
  List.equal Span.equal (Span_set.to_list a) (Span_set.to_list b)

let pp_span_set ppf s =
  Format.fprintf ppf "{@[%a@]}"
    (Format.pp_print_list ~pp_sep:Format.pp_print_space Span.pp)
    (Span_set.to_list s)

let span_set = Alcotest.testable pp_span_set span_set_equal

(* --- Span ------------------------------------------------------------ *)

let test_span_basics () =
  let s = Span.v 10 20 in
  Alcotest.(check int) "length" 10 (Span.length s);
  Alcotest.(check bool) "contains start" true (Span.contains s 10);
  Alcotest.(check bool) "excludes stop" false (Span.contains s 20);
  Alcotest.(check int) "point length" 1 (Span.length (Span.point 7));
  Alcotest.check_raises "empty span rejected"
    (Invalid_argument "Span.v: stop (5) must be greater than start (5)")
    (fun () -> ignore (Span.v 5 5))

let test_span_relations () =
  let a = Span.v 0 10 and b = Span.v 5 15 and c = Span.v 10 20 in
  Alcotest.(check bool) "overlaps" true (Span.overlaps a b);
  Alcotest.(check bool) "adjacent do not overlap" false (Span.overlaps a c);
  Alcotest.(check bool) "adjacent touch" true (Span.touches a c);
  Alcotest.(check (option span)) "inter" (Some (Span.v 5 10)) (Span.inter a b);
  Alcotest.(check (option span)) "disjoint inter" None
    (Span.inter a (Span.v 30 40));
  Alcotest.check span "hull" (Span.v 0 20) (Span.hull a c)

(* --- Span_set ---------------------------------------------------------- *)

let set spans = Span_set.of_spans spans

let test_set_coalescing () =
  let s = set [ Span.v 0 10; Span.v 5 15; Span.v 15 20; Span.v 30 40 ] in
  Alcotest.(check int) "coalesced cardinal" 2 (Span_set.Private.cardinal s);
  Alcotest.(check int) "size" 30 (Span_set.size s);
  Alcotest.check span_set "order independent" s
    (set [ Span.v 30 40; Span.v 15 20; Span.v 5 15; Span.v 0 10 ])

let test_set_queries () =
  let s = set [ Span.v 0 10; Span.v 20 30 ] in
  Alcotest.(check bool) "mem inside" true (Span_set.mem 5 s);
  Alcotest.(check bool) "mem in gap" false (Span_set.mem 15 s);
  Alcotest.(check bool) "mem at stop" false (Span_set.mem 10 s);
  Alcotest.(check (option span)) "hull" (Some (Span.v 0 30)) (Span_set.Private.hull s)

let test_set_algebra () =
  let a = set [ Span.v 0 10; Span.v 20 30 ] in
  let b = set [ Span.v 5 25 ] in
  Alcotest.check span_set "union" (set [ Span.v 0 30 ]) (Span_set.union a b);
  Alcotest.check span_set "inter"
    (set [ Span.v 5 10; Span.v 20 25 ])
    (Span_set.inter a b);
  Alcotest.check span_set "diff"
    (set [ Span.v 0 5; Span.v 25 30 ])
    (Span_set.diff a b);
  Alcotest.check span_set "complement"
    (set [ Span.v 10 20 ])
    (Span_set.Private.complement ~within:(Span.v 0 30) a)

let test_set_clip_filter () =
  let s = set [ Span.v 0 10; Span.v 20 30; Span.v 40 41 ] in
  Alcotest.check span_set "clip"
    (set [ Span.v 5 10; Span.v 20 25 ])
    (Span_set.clip (Span.v 5 25) s);
  Alcotest.check span_set "filter"
    (set [ Span.v 0 10; Span.v 20 30 ])
    (Span_set.Private.filter (fun sp -> Span.length sp > 5) s)

(* Property tests: the algebra laws factor attribution depends on. *)

let gen_span_list =
  QCheck.Gen.(
    list_size (int_bound 30)
      (map2
         (fun start len -> Span.v start (start + 1 + len))
         (int_bound 1000) (int_bound 50)))

let arb_set =
  QCheck.make
    ~print:(fun s -> Format.asprintf "%a" pp_span_set s)
    QCheck.Gen.(map Span_set.of_spans gen_span_list)

let prop name arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count:300 arb f)

let qcheck_suite =
  [
    prop "union size >= max input size" (QCheck.pair arb_set arb_set)
      (fun (a, b) ->
        Span_set.size (Span_set.union a b)
        >= max (Span_set.size a) (Span_set.size b));
    prop "inter size <= min input size" (QCheck.pair arb_set arb_set)
      (fun (a, b) ->
        Span_set.size (Span_set.inter a b)
        <= min (Span_set.size a) (Span_set.size b));
    prop "inclusion-exclusion" (QCheck.pair arb_set arb_set) (fun (a, b) ->
        Span_set.size (Span_set.union a b) + Span_set.size (Span_set.inter a b)
        = Span_set.size a + Span_set.size b);
    prop "diff disjoint from subtrahend" (QCheck.pair arb_set arb_set)
      (fun (a, b) -> Span_set.is_empty (Span_set.inter (Span_set.diff a b) b));
    prop "diff + inter partitions a" (QCheck.pair arb_set arb_set)
      (fun (a, b) ->
        Span_set.size (Span_set.diff a b) + Span_set.size (Span_set.inter a b)
        = Span_set.size a);
    prop "complement complements" arb_set (fun a ->
        let within = Span.v (-10) 1200 in
        let c = Span_set.Private.complement ~within a in
        Span_set.size c + Span_set.size (Span_set.clip within a)
        = Span.length within);
    prop "union idempotent" arb_set (fun a ->
        span_set_equal a (Span_set.union a a));
    prop "canonical: no touching spans" arb_set (fun a ->
        let rec ok = function
          | x :: (y :: _ as rest) -> (not (Span.touches x y)) && ok rest
          | _ -> true
        in
        ok (Span_set.to_list a));
    prop "mem agrees with to_list" (QCheck.pair arb_set QCheck.small_nat)
      (fun (a, t) ->
        Span_set.mem t a
        = List.exists (fun sp -> Span.contains sp t) (Span_set.to_list a));
  ]

(* --- Series ------------------------------------------------------------ *)

let test_series_basics () =
  let s =
    Series.of_list [ (Span.v 10 20, "b"); (Span.v 0 5, "a"); (Span.v 15 30, "c") ]
  in
  Alcotest.(check int) "cardinal" 3 (Series.cardinal s);
  Alcotest.(check int) "size collapses overlap" 25 (Series.size s);
  Alcotest.(check (list string)) "sorted payloads" [ "a"; "b"; "c" ]
    (List.map snd (Series.Private.to_list s))

let test_series_clip_and_query () =
  let s = Series.of_list [ (Span.v 0 10, 1); (Span.v 20 30, 2) ] in
  let clipped = Series.clip (Span.v 5 25) s in
  Alcotest.(check int) "clip keeps overlapping" 2 (Series.cardinal clipped);
  Alcotest.(check int) "clip trims" 10 (Series.size clipped)

let test_series_builder () =
  let b = Series.builder () in
  Series.add b (Span.v 10 20) "x";
  Series.add b (Span.v 0 5) "y";
  let s = Series.build b in
  Alcotest.(check (list string)) "builder sorts" [ "y"; "x" ]
    (List.map snd (Series.Private.to_list s))

let test_time_units () =
  Alcotest.(check int) "of_s" 2_000_000 (Time_us.of_s 2.0);
  Alcotest.(check (float 1e-9)) "to_s roundtrip" 0.25
    (Time_us.to_s (Time_us.of_s 0.25))

let suite =
  [
    Alcotest.test_case "span basics" `Quick test_span_basics;
    Alcotest.test_case "span relations" `Quick test_span_relations;
    Alcotest.test_case "set coalescing" `Quick test_set_coalescing;
    Alcotest.test_case "set queries" `Quick test_set_queries;
    Alcotest.test_case "set algebra" `Quick test_set_algebra;
    Alcotest.test_case "set clip/filter" `Quick test_set_clip_filter;
    Alcotest.test_case "series basics" `Quick test_series_basics;
    Alcotest.test_case "series clip" `Quick test_series_clip_and_query;
    Alcotest.test_case "series builder" `Quick test_series_builder;
    Alcotest.test_case "time units" `Quick test_time_units;
  ]
  @ qcheck_suite

(* Additional laws used implicitly throughout the analyzer. *)
let qcheck_suite2 =
  [
    prop "clip is monotone in the window" (QCheck.pair arb_set QCheck.small_nat)
      (fun (a, w) ->
        let small = Span.v 0 (100 + w) in
        let large = Span.v 0 (1200 + w) in
        Span_set.size (Span_set.clip small a)
        <= Span_set.size (Span_set.clip large a));
    prop "clip bounded by window length" arb_set (fun a ->
        let w = Span.v 100 600 in
        Span_set.size (Span_set.clip w a) <= Span.length w);
    prop "filter only removes" (QCheck.pair arb_set QCheck.small_nat)
      (fun (a, d) ->
        Span_set.size
          (Span_set.Private.filter (fun sp -> Span.length sp > d) a)
        <= Span_set.size a);
    prop "union associative" (QCheck.triple arb_set arb_set arb_set)
      (fun (a, b, c) ->
        span_set_equal
          (Span_set.union a (Span_set.union b c))
          (Span_set.union (Span_set.union a b) c));
    prop "inter distributes over union" (QCheck.triple arb_set arb_set arb_set)
      (fun (a, b, c) ->
        span_set_equal
          (Span_set.inter a (Span_set.union b c))
          (Span_set.union (Span_set.inter a b) (Span_set.inter a c)));
    prop "series merge size sub-additive"
      (QCheck.pair (QCheck.make gen_span_list) (QCheck.make gen_span_list))
      (fun (xs, ys) ->
        let s1 = Series.of_list (List.map (fun sp -> (sp, ())) xs) in
        let s2 = Series.of_list (List.map (fun sp -> (sp, ())) ys) in
        let m = Series.merge s1 s2 in
        Series.size m <= Series.size s1 + Series.size s2
        && Series.cardinal m = Series.cardinal s1 + Series.cardinal s2);
  ]

(* Model-based checks for the array kernels: each set operation is
   compared against an obviously-correct list-based reference built from
   of_spans (which only relies on sort + coalesce). *)

let ref_union a b = Span_set.of_spans (Span_set.to_list a @ Span_set.to_list b)

let ref_inter a b =
  Span_set.of_spans
    (List.concat_map
       (fun x ->
         List.filter_map (fun y -> Span.inter x y) (Span_set.to_list b))
       (Span_set.to_list a))

(* Subtract every span of [bs] from [sp], returning the surviving pieces. *)
let rec cut sp bs =
  match bs with
  | [] -> [ sp ]
  | b :: rest -> (
      match Span.inter sp b with
      | None -> cut sp rest
      | Some _ ->
          let left =
            if Span.start sp < Span.start b then
              [ Span.v (Span.start sp) (Span.start b) ]
            else []
          in
          let right =
            if Span.stop sp > Span.stop b then
              [ Span.v (Span.stop b) (Span.stop sp) ]
            else []
          in
          List.concat_map (fun piece -> cut piece rest) (left @ right))

let ref_diff a b =
  Span_set.of_spans
    (List.concat_map (fun sp -> cut sp (Span_set.to_list b)) (Span_set.to_list a))

let canonical s =
  let rec ok = function
    | x :: (y :: _ as rest) ->
        Span.start x < Span.stop x
        && Span.stop x < Span.start y (* disjoint AND non-adjacent *)
        && ok rest
    | [ x ] -> Span.start x < Span.stop x
    | [] -> true
  in
  ok (Span_set.to_list s)

let arb_span =
  QCheck.make
    ~print:(fun s -> Format.asprintf "%a" Span.pp s)
    QCheck.Gen.(
      map2
        (fun start len -> Span.v start (start + 1 + len))
        (int_bound 1000) (int_bound 80))

let kernel_model_suite =
  [
    prop "union matches reference model" (QCheck.pair arb_set arb_set)
      (fun (a, b) -> span_set_equal (Span_set.union a b) (ref_union a b));
    prop "inter matches reference model" (QCheck.pair arb_set arb_set)
      (fun (a, b) -> span_set_equal (Span_set.inter a b) (ref_inter a b));
    prop "diff matches reference model" (QCheck.pair arb_set arb_set)
      (fun (a, b) -> span_set_equal (Span_set.diff a b) (ref_diff a b));
    prop "of_spans with one more span = union of singleton"
      (QCheck.pair arb_span arb_set) (fun (sp, s) ->
        span_set_equal
          (Span_set.of_spans (sp :: Span_set.to_list s))
          (Span_set.union (Span_set.of_span sp) s));
    prop "clip = inter with singleton window" (QCheck.pair arb_span arb_set)
      (fun (w, s) ->
        span_set_equal (Span_set.clip w s)
          (Span_set.inter (Span_set.of_span w) s));
    prop "complement membership flips inside the window"
      (QCheck.pair arb_set QCheck.small_nat) (fun (a, t) ->
        let within = Span.v (-10) 1200 in
        let c = Span_set.Private.complement ~within a in
        (not (Span.contains within t)) || Span_set.mem t c <> Span_set.mem t a);
    prop "filter keeps exactly the matching spans" arb_set (fun a ->
        let pred sp = Span.length sp > 20 in
        span_set_equal (Span_set.Private.filter pred a)
          (Span_set.of_spans (List.filter pred (Span_set.to_list a))));
    prop "kernel outputs are canonical"
      (QCheck.triple arb_span arb_set arb_set) (fun (sp, a, b) ->
        canonical (Span_set.union a b)
        && canonical (Span_set.inter a b)
        && canonical (Span_set.diff a b)
        && canonical (Span_set.of_spans (sp :: Span_set.to_list a))
        && canonical (Span_set.clip sp a)
        && canonical (Span_set.Private.complement ~within:(Span.v (-10) 1200) a));
  ]

(* --- sorted by construction: equivalence with the sort-based code ------- *)

(* Event lists of four kinds: sorted, nearly sorted (a few adjacent
   swaps), tie-heavy (spans from a tiny domain, in random order) and
   unsorted.  Payloads are the events' original positions, so a
   reordering of equal spans shows.  Lengths reach past 256, where a
   builder has grown several times. *)
let compare_event (a, _) (b, _) = Span.compare a b

let gen_events =
  QCheck.Gen.(
    let* kind = int_bound 3 in
    let* n = frequency [ (4, int_bound 40); (1, int_range 250 600) ] in
    let* spans =
      if kind = 2 then
        list_repeat n
          (map2 (fun st len -> Span.v st (st + 1 + len)) (int_bound 5) (int_bound 2))
      else
        list_repeat n
          (map2 (fun st len -> Span.v st (st + 1 + len)) (int_bound 2000) (int_bound 60))
    in
    let events = List.mapi (fun i sp -> (sp, i)) spans in
    let sorted = List.stable_sort compare_event events in
    match kind with
    | 0 -> return sorted
    | 1 ->
        let* swaps = list_size (int_bound 3) (int_bound (max 0 (n - 2))) in
        let a = Array.of_list sorted in
        List.iter
          (fun i ->
            if i + 1 < n then begin
              let t = a.(i) in
              a.(i) <- a.(i + 1);
              a.(i + 1) <- t
            end)
          swaps;
        return (Array.to_list a)
    | _ -> return events)

let print_events evs =
  String.concat "; "
    (List.map (fun (sp, i) -> Format.asprintf "%a:%d" Span.pp sp i) evs)

let arb_events = QCheck.make ~print:print_events gen_events

let arb_window =
  QCheck.make
    ~print:(Format.asprintf "%a" Span.pp)
    QCheck.Gen.(
      map2 (fun st len -> Span.v st (st + 1 + len)) (int_range (-50) 2000)
        (int_bound 2100))

let same_events a b =
  List.equal
    (fun (sa, x) (sb, y) -> Span.equal sa sb && Int.equal x y)
    a b

let built evs =
  let b = Series.builder () in
  List.iter (fun (sp, x) -> Series.add b sp x) evs;
  Series.build b

(* The clip before it returned its input: every overlapping event, its
   span trimmed to the window, in input order. *)
let ref_clip w evs =
  List.filter_map
    (fun (sp, x) -> Option.map (fun sp' -> (sp', x)) (Span.inter w sp))
    evs

(* Sort, then coalesce overlapping and adjacent spans, over lists. *)
let ref_coalesce spans =
  let rec go acc = function
    | [] -> List.rev acc
    | sp :: rest -> (
        match acc with
        | cur :: acc' when Span.start sp <= Span.stop cur ->
            go (Span.hull cur sp :: acc') rest
        | _ -> go (sp :: acc) rest)
  in
  go [] (List.sort Span.compare spans)

let sorted_construction_suite =
  let prop name arb f =
    QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count:300 arb f)
  in
  [
    prop "Series.build == stable sort" arb_events (fun evs ->
        same_events
          (Series.Private.to_list (built evs))
          (List.stable_sort compare_event evs));
    prop "Series.of_list == stable sort" arb_events (fun evs ->
        same_events
          (Series.Private.to_list (Series.of_list evs))
          (List.stable_sort compare_event evs));
    prop "Series.clip == the old clip"
      (QCheck.pair arb_window arb_events) (fun (w, evs) ->
        let s = Series.of_list evs in
        same_events
          (Series.Private.to_list (Series.clip w s))
          (ref_clip w (Series.Private.to_list s)));
    (* Clipped inputs too: trimming to the window's start can leave a
       series out of order, which the merge must still sort. *)
    prop "Series.merge == append + stable sort"
      (QCheck.triple arb_window arb_events arb_events) (fun (w, ea, eb) ->
        List.for_all
          (fun (a, b) ->
            same_events
              (Series.Private.to_list (Series.merge a b))
              (List.stable_sort compare_event
                 (Series.Private.to_list a @ Series.Private.to_list b)))
          (let a = Series.of_list ea and b = Series.of_list eb in
           [ (a, b); (b, a); (Series.clip w a, b); (a, Series.clip w b);
             (Series.clip w a, Series.clip w b); (a, Series.empty);
             (Series.empty, Series.clip w b) ]));
    prop "Series.to_span_set == sort + coalesce"
      (QCheck.pair arb_window arb_events) (fun (w, evs) ->
        List.for_all
          (fun s ->
            List.equal Span.equal
              (Span_set.to_list (Series.to_span_set s))
              (ref_coalesce (List.map fst (Series.Private.to_list s))))
          [ Series.of_list evs; Series.clip w (Series.of_list evs) ]);
    prop "Span_set.of_span_array == sort + coalesce" arb_events (fun evs ->
        let spans = List.map fst evs in
        List.equal Span.equal
          (Span_set.to_list (Span_set.of_span_array (Array.of_list spans)))
          (ref_coalesce spans));
  ]

(* --- Ack_shift: the sort is skipped only where it changes nothing ------- *)

module Seg = Tdat_pkt.Tcp_segment
module Endpoint = Tdat_pkt.Endpoint
module Trace = Tdat_pkt.Trace
module Conn_profile = Tdat.Conn_profile
module Ack_shift = Tdat.Ack_shift

let sender = Endpoint.of_quad 10 0 0 1 179
let receiver = Endpoint.of_quad 10 0 0 2 40000

(* ACKs in time order, in half the cases with many equal timestamps
   (sequence numbers are drawn from three values, so (ts, seq) ties are
   common), told apart by their ack and window fields; data packets
   whose window-edge releases give flights different shifts, so that
   shifting can reorder ACKs across flights. *)
let gen_ack_profile =
  QCheck.Gen.(
    let* n_acks = int_range 1 80 in
    let* ties = bool in
    let gap =
      frequency
        ((if ties then [ (3, return 0) ] else [])
        @ [ (4, int_range 1 3_000); (1, int_range 5_000 40_000) ])
    in
    let* ack_gaps = list_repeat n_acks gap in
    let* ack_seqs = list_repeat n_acks (int_bound 2) in
    let* ack_nums = list_repeat n_acks (int_bound 40_000) in
    let* wins = list_repeat n_acks (int_bound 20_000) in
    let* n_data = int_bound 60 in
    let* data_gaps = list_repeat n_data (int_bound 6_000) in
    let* rtt = int_range 1_000 20_000 in
    let* upstream = opt (int_bound 10_000) in
    let ts = ref 0 in
    let acks =
      List.map2
        (fun (gap, seq) (ack, window) ->
          ts := !ts + gap;
          Seg.v ~ts:!ts ~src:receiver ~dst:sender ~seq ~ack ~window ~len:0 ())
        (List.combine ack_gaps ack_seqs)
        (List.combine ack_nums wins)
    in
    let ts = ref 0 and seq = ref 0 in
    let data =
      List.map
        (fun gap ->
          ts := !ts + gap;
          let s =
            Seg.v ~ts:!ts ~src:sender ~dst:receiver ~seq:!seq ~ack:0 ~len:1000 ()
          in
          seq := !seq + 1000;
          s)
        data_gaps
    in
    let trace = Trace.of_segments (acks @ data) in
    let from e =
      let id = Trace.find_endpoint trace e in
      List.filter
        (fun i -> Trace.src trace i = id)
        (List.init (Trace.length trace) Fun.id)
      |> Array.of_list
    in
    let data = from sender and acks = from receiver in
    return
      {
        Conn_profile.flow = Tdat_pkt.Flow.v ~sender ~receiver;
        start_time = 0;
        end_time = Trace.ts trace (Trace.length trace - 1);
        syn_rtt = Some rtt;
        upstream_rtt = upstream;
        rtt;
        mss = 1000;
        max_adv_window = 20_000;
        trace;
        data;
        labels = Array.map (fun _ -> Conn_profile.In_order) data;
        acks;
        ack_ts = Array.map (Trace.ts trace) acks;
        upstream_episodes = [];
        downstream_episodes = [];
        voids = Span_set.empty;
      })

(* The profile's ACKs as segment records at their (shifted) times. *)
let ack_segments (p : Conn_profile.t) =
  Array.mapi
    (fun k i -> { (Trace.get p.Conn_profile.trace i) with Seg.ts = p.Conn_profile.ack_ts.(k) })
    p.Conn_profile.acks

let arb_ack_profile =
  QCheck.make
    ~print:(fun p ->
      String.concat "; "
        (Array.to_list
           (Array.map (fun a -> Format.asprintf "%a" Seg.pp a) (ack_segments p))))
    gen_ack_profile

(* The always-sort reference: each flight's ACK records moved by the
   flight's applied shift (from the reported flights), then
   [Array.sort]. *)
let always_sorted (p : Conn_profile.t) infos =
  let a = ack_segments p in
  let k = ref 0 in
  List.iter
    (fun (f : Ack_shift.flight_shift) ->
      for i = !k to !k + f.Ack_shift.n_acks - 1 do
        a.(i) <- { (a.(i)) with Seg.ts = a.(i).Seg.ts + f.Ack_shift.applied }
      done;
      k := !k + f.Ack_shift.n_acks)
    infos;
  Array.sort Legacy_ref.compare_ts a;
  a

let ack_shift_suite =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:300
         ~name:"Ack_shift.shift == always-sort reference, ties in (ts, seq)"
         arb_ack_profile (fun p ->
           let shifted, infos = Ack_shift.shift p in
           let acks = ack_segments shifted and expect = always_sorted p infos in
           Array.length acks = Array.length expect
           && Array.for_all2 (fun (a : Seg.t) b -> a = b) acks expect));
  ]

let suite =
  suite @ qcheck_suite2 @ kernel_model_suite @ sorted_construction_suite
  @ ack_shift_suite
