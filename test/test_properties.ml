(* Cross-cutting property tests: codec round-trips under random inputs,
   reassembly invariance under segment reordering, and analyzer
   invariants on randomly parameterized simulated transfers. *)

open Tdat_bgp
module Seg = Tdat_pkt.Tcp_segment

let prop ?(count = 60) name arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

(* --- BGP message codec under random updates ----------------------------- *)

let gen_prefix =
  QCheck.Gen.(
    let* a = int_range 1 223 in
    let* b = int_bound 255 in
    let* c = int_bound 255 in
    let* d = int_bound 255 in
    let* len = int_bound 32 in
    return (Prefix.of_quad a b c d len))

let gen_update =
  QCheck.Gen.(
    let* nlri = list_size (int_range 0 40) gen_prefix in
    let* withdrawn = list_size (int_range 0 10) gen_prefix in
    let* hops = int_range 1 8 in
    let* asns = list_repeat hops (int_range 1 65535) in
    let* med = int_bound 1000 in
    return
      (Msg.update ~withdrawn
         ~attrs:
           [
             Attr.Origin Attr.Igp;
             Attr.As_path (As_path.of_asns asns);
             Attr.Next_hop 0x0A000001l;
             Attr.Med (Int32.of_int med);
           ]
         ~nlri ()))

let arb_update = QCheck.make gen_update

let codec_props =
  [
    prop ~count:200 "msg codec roundtrip (random updates)" arb_update
      (fun m ->
        match Msg.decode (Msg.encode m) 0 with
        | Some (m', _) -> m = m'
        | None -> false);
    prop ~count:200 "encoded size is consistent" arb_update (fun m ->
        let bytes = Msg.encode m in
        Msg.peek_length bytes 0 = Some (String.length bytes));
  ]

(* --- stream reassembly invariance under reordering ----------------------- *)

let ep1 = Tdat_pkt.Endpoint.of_quad 10 0 0 1 20000
let ep2 = Tdat_pkt.Endpoint.of_quad 10 0 0 2 179

let gen_segmented_stream =
  (* A byte stream cut into random segments, delivered in a random order
     with random duplicates. *)
  QCheck.Gen.(
    let* n = int_range 1 40 in
    let stream = String.init (n * 37) (fun i -> Char.chr (i mod 251)) in
    let* cuts = list_size (int_range 0 10) (int_bound (String.length stream - 1)) in
    let cuts = List.sort_uniq compare (0 :: cuts @ [ String.length stream ]) in
    let rec pieces = function
      | a :: (b :: _ as rest) when b > a ->
          (a, String.sub stream a (b - a)) :: pieces rest
      | _ :: rest -> pieces rest
      | [] -> []
    in
    let segs = pieces cuts in
    let* dups = list_size (int_range 0 5) (int_bound (max 0 (List.length segs - 1))) in
    let all = segs @ List.map (List.nth segs) dups in
    let* order = shuffle_l all in
    return (stream, order))

let arb_stream =
  QCheck.make
    ~print:(fun (s, order) ->
      Printf.sprintf "stream %d bytes, %d segments" (String.length s)
        (List.length order))
    gen_segmented_stream

let reassembly_props =
  [
    prop ~count:300 "reassembly is order- and duplication-insensitive"
      arb_stream
      (fun (stream, order) ->
        let segs =
          List.mapi
            (fun i (off, payload) ->
              Seg.v ~ts:(i + 1) ~src:ep1 ~dst:ep2 ~seq:off ~ack:0
                ~flags:Seg.data_flags ~payload ())
            order
        in
        let r = Legacy_ref.Fresh_reasm.of_segments segs in
        Stream_reassembly.contiguous r = stream);
    prop ~count:300 "delivery times are monotone in offset" arb_stream
      (fun (stream, order) ->
        let segs =
          List.mapi
            (fun i (off, payload) ->
              Seg.v ~ts:(i + 1) ~src:ep1 ~dst:ep2 ~seq:off ~ack:0
                ~flags:Seg.data_flags ~payload ())
            order
        in
        let r = Legacy_ref.Fresh_reasm.of_segments segs in
        let n = Stream_reassembly.Private.contiguous_length r in
        QCheck.assume (n = String.length stream);
        let ok = ref true in
        for off = 1 to n - 1 do
          if
            Stream_reassembly.delivery_time r off
            < Stream_reassembly.delivery_time r (off - 1)
          then ok := false
        done;
        !ok);
    prop ~count:300 "delivery_time equals the legacy list scan" arb_stream
      (fun (_, order) ->
        let segs =
          List.mapi
            (fun i (off, payload) ->
              Seg.v ~ts:(i + 1) ~src:ep1 ~dst:ep2 ~seq:off ~ack:0
                ~flags:Seg.data_flags ~payload ())
            order
        in
        let r = Legacy_ref.Fresh_reasm.of_segments segs in
        let legacy = Legacy_ref.reasm_create () in
        List.iter (Legacy_ref.reasm_feed legacy) segs;
        let n = Stream_reassembly.Private.contiguous_length r in
        let ok = ref (n = legacy.Legacy_ref.frontier) in
        for off = 0 to n - 1 do
          if
            Stream_reassembly.delivery_time r off
            <> Legacy_ref.delivery_time legacy off
          then ok := false
        done;
        !ok);
  ]

(* --- analyzer invariants on random scenarios ------------------------------ *)

let arb_scenario_seed = QCheck.int_range 1 10_000

let run_random_scenario seed =
  let rng = Tdat_rng.Rng.create seed in
  let module R = Tdat_rng.Rng in
  let timer =
    if R.bernoulli rng 0.5 then Some (R.choose rng [| 100_000; 200_000; 400_000 |])
    else None
  in
  let loss =
    if R.bernoulli rng 0.4 then
      Tdat_netsim.Loss.bernoulli (R.split rng) (R.Private.float rng 0.03)
    else Tdat_netsim.Loss.none
  in
  let router =
    Tdat_bgpsim.Scenario.router
      ~table_prefixes:(R.int_in rng 500 4_000)
      ?timer_interval:timer
      ~quota:(R.int_in rng 5 200)
      ~upstream:
        (Tdat_tcpsim.Connection.path ~delay:(R.int_in rng 500 50_000)
           ~data_loss:loss ())
      1
  in
  let result = Tdat_bgpsim.Scenario.run ~seed [ router ] in
  let o = List.hd result.Tdat_bgpsim.Scenario.outcomes in
  Tdat.Analyzer.analyze o.Tdat_bgpsim.Scenario.trace
    ~flow:o.Tdat_bgpsim.Scenario.flow ~mrt:o.Tdat_bgpsim.Scenario.mrt

let analyzer_props =
  [
    prop ~count:25 "factor ratios lie in [0, 1.02]" arb_scenario_seed
      (fun seed ->
        let a = run_random_scenario seed in
        List.for_all
          (fun (_, r) -> r >= 0. && r <= 1.02)
          a.Tdat.Analyzer.factors.Tdat.Factors.ratios
        && List.for_all
             (fun (_, r) -> r >= 0. && r <= 1.02)
             a.Tdat.Analyzer.factors.Tdat.Factors.group_ratios);
    prop ~count:25 "group ratio bounded by member factors' sum"
      arb_scenario_seed (fun seed ->
        let a = run_random_scenario seed in
        let f = a.Tdat.Analyzer.factors in
        List.for_all
          (fun (g, gr) ->
            let members =
              List.filter
                (fun (fac, _) -> Tdat.Factors.Private.group_of fac = g)
                f.Tdat.Factors.ratios
            in
            let s = List.fold_left (fun acc (_, r) -> acc +. r) 0. members in
            gr <= s +. 0.02)
          f.Tdat.Factors.group_ratios);
    prop ~count:25 "series stay inside the analysis window" arb_scenario_seed
      (fun seed ->
        let a = run_random_scenario seed in
        let gen = a.Tdat.Analyzer.series in
        let win = Tdat.Series_gen.window gen in
        List.for_all
          (fun name -> Tdat.Series_gen.ratio gen name <= 1.001)
          Tdat.Series_defs.all
        && Tdat_timerange.Span.length win > 0);
    prop ~count:25 "transfer identified and complete" arb_scenario_seed
      (fun seed ->
        let a = run_random_scenario seed in
        match a.Tdat.Analyzer.transfer with
        | Some tr -> tr.Tdat.Transfer_id.prefixes > 0
        | None -> false);
  ]

let suite = codec_props @ reassembly_props @ analyzer_props
