(* Bechamel microbenchmarks: one Test.make per pipeline stage, measuring
   the cost of the pieces that dominate whole-trace analysis (Table VI's
   performance discussion). *)

open Bechamel
open Toolkit

let prepared =
  lazy
    (let result =
       Tdat_bgpsim.Scenario.run ~seed:4242
         [
           Tdat_bgpsim.Scenario.router ~table_prefixes:12_000
             ~timer_interval:100_000 ~quota:40 1;
         ]
     in
     let o = List.hd result.Tdat_bgpsim.Scenario.outcomes in
     let profile =
       Tdat.Conn_profile.of_trace o.Tdat_bgpsim.Scenario.trace
         ~flow:o.Tdat_bgpsim.Scenario.flow
     in
     let shifted, _ = Tdat.Ack_shift.shift profile in
     let gen = Tdat.Series_gen.generate shifted in
     let pcap = Tdat_pkt.Pcap.encode o.Tdat_bgpsim.Scenario.trace in
     (o, profile, shifted, gen, pcap))

let spans =
  lazy
    (let rng = Tdat_rng.Rng.create 5 in
     let mk () =
       Tdat_timerange.Span_set.of_spans
         (List.init 2_000 (fun _ ->
              let s = Tdat_rng.Rng.int rng 1_000_000 in
              Tdat_timerange.Span.v s (s + 1 + Tdat_rng.Rng.int rng 500)))
     in
     (mk (), mk ()))

let tests =
  [
    Test.make ~name:"span_set.union (2x2000 spans)" (Staged.stage (fun () ->
        let a, b = Lazy.force spans in
        ignore (Tdat_timerange.Span_set.union a b)));
    Test.make ~name:"span_set.inter (2x2000 spans)" (Staged.stage (fun () ->
        let a, b = Lazy.force spans in
        ignore (Tdat_timerange.Span_set.inter a b)));
    Test.make ~name:"conn_profile (labeling)" (Staged.stage (fun () ->
        let o, _, _, _, _ = Lazy.force prepared in
        ignore
          (Tdat.Conn_profile.of_trace o.Tdat_bgpsim.Scenario.trace
             ~flow:o.Tdat_bgpsim.Scenario.flow)));
    Test.make ~name:"ack_shift" (Staged.stage (fun () ->
        let _, profile, _, _, _ = Lazy.force prepared in
        ignore (Tdat.Ack_shift.shift profile)));
    Test.make ~name:"series_gen (34 series)" (Staged.stage (fun () ->
        let _, _, shifted, _, _ = Lazy.force prepared in
        ignore (Tdat.Series_gen.generate shifted)));
    Test.make ~name:"factors" (Staged.stage (fun () ->
        let _, _, _, gen, _ = Lazy.force prepared in
        ignore (Tdat.Factors.compute gen)));
    Test.make ~name:"detectors" (Staged.stage (fun () ->
        let _, _, _, gen, _ = Lazy.force prepared in
        ignore (Tdat.Detect_timer.detect gen);
        ignore (Tdat.Detect_loss.detect gen);
        ignore (Tdat.Detect_peer_group.suspects gen);
        ignore (Tdat.Detect_zero_ack.detect gen)));
    Test.make ~name:"full analyzer pipeline" (Staged.stage (fun () ->
        let o, _, _, _, _ = Lazy.force prepared in
        ignore
          (Tdat.Analyzer.analyze o.Tdat_bgpsim.Scenario.trace
             ~flow:o.Tdat_bgpsim.Scenario.flow
             ~mrt:o.Tdat_bgpsim.Scenario.mrt)));
    Test.make ~name:"pcap2bgp (reassemble + extract)" (Staged.stage (fun () ->
        let o, _, _, _, _ = Lazy.force prepared in
        ignore
          (Tdat_bgp.Msg_reader.extract_from_trace o.Tdat_bgpsim.Scenario.trace
             ~flow:o.Tdat_bgpsim.Scenario.flow)));
    Test.make ~name:"pcap decode" (Staged.stage (fun () ->
        let _, _, _, _, pcap = Lazy.force prepared in
        ignore (Tdat_pkt.Pcap.decode_result ~strict:true pcap)));
  ]

let run () =
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
  let raw =
    List.map (fun test -> Benchmark.all cfg instances test) tests
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true
      ~predictors:[| Measure.run |]
  in
  Printf.printf "\n%-36s %16s\n" "stage" "time/run";
  List.iter2
    (fun test raw ->
      let results = Analyze.all ols Instance.monotonic_clock raw in
      Hashtbl.iter
        (fun _ v ->
          match Analyze.OLS.estimates v with
          | Some [ est ] ->
              Printf.printf "%-36s %13.3f us\n" (Test.name test)
                (est /. 1000.)
          | _ -> ())
        results)
    tests raw
