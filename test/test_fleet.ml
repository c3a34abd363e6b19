(* Fleet dataset synthesis: structure, determinism, and end-to-end
   compatibility with the analyzer at a reduced scale. *)

open Tdat_bgpsim
module C = Fleet

(* Router populations of Table I. *)
let routers_in = function
  | C.Isp_vendor -> 24
  | C.Isp_quagga -> 27
  | C.Routeviews -> 59

let collect ?(scale = 0.05) ?(seed = 9001) dataset =
  let records = ref [] in
  let summary = C.run ~seed ~scale dataset ~f:(fun r -> records := r :: !records) in
  (summary, List.rev !records)

let test_counts_and_structure () =
  List.iter
    (fun dataset ->
      let summary, records = collect dataset in
      Alcotest.(check int)
        (C.name dataset ^ " transfer count")
        summary.C.transfers (List.length records);
      Alcotest.(check bool) "scaled transfers >= blocking+bug sessions" true
        (summary.C.transfers >= 2);
      Alcotest.(check bool) "packets flowed" true (summary.C.packets > 0);
      List.iter
        (fun (r : C.record) ->
          Alcotest.(check bool) "router id in population" true
            (r.C.meta.C.router_id >= 1
            && r.C.meta.C.router_id <= routers_in dataset);
          Alcotest.(check bool) "trace non-empty" true
            (Tdat_pkt.Trace.length r.C.outcome.Scenario.trace > 0))
        records)
    C.all

let test_determinism () =
  let digest records =
    List.map
      (fun (r : C.record) ->
        ( r.C.meta.C.router_id,
          Tdat_pkt.Trace.length r.C.outcome.Scenario.trace,
          Tdat_pkt.Trace.total_bytes r.C.outcome.Scenario.trace ))
      records
  in
  let _, a = collect ~seed:5 C.Routeviews in
  let _, b = collect ~seed:5 C.Routeviews in
  let _, c = collect ~seed:6 C.Routeviews in
  Alcotest.(check bool) "same seed, same dataset" true (digest a = digest b);
  Alcotest.(check bool) "different seed differs" true (digest a <> digest c)

let test_mrt_presence_by_collector_kind () =
  let has_mrt records =
    List.exists (fun (r : C.record) -> r.C.outcome.Scenario.mrt <> []) records
  in
  let _, quagga = collect C.Isp_quagga in
  let _, vendor = collect C.Isp_vendor in
  Alcotest.(check bool) "quagga archives" true (has_mrt quagga);
  Alcotest.(check bool) "vendor does not" false (has_mrt vendor)

let test_blocking_incident_included () =
  let _, records = collect ~scale:0.05 C.Routeviews in
  Alcotest.(check bool) "has a blocking incident" true
    (List.exists (fun r -> r.C.meta.C.blocking_incident) records)

let test_analyzable_end_to_end () =
  let _, records = collect ~scale:0.05 C.Isp_quagga in
  List.iter
    (fun (r : C.record) ->
      let o = r.C.outcome in
      let a =
        Tdat.Analyzer.analyze o.Scenario.trace ~flow:o.Scenario.flow
          ~mrt:o.Scenario.mrt
      in
      (* Non-blocked transfers must have an identified table transfer. *)
      if not r.C.meta.C.blocking_incident then
        Alcotest.(check bool) "transfer identified" true
          (a.Tdat.Analyzer.transfer <> None))
    records

let suite =
  [
    Alcotest.test_case "counts and structure" `Quick test_counts_and_structure;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "mrt by collector kind" `Quick
      test_mrt_presence_by_collector_kind;
    Alcotest.test_case "blocking incident present" `Slow
      test_blocking_incident_included;
    Alcotest.test_case "analyzable end to end" `Quick
      test_analyzable_end_to_end;
  ]
