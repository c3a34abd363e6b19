(* gen: write one synthetic capture for the benchmark.

     gen.exe --seed N OUT.pcap SPEC...

   Each SPEC is [prefixes,timer_ms,quota,loss] for one monitored
   session (timer_ms 0 = greedy sender, loss a probability on the
   upstream data path).  Session i (1-based) is router i, simulated with
   seed N + i, so every session is its own TCP connection and the
   merged capture is the multi-session shape `tdat analyze` partitions.
   The workload mixes themselves live in workloads.json; this program
   only runs the simulator, so input generation never shares a process
   with a measurement. *)

module Scenario = Tdat_bgpsim.Scenario

let session ~seed id spec =
  match List.map String.trim (String.split_on_char ',' spec) with
  | [ prefixes; timer_ms; quota; loss ] ->
      let timer_ms = int_of_string timer_ms in
      let loss = float_of_string loss in
      let upstream =
        Tdat_tcpsim.Connection.path ~delay:2_000
          ~data_loss:
            (if loss > 0. then
               Tdat_netsim.Loss.bernoulli (Tdat_rng.Rng.create (seed + id)) loss
             else Tdat_netsim.Loss.none)
          ()
      in
      let router =
        Scenario.router ~table_prefixes:(int_of_string prefixes)
          ?timer_interval:(if timer_ms > 0 then Some (timer_ms * 1000) else None)
          ~quota:(int_of_string quota) ~upstream id
      in
      let result = Scenario.run ~seed:(seed + id) [ router ] in
      (List.hd result.Scenario.outcomes).Scenario.trace
  | _ -> failwith (Printf.sprintf "gen: bad session spec %S" spec)

let () =
  match Array.to_list Sys.argv with
  | _ :: "--seed" :: seed :: out :: (_ :: _ as specs) ->
      let seed = int_of_string seed in
      let traces = List.mapi (fun i spec -> session ~seed (i + 1) spec) specs in
      let trace =
        Tdat_pkt.Trace.of_segments
          (List.concat_map Tdat_pkt.Trace.segments traces)
      in
      Tdat_pkt.Pcap.to_file out trace
  | _ ->
      prerr_endline "usage: gen.exe --seed N OUT.pcap PREFIXES,TIMER_MS,QUOTA,LOSS...";
      exit 2
