(* pcap2bgp: reconstruct the TCP byte stream from a packet trace, extract
   the BGP messages, and archive them as MRT records — the side tool of
   Section II-A, used for Vendor collectors that keep no archive. *)

open Cmdliner

(* Report the fault-tolerant reader's findings; [false] when the file is
   not a usable pcap at all (error-severity diagnostics). *)
let report_capture (r : Tdat_pkt.Pcap.result) =
  let open Tdat_pkt.Pcap in
  List.iter
    (fun (d : Diag.t) ->
      match d.Diag.severity with
      | Diag.Error | Diag.Warning ->
          Format.eprintf "pcap2bgp: pcap: %a@." Diag.pp d
      | Diag.Info -> ())
    r.diags;
  if r.diags <> [] then
    Format.eprintf
      "pcap2bgp: pcap: salvaged %d segment(s) from %d record(s) (%d skipped, \
       %d snaplen-clipped)@."
      r.stats.decoded r.stats.records r.stats.skipped r.stats.clipped;
  not (List.exists Diag.is_error r.diags)

let extract trace (stats : Tdat_pkt.Pcap.stats) connections out_path peer_as
    local_as =
  let per_conn =
    List.map
      (fun (key, sub) ->
        let flow = Tdat_pkt.Trace.infer_sender trace key in
        let msgs =
          Tdat_bgp.Msg_reader.extract_from_trace sub ~flow
          |> List.map (fun (m : Tdat_bgp.Msg_reader.timed_msg) ->
                 {
                   Tdat_bgp.Mrt.ts = m.Tdat_bgp.Msg_reader.ts;
                   peer_as;
                   local_as;
                   peer_ip = flow.Tdat_pkt.Flow.sender.Tdat_pkt.Endpoint.ip;
                   local_ip = flow.Tdat_pkt.Flow.receiver.Tdat_pkt.Endpoint.ip;
                   msg = m.Tdat_bgp.Msg_reader.msg;
                 })
        in
        (flow, msgs))
      connections
  in
  (* A connection that yields no messages on a salvaged capture is worth
     flagging: snaplen clipping zero-fills payload tails, and extraction
     stops at the first byte that no longer parses as BGP. *)
  List.iter
    (fun (flow, msgs) ->
      Format.printf "%a: %d message(s)%s@." Tdat_pkt.Flow.pp flow
        (List.length msgs)
        (if msgs = [] && stats.Tdat_pkt.Pcap.clipped > 0 then
           " (none decodable; capture was snaplen-clipped)"
         else ""))
    per_conn;
  let records =
    List.sort (fun a b ->
        Tdat_timerange.Time_us.compare a.Tdat_bgp.Mrt.ts b.Tdat_bgp.Mrt.ts)
      (List.concat_map snd per_conn)
  in
  Tdat_bgp.Mrt.to_file out_path records;
  Printf.printf
    "%d BGP messages from %d connection(s) -> %s (salvaged %d/%d pcap \
     record(s): %d skipped, %d snaplen-clipped)\n"
    (List.length records) (List.length connections) out_path
    stats.Tdat_pkt.Pcap.decoded stats.Tdat_pkt.Pcap.records
    stats.Tdat_pkt.Pcap.skipped stats.Tdat_pkt.Pcap.clipped;
  0

let convert obs pcap_path out_path peer_as local_as strict =
  Tdat_obs_cli.with_obs obs @@ fun () ->
  match Tdat_pkt.Pcap.read_file ~strict pcap_path with
  | exception Tdat_pkt.Pcap.Decode_error msg ->
      Printf.eprintf "pcap2bgp: %s\n" msg;
      2
  | r ->
      if not (report_capture r) then 2
      else begin
        let trace = r.Tdat_pkt.Pcap.trace in
        let connections = Tdat_pkt.Trace.partition_connections trace in
        if connections = [] then begin
          prerr_endline "no TCP connections found";
          1
        end
        else
          extract trace r.Tdat_pkt.Pcap.stats connections out_path peer_as
            local_as
      end

let pcap_arg =
  Arg.(required & pos 0 (some non_dir_file) None
       & info [] ~docv:"TRACE.pcap" ~doc:"Input packet trace.")

let out_arg =
  Arg.(required & pos 1 (some string) None
       & info [] ~docv:"OUT.mrt" ~doc:"Output MRT archive.")

let peer_as_arg =
  Arg.(value & opt int 64500
       & info [ "peer-as" ] ~doc:"Peer AS recorded in the MRT headers.")

let local_as_arg =
  Arg.(value & opt int 65000
       & info [ "local-as" ] ~doc:"Local AS recorded in the MRT headers.")

let strict_arg =
  let doc =
    "Fail (exit 2) on the first malformed pcap structure instead of \
     salvaging the decodable records with $(b,P0xx) warnings."
  in
  Arg.(value & flag & info [ "strict" ] ~doc)

let cmd =
  let doc = "extract BGP messages from a TCP packet trace into MRT" in
  Cmd.v
    (Cmd.info "pcap2bgp" ~version:"1.0.0" ~doc)
    Term.(
      const convert $ Tdat_obs_cli.term $ pcap_arg $ out_arg $ peer_as_arg
      $ local_as_arg $ strict_arg)

let () = exit (Cmd.eval' cmd)
