module Seg = Tdat_pkt.Tcp_segment
module Mct = Tdat_bgp.Mct

type source = Archive | Reconstructed

type t = {
  start_ts : Tdat_timerange.Time_us.t;
  end_ts : Tdat_timerange.Time_us.t;
  prefixes : int;
  updates : int;
  source : source;
}

let duration t = max 0 (t.end_ts - t.start_ts)

let span t =
  Tdat_timerange.Span.v t.start_ts (max (t.start_ts + 1) (t.end_ts + 1))

(* The sender's SYN, else the first segment: found by index, without
   building the trace's segment list. *)
let connection_start trace ~flow =
  let n = Tdat_pkt.Trace.length trace in
  let rec find i =
    if i = n then (Tdat_pkt.Trace.get trace 0).Seg.ts
    else
      let (s : Seg.t) = Tdat_pkt.Trace.get trace i in
      if s.flags.Seg.syn && Tdat_pkt.Flow.is_to_receiver flow s then s.Seg.ts
      else find (i + 1)
  in
  if n = 0 then None else Some (find 0)

let identify ?mct ?mrt trace ~flow =
  match connection_start trace ~flow with
  | None -> None
  | Some start_ts -> (
      let result, source =
        match mrt with
        | Some (_ :: _ as records) ->
            let updates =
              List.filter_map
                (fun (r : Tdat_bgp.Mrt.record) ->
                  match r.Tdat_bgp.Mrt.msg with
                  | Tdat_bgp.Msg.Update u when u.Tdat_bgp.Msg.nlri <> [] ->
                      Some (r.Tdat_bgp.Mrt.ts, u.Tdat_bgp.Msg.nlri)
                  | _ -> None)
                records
            in
            (Mct.transfer_end ?config:mct ~start:start_ts updates, Archive)
        | Some [] | None ->
            (* Streaming scan: reassemble into a per-domain scratch
               buffer and fold the update stream directly — no decoded
               message or prefix list ever materializes. *)
            ( Tdat_parallel.Scratch.(with_bytes ~slot:slot_reassembly 4096)
                (fun cell ->
                  let reasm =
                    Tdat_bgp.Msg_reader.reassemble_from_trace ~scratch:cell
                      trace ~flow
                  in
                  Mct.transfer_end_of_reasm ?config:mct ~start:start_ts reasm),
              Reconstructed )
      in
      match result with
      | None -> None
      | Some r ->
          Some
            {
              start_ts;
              end_ts = r.Mct.end_ts;
              prefixes = r.Mct.prefixes;
              updates = r.Mct.updates;
              source;
            })
