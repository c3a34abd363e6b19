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

(* The sender's SYN, else the first segment: read from the columns,
   endpoints compared by id. *)
let connection_start trace ~flow =
  let module T = Tdat_pkt.Trace in
  let n = T.length trace in
  let sender = T.find_endpoint trace flow.Tdat_pkt.Flow.sender in
  let receiver = T.find_endpoint trace flow.Tdat_pkt.Flow.receiver in
  let rec find i =
    if i = n then T.ts trace 0
    else if
      T.flags trace i land Seg.syn_bit <> 0
      && T.src trace i = sender && T.dst trace i = receiver
    then T.ts trace i
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
