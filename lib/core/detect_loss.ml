open Tdat_timerange
module D = Series_defs

type episode = { span : Span.t; packets : int }

type result = {
  episodes : episode list;
  induced_delay : Time_us.t;
}

let detect ?(threshold = 8) ?(merge_gap = 1_500_000) gen =
  (* Merge the loss events from every location series, then coalesce
     episodes separated by less than [merge_gap] into one "episode of
     consecutive retransmissions" (Fig. 6 shows such episodes spanning
     several seconds of chained timeouts), summing their packet counts. *)
  let all =
    Series.merge
      (Series_gen.events gen D.Send_local_loss)
      (Series.merge
         (Series_gen.events gen D.Recv_local_loss)
         (Series_gen.events gen D.Network_loss))
  in
  let close a b = Span.start b - Span.stop a <= merge_gap in
  let merged =
    Series.fold
      (fun span packets acc ->
        match acc with
        | (prev_span, prev_packets) :: rest
          when Span.touches prev_span span || close prev_span span ->
            (Span.hull prev_span span, prev_packets + packets) :: rest
        | _ -> (span, packets) :: acc)
      all []
    |> List.rev
  in
  let episodes =
    List.filter_map
      (fun (span, packets) ->
        if packets >= threshold then Some { span; packets } else None)
      merged
  in
  { episodes; induced_delay = Series.size all }

