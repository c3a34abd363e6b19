module D = Series_defs

type factor =
  | Bgp_sender_app
  | Tcp_cwnd
  | Send_local_loss
  | Bgp_receiver_app
  | Tcp_adv_window
  | Recv_local_loss
  | Bandwidth
  | Network_loss

type group = Sender | Receiver | Network

let group_of = function
  | Bgp_sender_app | Tcp_cwnd | Send_local_loss -> Sender
  | Bgp_receiver_app | Tcp_adv_window | Recv_local_loss -> Receiver
  | Bandwidth | Network_loss -> Network

let all_factors =
  [
    Bgp_sender_app;
    Tcp_cwnd;
    Send_local_loss;
    Bgp_receiver_app;
    Tcp_adv_window;
    Recv_local_loss;
    Bandwidth;
    Network_loss;
  ]

let factor_name = function
  | Bgp_sender_app -> "BGP sender app"
  | Tcp_cwnd -> "TCP congestion window"
  | Send_local_loss -> "Local packet loss (sender)"
  | Bgp_receiver_app -> "BGP receiver app"
  | Tcp_adv_window -> "TCP advertised window"
  | Recv_local_loss -> "Local packet loss (receiver)"
  | Bandwidth -> "Bandwidth limited"
  | Network_loss -> "Network packet loss"

let group_name = function
  | Sender -> "Sender-side limited"
  | Receiver -> "Receiver-side limited"
  | Network -> "Network limited"

let series_of = function
  | Bgp_sender_app -> [ D.Send_app_limited ]
  | Tcp_cwnd -> [ D.Cwnd_bnd_out ]
  | Send_local_loss -> [ D.Send_local_loss ]
  | Bgp_receiver_app -> [ D.Recv_app_limited ]
  | Tcp_adv_window -> [ D.Adv_bnd_out ]
  | Recv_local_loss -> [ D.Recv_local_loss ]
  | Bandwidth -> [ D.Bandwidth_bound ]
  | Network_loss -> [ D.Network_loss ]

let equal_factor a b =
  match (a, b) with
  | Bgp_sender_app, Bgp_sender_app
  | Tcp_cwnd, Tcp_cwnd
  | Send_local_loss, Send_local_loss
  | Bgp_receiver_app, Bgp_receiver_app
  | Tcp_adv_window, Tcp_adv_window
  | Recv_local_loss, Recv_local_loss
  | Bandwidth, Bandwidth
  | Network_loss, Network_loss ->
      true
  | ( ( Bgp_sender_app | Tcp_cwnd | Send_local_loss | Bgp_receiver_app
      | Tcp_adv_window | Recv_local_loss | Bandwidth | Network_loss ),
      _ ) ->
      false

type result = {
  ratios : (factor * float) list;
  group_ratios : (group * float) list;
  major : group list;
  major_factors : factor list;
  dominant : factor option;
  dominant_group : group option;
  analysis_period : Tdat_timerange.Time_us.t;
}

(* Loss factors take precedence over window/app attribution for the same
   instants: subtract loss spans from the non-loss factor spans so a
   retransmission timeout is counted as loss, not as congestion-window
   wait.  Likewise, advertised-window-bounded periods caused by a small or
   zero window belong to the receiving application, not to the TCP-level
   window factor. *)
let factor_spans gen factor =
  let open Tdat_timerange in
  let raw = Series_gen.union_spans gen (series_of factor) in
  match factor with
  | Send_local_loss | Recv_local_loss | Network_loss | Bandwidth -> raw
  | Tcp_adv_window ->
      Span_set.diff raw
        (Span_set.union
           (Series_gen.spans gen D.Recv_app_limited)
           (Series_gen.spans gen D.All_loss))
  | Bgp_sender_app | Tcp_cwnd | Bgp_receiver_app ->
      Span_set.diff raw (Series_gen.spans gen D.All_loss)

let compute ?(major_threshold = 0.3) gen =
  let open Tdat_timerange in
  let spans_by_factor =
    List.map (fun f -> (f, factor_spans gen f)) all_factors
  in
  let ratios =
    List.map
      (fun (f, s) -> (f, Series_gen.ratio_of_spans gen s))
      spans_by_factor
  in
  let group_spans g =
    List.fold_left
      (fun acc (f, s) -> if group_of f = g then Span_set.union acc s else acc)
      Span_set.empty spans_by_factor
  in
  let group_ratios =
    List.map
      (fun g -> (g, Series_gen.ratio_of_spans gen (group_spans g)))
      [ Sender; Receiver; Network ]
  in
  let major =
    List.filter_map
      (fun (g, r) -> if r > major_threshold then Some g else None)
      group_ratios
  in
  let major_factors =
    List.filter_map
      (fun (f, r) -> if r > major_threshold then Some f else None)
      ratios
  in
  let dominant =
    List.fold_left
      (fun acc (f, r) ->
        match acc with
        | Some (_, best) when best >= r -> acc
        | _ when r > 0. -> Some (f, r)
        | _ -> acc)
      None ratios
    |> Option.map fst
  in
  {
    ratios;
    group_ratios;
    major;
    major_factors;
    dominant;
    dominant_group = Option.map group_of dominant;
    analysis_period = Span.length (Series_gen.window gen);
  }

let pp ppf r =
  let open Format in
  fprintf ppf "@[<v>period=%a@," Tdat_timerange.Time_us.pp r.analysis_period;
  List.iter
    (fun (g, ratio) -> fprintf ppf "%-22s %.3f@," (group_name g) ratio)
    r.group_ratios;
  List.iter
    (fun (f, ratio) ->
      if ratio > 0.005 then fprintf ppf "  %-28s %.3f@," (factor_name f) ratio)
    r.ratios;
  fprintf ppf "@]"

module Private = struct
  let group_of = group_of
end
