(** Names of the 34 internal event series (Section III-C).

    Stage 1 ({e extraction}) series come straight from the packet trace;
    stage 2 ({e interpretation}) series are location-dependent renamings
    of loss series; stage 3 ({e operation}) series apply heuristics over
    other series; stage 4 ({e algebra}) series are set expressions. *)

type t =
  (* extraction *)
  | Data_pkt
  | Ack_pkt
  | Transmission
  | Outstanding
  | Adv_window
  | Retransmission
  | Out_of_sequence
  | Dup_ack
  | Upstream_loss
  | Downstream_loss
  | Zero_adv_window
  | Keepalive_only
  | Syn_period
  | Fin_period
  | Void_period
  (* interpretation *)
  | Send_local_loss
  | Recv_local_loss
  | Network_loss
  (* operation *)
  | Ack_flight
  | Data_flight
  | Send_app_limited
  | Recv_app_limited
  | Small_adv_window
  | Large_adv_window
  | Adv_bnd_out
  | Cwnd_bnd_out
  | Zero_adv_bnd_out
  | Bandwidth_bound
  | Idle_gap
  | Retrans_period
  (* algebra *)
  | Small_adv_bnd_out
  | Large_adv_bnd_out
  | All_loss
  | Zero_ack_bug

val all : t list
(** All 34, in the order above. *)

val to_string : t -> string
