(** The conclusive output of T-DAT (Section III-D): eight delay factors
    mapped onto three top-level groups, each quantified by its delay
    ratio over the analysis period. *)

type factor =
  | Bgp_sender_app      (** Sender group: the sending BGP process. *)
  | Tcp_cwnd            (** Sender group: congestion window. *)
  | Send_local_loss     (** Sender group: sender-local packet loss. *)
  | Bgp_receiver_app    (** Receiver group: the receiving BGP process. *)
  | Tcp_adv_window      (** Receiver group: advertised-window limit. *)
  | Recv_local_loss     (** Receiver group: receiver-local packet loss. *)
  | Bandwidth           (** Network group: path bandwidth. *)
  | Network_loss        (** Network group: in-network packet loss. *)

type group = Sender | Receiver | Network

val equal_factor : factor -> factor -> bool
val factor_name : factor -> string
val group_name : group -> string

type result = {
  ratios : (factor * float) list;  (** The raw 8-vector [V]. *)
  group_ratios : (group * float) list;  (** The compact 3-vector [G]. *)
  major : group list;  (** Groups above the majority threshold. *)
  major_factors : factor list;  (** Factors above the threshold. *)
  dominant : factor option;  (** Highest-ratio factor, if any ratio > 0. *)
  dominant_group : group option;
  analysis_period : Tdat_timerange.Time_us.t;
}

val compute : ?major_threshold:float -> Series_gen.t -> result
(** [major_threshold] defaults to 0.3, the paper's engineering choice
    (robust between 0.3 and 0.5). *)

val pp : Format.formatter -> result -> unit

(**/**)

(** The factor-to-group map, for tests that check the group ratios
    against their factors. *)
module Private : sig
  val group_of : factor -> group
end
