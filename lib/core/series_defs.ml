type t =
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
  | Send_local_loss
  | Recv_local_loss
  | Network_loss
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
  | Small_adv_bnd_out
  | Large_adv_bnd_out
  | All_loss
  | Zero_ack_bug

let all =
  [
    Data_pkt;
    Ack_pkt;
    Transmission;
    Outstanding;
    Adv_window;
    Retransmission;
    Out_of_sequence;
    Dup_ack;
    Upstream_loss;
    Downstream_loss;
    Zero_adv_window;
    Keepalive_only;
    Syn_period;
    Fin_period;
    Void_period;
    Send_local_loss;
    Recv_local_loss;
    Network_loss;
    Ack_flight;
    Data_flight;
    Send_app_limited;
    Recv_app_limited;
    Small_adv_window;
    Large_adv_window;
    Adv_bnd_out;
    Cwnd_bnd_out;
    Zero_adv_bnd_out;
    Bandwidth_bound;
    Idle_gap;
    Retrans_period;
    Small_adv_bnd_out;
    Large_adv_bnd_out;
    All_loss;
    Zero_ack_bug;
  ]

let to_string = function
  | Data_pkt -> "DataPkt"
  | Ack_pkt -> "AckPkt"
  | Transmission -> "Transmission"
  | Outstanding -> "Outstanding"
  | Adv_window -> "AdvWindow"
  | Retransmission -> "Retransmission"
  | Out_of_sequence -> "OutOfSequence"
  | Dup_ack -> "DupAck"
  | Upstream_loss -> "UpstreamLoss"
  | Downstream_loss -> "DownstreamLoss"
  | Zero_adv_window -> "ZeroAdvWindow"
  | Keepalive_only -> "KeepaliveOnly"
  | Syn_period -> "SynPeriod"
  | Fin_period -> "FinPeriod"
  | Void_period -> "VoidPeriod"
  | Send_local_loss -> "SendLocalLoss"
  | Recv_local_loss -> "RecvLocalLoss"
  | Network_loss -> "NetworkLoss"
  | Ack_flight -> "AckFlight"
  | Data_flight -> "DataFlight"
  | Send_app_limited -> "SendAppLimited"
  | Recv_app_limited -> "RecvAppLimited"
  | Small_adv_window -> "SmallAdvWindow"
  | Large_adv_window -> "LargeAdvWindow"
  | Adv_bnd_out -> "AdvBndOut"
  | Cwnd_bnd_out -> "CwndBndOut"
  | Zero_adv_bnd_out -> "ZeroAdvBndOut"
  | Bandwidth_bound -> "BandwidthBound"
  | Idle_gap -> "IdleGap"
  | Retrans_period -> "RetransPeriod"
  | Small_adv_bnd_out -> "SmallAdvBndOut"
  | Large_adv_bnd_out -> "LargeAdvBndOut"
  | All_loss -> "AllLoss"
  | Zero_ack_bug -> "ZeroAckBug"

