(** Accommodating the sniffer location (Section III-B1).

    With the sniffer near the receiver, an ACK is observed long before
    its effect (the data it releases) comes back past the sniffer; the
    offset is d2, the sniffer→sender→sniffer round trip of Fig. 12.
    T-DAT shifts ACKs {e forward} in time so that the rewritten trace
    approximates the sender-side arrival order [m1-m2'-m3].

    Per the paper, the shift is computed per {e flight} of ACKs, not per
    ACK: ACKs sent back-to-back are grouped by inter-arrival time; each
    ACK in the flight gets a d2 estimate from the first data packet whose
    transmission it enabled (window bookkeeping); the whole flight then
    shifts by the {e smallest} — most precise — estimate in the flight.
    Flights with no usable estimate fall back to the handshake-measured
    d2 baseline. *)

type flight_shift = {
  span : Tdat_timerange.Span.t;  (** The flight's extent before shifting. *)
  n_acks : int;
  estimates : int;  (** How many ACKs in the flight had a d2 estimate. *)
  applied : Tdat_timerange.Time_us.t;  (** The shift applied, µs. *)
}

val shift :
  ?flight_gap:Tdat_timerange.Time_us.t ->
  Conn_profile.t ->
  Conn_profile.t * flight_shift list
(** Returns the profile with shifted ACK times — a new [ack_ts] column,
    [acks] re-sorted with it when a shift reorders them, the trace
    untouched — and the per-flight diagnostics.  [flight_gap] defaults to [max(rtt/4, 1 ms)].
    If the trace was taken at the sender (d2 baseline ≈ 0), the shift is
    a no-op, as Section III-B promises. *)
