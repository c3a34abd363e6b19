(** Connection identity (unordered endpoint pair) and direction tagging.

    Every BGP monitoring trace in the paper has a well-defined data
    direction: operational router ("Sender") to collector ("Receiver").
    A {!t} fixes that orientation so packets can be split into the
    Sender→Receiver data stream and the Receiver→Sender ACK stream. *)

type t = { sender : Endpoint.t; receiver : Endpoint.t }

type direction = To_receiver | To_sender

val v : sender:Endpoint.t -> receiver:Endpoint.t -> t

val key : t -> Endpoint.t * Endpoint.t
(** Canonical unordered key: the lexicographically smaller endpoint
    first.  Two flows over the same connection share a key regardless of
    orientation. *)

val pp : Format.formatter -> t -> unit
