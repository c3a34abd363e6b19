(** The receiving side: a BGP data collector (Fig. 1).

    A collector is one box: a shared {!Tdat_tcpsim.Connection.Site} (the
    sniffer and the local link whose finite buffer produces receiver-local
    drops), a shared BGP process with finite message-processing capacity
    (the "BGP receiver app" delay factor — concurrent table transfers
    queue for the same CPU, Fig. 15), and, for Quagga collectors, an MRT
    archive of everything received.

    The receive buffer of each TCP connection is consumed only after the
    BGP process has parsed and processed the messages in it, so a
    saturated process closes the advertised windows of {e all} its
    sessions. *)

type kind = Quagga | Vendor

type t

val create :
  engine:Tdat_netsim.Engine.t ->
  kind:kind ->
  ip:int32 ->
  ?local_as:int ->
  ?proc_time_per_msg:Tdat_timerange.Time_us.t ->
  ?proc_jitter:float ->
  ?rng:Tdat_rng.Rng.t ->
  ?tcp:Tdat_tcpsim.Tcp_types.config ->
  ?local:Tdat_tcpsim.Connection.path ->
  unit ->
  t
(** [proc_time_per_msg] is the CPU cost of one BGP message (default
    150 µs); [proc_jitter] an exponential multiplier spread (default 0,
    deterministic).  [tcp] sets the collector-side TCP configuration,
    notably [max_adv_window]. *)

val site : t -> Tdat_tcpsim.Connection.Site.t
val tcp_config : t -> Tdat_tcpsim.Tcp_types.config
val ip : t -> int32

val attach : t -> Tdat_tcpsim.Connection.t -> peer_as:int -> unit
(** Register a connection whose receiver this collector's BGP process
    will drain.  The connection must have been created with this
    collector's {!site} and {!tcp_config}. *)

val mrt : t -> Tdat_bgp.Mrt.record list
(** The archive, in arrival order.  Empty for [Vendor] collectors (they
    "work as a looking glass" and keep no archive). *)

val fail_at : t -> Tdat_timerange.Time_us.t -> unit
(** Schedule a whole-box failure: every attached receiver stops
    responding (Fig. 9's [t1]). *)

val local_drops : t -> int
