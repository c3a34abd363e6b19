(** Synthesis of the paper's three datasets (Table I).

    Each dataset is a population of operational routers with persistent
    characteristics (path RTT, table size, pacing-timer behaviour, loss
    propensity) and a schedule of table-transfer events — reset storms
    where many routers reopen sessions toward the collector at once
    (the ISP_A vendor bug; collector failures), plus isolated session
    resets, peer-group blocking incidents, and a few zero-window-bug
    sessions.

    Counts are scaled relative to the paper (ISP_A-1's 10396 transfers
    become 1040 at the default [scale = 1.0]; the other datasets keep
    their published counts), and tables are a few thousand prefixes
    instead of ~300k; see DESIGN.md for the substitution argument.

    Transfers are simulated batch by batch and handed to the caller's
    callback one at a time, so whole-dataset runs stay within a bounded
    memory footprint. *)

type dataset = Isp_vendor | Isp_quagga | Routeviews

val name : dataset -> string
(** "ISP_A-1 (Vendor)", "ISP_A-2 (Quagga)", "RV". *)

val all : dataset list

type meta = {
  dataset : dataset;
  batch : int;          (** Batch (storm) index. *)
  concurrent : int;     (** Transfers sharing the collector in this batch. *)
  router_id : int;
  true_timer : Tdat_timerange.Time_us.t option;
      (** Ground truth: the sender's pacing timer, if any. *)
  true_pronounced : bool;
      (** Whether the quota was small enough to leave pronounced gaps. *)
  true_loss_burst : bool;  (** A congestion burst was injected. *)
  blocking_incident : bool;
  zero_bug : bool;
}

type record = { meta : meta; outcome : Scenario.outcome }

type summary = {
  transfers : int;
  packets : int;
  bytes : int;
  routers : int;
  mrt_updates : int;
}

val collector_kind : dataset -> Collector.kind

val run :
  ?seed:int -> ?scale:float -> dataset -> f:(record -> unit) -> summary
(** Simulate the whole dataset, invoking [f] once per transfer.  The
    callback owns the record; nothing heavy is retained afterwards. *)
