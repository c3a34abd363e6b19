(** Streaming, fault-tolerant MRT codec (RFC 6396) for BGP4MP records —
    the format Quagga collectors archive BGP updates in, the output
    format of [pcap2bgp], and the input format of the measurement-study
    subsystem ([Tdat_study], `tdat study`).

    Records are written as [BGP4MP_ET] (type 17, microsecond timestamps)
    and read back from either BGP4MP (type 16, second resolution) or
    BGP4MP_ET.  Two subtypes are understood: [BGP4MP_MESSAGE] (1), a
    received BGP message, and [BGP4MP_STATE_CHANGE] (0), an FSM
    transition of the monitored session — the event the table-transfer
    detector anchors transfer starts on.  Other record types and
    subtypes are skipped losslessly.

    Reading is {e streaming} and in place: one record loop frames each
    record where it lies in a reused 16 KiB buffer, read ahead from the
    archive file, copying none out, so a year-long archive is processed
    in memory bounded by the larger of 16 KiB and its largest record.
    Malformed input degrades gracefully: each problem produces a typed
    {!Diag.t} ([M0xx] codes, see DESIGN.md "Measurement study") and the
    reader salvages every decodable record.  [?strict:true] instead
    raises [Bgp_error.Decode_error] with context ["Mrt.decode"] on the
    first error- or warning-severity diagnostic, message-compatible with
    the historical whole-file decoder. *)

type record = {
  ts : Tdat_timerange.Time_us.t;
  peer_as : int;
  local_as : int;
  peer_ip : int32;
  local_ip : int32;
  msg : Msg.t;
}

(** BGP FSM states as encoded in BGP4MP_STATE_CHANGE records
    (RFC 6396 §4.4.1, codes 1–6). *)
type fsm_state = Idle | Connect | Active | Open_sent | Open_confirm | Established

type state_change = {
  sc_ts : Tdat_timerange.Time_us.t;
  sc_peer_as : int;
  sc_local_as : int;
  sc_peer_ip : int32;
  sc_local_ip : int32;
  old_state : fsm_state;
  new_state : fsm_state;
}

(** One decoded archive record. *)
type entry = Message of record | State of state_change

val messages : entry list -> record list
(** The [Message] payloads, in order (state changes dropped). *)

(** Typed per-record archive diagnostics: the pcap reader's diagnostic
    type, with [M0xx] codes ([Tdat_audit.Ingest] lifts both into the
    audit report):

    - [M001] warning: truncated record header — the file ends mid-header;
      salvage stops, earlier records are kept.
    - [M002] warning: truncated record — the declared body length
      overruns the file; salvage stops.
    - [M003] warning: short BGP4MP body; the record is skipped and
      salvage continues (framing is intact).
    - [M004] warning: bad embedded BGP message; skipped, salvage
      continues.
    - [M005] info: record of an unsupported MRT type or subtype,
      skipped losslessly (also what the legacy strict decoder did).
    - [M006] warning: state-change body with an FSM code outside 1–6;
      skipped, salvage continues.
    - [M007] warning: record declaring an implausibly large body
      (> 16 MiB) — framing is no longer trusted; salvage stops. *)
module Diag = Tdat_pkt.Pcap.Diag

type stats = {
  records : int;  (** Complete records read. *)
  bgp_messages : int;  (** [Message] entries produced. *)
  state_changes : int;  (** [State] entries produced. *)
  skipped : int;  (** Records that produced no entry (unsupported, malformed). *)
}

type result = { entries : entry list; diags : Diag.t list; stats : stats }

val fold_file :
  ?strict:bool ->
  ?on_diag:(Diag.t -> unit) ->
  ?follow:Tdat_pkt.Ingest_io.follow ->
  string ->
  init:'a ->
  ('a -> entry -> 'a) ->
  'a * stats
(* perfbench/batch.ml prices its study workload's decode-only pass with
   this fold, and perfbench is not among the linted roots. *)
[@@tdat.lint.allow "L012"]
(** [fold_file path ~init f] decodes the archive at [path] one record at
    a time, folding [f] over the entries in archive order, in bounded
    memory.  Diagnostics are streamed to [on_diag] instead of being
    accumulated.  The file is read ahead in 16 KiB chunks and closed on
    return; failing to open or read it raises the [Sys_error]
    [open_in_bin] or [input] would.  Reads are [EINTR]-safe, and with
    [~follow] (see {!Tdat_pkt.Ingest_io.follow_idle}) EOF polls the file
    instead of ending the archive — the tailing mode for a still-growing
    file. *)

(** What one archived record says about its session, as the summary
    fold reports it: the type of a received BGP message, or a state
    change. *)
module Kind : sig
  type t =
    | Open
    | Update
    | Notification
    | Keepalive
    | Up  (** A state change entering [Established]. *)
    | Down  (** Any other state change. *)
end

val fold_summary_file :
  ?strict:bool ->
  ?on_diag:(Diag.t -> unit) ->
  ?follow:Tdat_pkt.Ingest_io.follow ->
  string ->
  init:'a ->
  ('a -> ts:Tdat_timerange.Time_us.t -> peer_as:int -> peer_ip:int ->
   kind:Kind.t -> nlri:int -> 'a) ->
  'a * stats
(** The summary fold: the same framing loop, file reading, diagnostics,
    strict-mode errors and [stats] as {!fold_file}, but each entry
    reaches [f] as immediates instead of an {!entry}: its timestamp, the
    peer's AS and IPv4 address (as an unsigned 32-bit int), its
    {!Kind.t} and, for an UPDATE, the number of announced prefixes
    ({!Msg.nlri_count}; 0 otherwise).  The embedded message is checked
    by {!Msg.validate}, so a record the entry fold would skip with M004
    is skipped here too, and nothing per record is allocated. *)

val to_file : string -> record list -> unit
val to_file_entries : string -> entry list -> unit

val read_file : ?strict:bool -> string -> result
(** Streaming read collecting the salvaged entries, all diagnostics and
    counters.  Fault-tolerant unless [~strict:true]. *)
