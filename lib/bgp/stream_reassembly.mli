(** TCP byte-stream reassembly from a one-directional packet trace — the
    heart of the paper's [pcap2bgp] side tool.

    Segments may arrive out of order, duplicated, retransmitted, or
    overlapping; the reassembler reconstructs the contiguous byte stream
    and records, for every byte, the instant it became deliverable to the
    application (i.e., when the stream first turned contiguous up to and
    including that byte).  Those delivery times are what give extracted
    BGP messages their arrival timestamps. *)

type t

val create : ?scratch:Tdat_parallel.Scratch.cell -> unit -> t
(** [?scratch] backs the stream buffer with a caller-provided per-domain
    arena cell (checked out via {!Tdat_parallel.Scratch.with_bytes}), so
    repeated reassemblies on one domain reuse a single high-water-mark
    buffer instead of allocating 4 KiB + doublings per connection. *)

val feed : ?rebase:int -> t -> Tdat_pkt.Tcp_segment.t -> unit
(** Feed a data segment (non-data segments are ignored).  Stream offsets
    come from [seq] minus [rebase] (default 0); the stream starts at
    offset 0.  A payload shorter than the segment's declared [len]
    (snaplen-truncated capture, or not materialized) is zero-filled to
    [len], keeping offsets exact.  A segment that extends the contiguous
    part while no hole is open costs O(1); any other costs
    O(log holes), amortized. *)

val of_segments : Tdat_pkt.Tcp_segment.t list -> t

val contiguous : t -> string
(** The reconstructed stream from offset 0 up to the first gap. *)

val contiguous_slice : t -> Tdat_pkt.Slice.t
(** Borrowed view of {!contiguous} (no copy).  Invalidated by the next
    {!feed}, which may grow or replace the backing buffer. *)

val contiguous_length : t -> int

val delivery_time : t -> int -> Tdat_timerange.Time_us.t
(** [delivery_time t off]: when the byte at [off] became deliverable.
    O(1) amortized when successive queries ask at non-decreasing
    offsets (a cursor walks forward from the last answer), a binary
    search over the frontier advances, O(log advances), otherwise.
    @raise Invalid_argument if [off >= contiguous_length t]. *)

val total_gaps : t -> int
(** Number of distinct holes still open beyond the contiguous part. *)

val duplicate_bytes : t -> int
(** Bytes received more than once (retransmission overlap). *)
