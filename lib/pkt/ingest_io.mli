(** Input plumbing shared by the streaming readers.

    The record-framing folds ({!Pcap.fold_channel}, {!Pcap.fold_fd},
    [Tdat_bgp.Mrt.fold_fd], [Tdat_bgp.Mrt.fold_file]) terminate a
    capture only when their [read] function returns [0].  The readers
    built here make that a safe contract over every source:

    - [EINTR] is retried, never surfaced — neither as a truncated
      record nor as an exception — for both [Unix.read]
      ([Unix_error (EINTR, _, _)]) and channel [input] (a [Sys_error]).
    - Short reads are the caller's loop to handle; these readers simply
      never lie about EOF, so pipes and sockets deliver complete
      captures.
    - With [~follow], a 0-byte read polls the source instead of ending
      the capture — the tailing mode the serve daemon uses on
      still-growing pcap/MRT files. *)

val retry_eintr : ('a -> 'b -> 'c -> 'd) -> 'a -> 'b -> 'c -> 'd
(** [retry_eintr f a b c] runs [f a b c], retrying while it raises
    [EINTR] (as [Unix_error] or as the channel layer's [Sys_error]).
    The arguments are passed along rather than closed over, so a retried
    [read buf off len] allocates nothing. *)

type read = Bytes.t -> int -> int -> int
(** [read buf off len] fills at most [len] bytes at [off], returning
    the count actually read; [0] means end of input. *)

type follow = int -> bool
(** A tailing policy: called with the cumulative byte count each time
    the source reports EOF.  Returning [true] keeps polling; [false]
    accepts the EOF. *)

val of_read : ?follow:follow -> ?poll_interval_s:float -> read -> read
(** Wrap a raw read with [EINTR] retry and (optionally) the [follow]
    polling loop ([poll_interval_s] defaults to 0.02 s between
    polls). *)

val of_fd : ?follow:follow -> ?poll_interval_s:float -> Unix.file_descr -> read
(** A reader over [Unix.read] — the right source for pipes, sockets and
    tailed files. *)

val of_channel : ?follow:follow -> ?poll_interval_s:float -> in_channel -> read
(** A reader over channel [input], with the same retry guarantees. *)

val follow_idle : ?limit_s:float -> idle_s:float -> unit -> follow
(** The standard tailing policy: keep waiting while the source has
    produced new bytes within the last [idle_s] seconds, giving up
    unconditionally after [limit_s] (default: never). *)
