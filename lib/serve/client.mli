(** A blocking client for the serve protocol (tests, the load bench,
    interactive poking).  Not domain-safe: one client per domain. *)

type t

val connect : [ `Unix of string | `Tcp of string * int ] -> t
(** @raise Unix.Unix_error when the server cannot be reached. *)

val close : t -> unit

val rpc : t -> Tdat_json.Json.t -> (Tdat_json.Json.t, string) result
(** One request, one response.  [Error] means transport or framing
    broke, or no response arrived within {!recv_timeout_s} —
    protocol-level failures come back as [Ok] responses with
    [ok:false]. *)

(**/**)

(** Raw line I/O and the receive timeout, for tests that speak malformed
    or partial requests to the daemon. *)
module Private : sig
  val recv_timeout_s : float
  (** How long a read waits for response bytes: 10 s. *)

  val send_line : t -> string -> unit
  (** Raw line send, for pipelining and malformed-input tests. *)

  val recv_line : t -> string option
  (** Next response line; [None] on orderly EOF.
      @raise Unix.Unix_error [(EAGAIN, _, _)] when a read waits longer
      than {!recv_timeout_s}. *)
end
