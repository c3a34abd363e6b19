(** The serve wire protocol: one JSON object per line in both
    directions.  See DESIGN.md, "Service architecture". *)

type error = { code : string; status : int; message : string }

val err_bad_request : string -> error
val err_not_found : string -> error

(** 429: admission queue full. *)
val err_busy : error

(** 503: server shutting down. *)
val err_draining : error
val err_internal : string -> error

type follow = { idle_s : float; limit_s : float }
(** Tailing policy for a still-growing input file: keep reading while
    the file grew within the last [idle_s] seconds, hard-capped at
    [limit_s] total. *)

type request =
  | Ping
  | Stats
  | Metrics of { stable_only : bool }
      (** Prometheus text exposition; [stable_only] restricts to the
          deterministic (cross-[--jobs] byte-identical) series. *)
  | Shutdown
  | Sleep of { ms : float }  (** Load-test / drain-test verb. *)
  | Analyze of {
      path : string;
      series : bool;
      sender_side : bool;
      follow : follow option;
    }
  | Check of { path : string }
  | Study of {
      paths : string list;
      gap_s : float;
      min_prefixes : int;
      slow_threshold_s : float option;
      follow : follow option;
    }

val cmd_name : request -> string

type parsed = {
  id : Tdat_json.Json.t;
  trace : string option;
      (** Client-supplied trace id (["trace"]), validated non-empty and
          at most 128 bytes.  The server generates one when absent. *)
  timings : bool;
      (** ["timings": true] opts the response into a per-stage timing
          breakdown (job verbs only). *)
  request : (request, error) result;
}

val parse_line : string -> parsed
(** Never raises: malformed JSON or a malformed request map to a typed
    [error] (the connection survives).  [id] is echoed when the line
    carried one, [Null] otherwise. *)

val response_ok : id:Tdat_json.Json.t -> cmd:string -> ?trace:string -> Tdat_json.Json.t -> string
(** [trace] (job verbs) echoes the request's trace id — client-supplied
    or server-generated — as a top-level ["trace"] member. *)

val response_error : id:Tdat_json.Json.t -> error -> string
