(** Leveled, structured logging for the T-DAT libraries.

    Library code must route diagnostics through this module instead of
    writing to stderr directly (tdat-lint rule L006 enforces it): the
    CLI's [--log-level] then filters uniformly, and every line carries
    machine-splittable [key=value] pairs.

    The API is continuation-based (in the style of the [logs] library):
    the message closure only runs when the level is enabled, so a
    disabled call costs one atomic load and a branch — no formatting,
    no string allocation.

    {[
      Tdat_obs.Log.info (fun m ->
          m ~kv:[ ("file", path); ("record", string_of_int i) ]
            "truncated record");
    ]} *)

type level = Error | Warn | Info | Debug

val level_name : level -> string
(** ["error"], ["warn"], ["info"], ["debug"]. *)

val level_of_string : string -> (level option, string) result
(** Parses ["error"], ["warn"]/["warning"], ["info"], ["debug"] and
    ["quiet"]/["off"] (-> [None]).  [Error] carries a usage message. *)

val set_level : level option -> unit
(** [None] silences everything.  The default is [Some Warn]. *)

type dest = [ `Stderr | `File of string | `Buffer of Buffer.t | `Null ]

val close : unit -> unit
(** Flush and close a [`File] destination (no-op otherwise) and revert
    to [`Stderr]. *)

type ('a, 'b) msgf =
  (?kv:(string * string) list ->
  ('a, Format.formatter, unit, 'b) format4 ->
  'a) ->
  'b

val info : ('a, unit) msgf -> unit

(**/**)

(** The level and sink switches and the levels production does not log
    at, for tests of the logger's filtering. *)
module Private : sig
  val current_level : unit -> level option

  val set_destination : dest -> unit
  (** Default [`Stderr].  [`File path] appends to [path] (created if
      missing); a previously opened file destination is closed first.
      [`Buffer b] is for tests. *)

  val err : ('a, unit) msgf -> unit

  val warn : ('a, unit) msgf -> unit

  val debug : ('a, unit) msgf -> unit
end
