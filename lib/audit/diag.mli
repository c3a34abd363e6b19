(** Structured diagnostics emitted by the runtime invariant audits.

    Every audit finding carries a stable code ([A001]...), a severity, a
    human-readable message, and — when the violation is localized in time
    — the offending time range.  DESIGN.md ("Static analysis & auditing")
    documents the invariant behind each code. *)

type severity = Error | Warning | Info

type t = {
  code : string;  (** Stable invariant code, e.g. ["A001"]. *)
  severity : severity;
  subject : string;
      (** What was audited: a series name, ["voids"], ["acks"], ... *)
  message : string;
  where : Tdat_timerange.Span.t option;
      (** Offending time range, when the violation is localized. *)
}

val error : ?where:Tdat_timerange.Span.t -> code:string -> subject:string ->
  ('a, Format.formatter, unit, t) format4 -> 'a

val warning : ?where:Tdat_timerange.Span.t -> code:string -> subject:string ->
  ('a, Format.formatter, unit, t) format4 -> 'a

val info : ?where:Tdat_timerange.Span.t -> code:string -> subject:string ->
  ('a, Format.formatter, unit, t) format4 -> 'a

val severity_name : severity -> string

val is_error : t -> bool

val errors : t list -> t list
(** Findings with severity {!Error}. *)

val pp : Format.formatter -> t -> unit
(** One line: [A001 error [series] message (at [a, b))]. *)

val pp_report : Format.formatter -> t list -> unit
(** All findings, one per line, followed by a severity tally. *)
