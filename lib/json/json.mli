(** The repository's one JSON codec: dependency-free, strict RFC 8259.

    Strict parser (complete escapes including surrogate pairs, no
    trailing garbage) and deterministic emitter (member order
    preserved, fixed number formatting), so every document written
    through it is valid by construction.  Numbers are floats; integers
    print exactly up to 2^53. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val int : int -> t
(** [Num] of an integer (exact below 2^53). *)

val parse : string -> (t, string) result
(** [Error msg] carries the offset of the first problem. *)

val to_string : t -> string
(** Single-line (no newlines anywhere), suitable for the
    line-delimited protocol.  Integer-valued numbers of magnitude below
    2^53 print as integers, other finite numbers in {!Canon} form;
    infinities print as [1e999] / [-1e999] (which parse back to the
    same infinities) and NaN as [null]. *)

val add : Buffer.t -> t -> unit
(** {!to_string} appended to a buffer: the one writer, for emitters
    that frame a large document piece by piece. *)

val member : string -> t -> t option
(** Field lookup; [None] on missing field or non-object. *)

val to_string_opt : t -> string option
val to_float_opt : t -> float option

val to_int_opt : t -> int option
(** [Some] only for numbers with zero fractional part. *)

val to_bool_opt : t -> bool option
val to_list_opt : t -> t list option
