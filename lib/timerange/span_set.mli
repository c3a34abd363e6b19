(** An ordered set of time durations (Section III-A of the paper).

    A span set is a canonical sequence of disjoint, non-adjacent spans in
    increasing order.  It supports the set algebra the paper builds series
    operations on — union, intersection, difference, complement — plus the
    measure the delay factors are defined by: {!size}, the sum of all span
    lengths ("set size / cardinality" in the paper's terms).

    All operations are purely functional; a set is immutable once built. *)

type t

val empty : t
val is_empty : t -> bool

val of_spans : Span.t list -> t
(** Builds the canonical form: sorts, then coalesces overlapping or
    adjacent spans.  Input may be in any order. *)

val of_span_array : Span.t array -> t
(** As {!of_spans} from an array, without list intermediates.  One
    linear pass checks the order, and only an array out of order is
    sorted (in place); canonical input is returned as it is.  Takes
    ownership of the array: pass a fresh one. *)

val of_span : Span.t -> t

val to_list : t -> Span.t list
(** Spans in increasing order, pairwise disjoint and non-adjacent. *)

val size : t -> Time_us.t
(** Total covered time: the paper's "series size", numerator of every
    delay ratio. *)

val mem : Time_us.t -> t -> bool
(** Point membership (binary search). *)

val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t

val clip : Span.t -> t -> t
(** Restriction to a window. *)

val iter : (Span.t -> unit) -> t -> unit

(**/**)

(** Set operations only the audit and the tests use from outside, for
    tests of the span-set algebra. *)
module Private : sig
  val cardinal : t -> int
  (** Number of maximal spans. *)

  val complement : within:Span.t -> t -> t
  (** [complement ~within s] is the part of [within] not covered by [s]. *)

  val hull : t -> Span.t option
  (** Smallest span covering the whole set, if non-empty. *)

  val filter : (Span.t -> bool) -> t -> t
  (** Keeps maximal spans satisfying the predicate.  The result is already
      canonical because dropping spans cannot create adjacency. *)
end
