(** A mutable binary min-heap keyed by integer priority, with insertion
    order as the tie-break so simultaneous simulator events run in
    schedule order (determinism). *)

type 'a t

val create : unit -> 'a t
val size : 'a t -> int

val push : 'a t -> int -> 'a -> unit
(** [push h key v] inserts [v] with priority [key]. *)

val pop : 'a t -> (int * 'a) option
(** Removes and returns the minimum, FIFO among equal keys. *)

val peek_key : 'a t -> int option
