(** Deterministic pseudo-random numbers (splitmix64).

    Every stochastic choice in the simulator draws from an explicit [t]
    seeded by the scenario, so whole-dataset syntheses are reproducible
    bit-for-bit across runs and machines. *)

type t

val create : int -> t
(** [create seed]. Equal seeds yield equal streams. *)

val split : t -> t
(** A statistically independent child stream; the parent advances. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].
    @raise Invalid_argument if [bound <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] (inclusive). *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is true with probability [p]. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed, given mean. *)

val choose : t -> 'a array -> 'a
(** Uniform pick. @raise Invalid_argument on empty array. *)

val weighted : t -> (float * 'a) list -> 'a
(** Pick by relative weight. @raise Invalid_argument on empty list or
    non-positive total weight. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates. *)

(**/**)

(** Raw float draws, for tests of the generator's range. *)
module Private : sig
  val float : t -> float -> float
  (** Uniform in [\[0, bound)]. *)
end
