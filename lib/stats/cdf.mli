(** Empirical cumulative distribution functions, used for every CDF figure
    in the paper (Figs. 3, 4, 16). *)

type t

val of_samples : float list -> t
(** @raise Invalid_argument on the empty list. *)

val points : t -> (float * float) list
(** The step points [(x_i, F(x_i))] at each distinct sample value, in
    increasing order — ready to plot or print. *)

(**/**)

(** Point queries, for tests of the distribution. *)
module Private : sig
  val eval : t -> float -> float
  (** [eval cdf x] is the fraction of samples [<= x], in [0, 1]. *)

  val quantile : t -> float -> float
  (** [quantile cdf q] for [q] in [0, 1]: smallest sample [x] with
      [eval cdf x >= q]. *)

  val support : t -> float * float
  (** Minimum and maximum sample. *)
end
