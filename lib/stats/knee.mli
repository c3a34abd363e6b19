(** Knee-point detection with the L-method (Salvador & Chan, ICTAI 2004),
    the technique the paper uses to automatically locate the knee in the
    gap-length distribution and hence infer BGP sender timers (Fig. 17). *)

type fit = { slope : float; intercept : float; rmse : float }

val l_method : (float * float) array -> (int * float) option
(** [l_method points] fits every split of the curve into a left and right
    straight line and returns [(index, x)] of the split minimizing the
    length-weighted RMSE — the knee.  [None] when the curve has fewer than
    4 points (no non-trivial split exists).  O(n): each split's two fits
    come from running sums.  Among splits of equal cost the first wins. *)

val knee_of_sorted : float list -> float option
(** Convenience for the paper's use: given raw gap lengths, build the
    sorted-value curve (rank on x, value on y) and return the value at the
    detected knee. *)

(**/**)

(** The least-squares fit the L-method runs on each split, for tests of
    the fit. *)
module Private : sig
  val linear_fit : (float * float) array -> fit
  (** Least-squares line through the points.
      @raise Invalid_argument on fewer than 2 points. *)
end
