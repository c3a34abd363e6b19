(** Ground-truth transfer boundaries for detector validation.

    [simgen --emit-mrt] writes one of these files next to the archives
    it generates: the simulator {e knows} when each session established
    and when the initial table finished transferring, so the detector
    can be scored against it end to end (the acceptance bar is ≥ 95%
    boundary recall).

    The format is one transfer per line, tab-separated:
    [source  peer_as  peer_ip  start_us  end_us  prefixes  messages],
    with [#]-prefixed comment lines ignored. *)

exception Parse_error of string

type t = {
  source : string;  (** Archive file this transfer is recorded in. *)
  peer_as : int;
  peer_ip : int32;
  start_ts : Tdat_timerange.Time_us.t;
  end_ts : Tdat_timerange.Time_us.t;
  prefixes : int;
  messages : int;
}

val to_file : string -> t list -> unit

val of_file : string -> t list
(* perfbench/batch.ml scores its study workload against the ground
   truth simgen writes, and perfbench is not among the linted roots. *)
[@@tdat.lint.allow "L012"]
(** @raise Parse_error on malformed lines, [Sys_error] on I/O. *)

val recall :
  ?tol:Tdat_timerange.Time_us.t -> truth:t list -> Transfer.t list -> float
(* Used only by perfbench/batch.ml's recall figure, outside the linted
   roots, like {!of_file}. *)
[@@tdat.lint.allow "L012"]
(** Fraction of ground-truth transfers recovered by the detector, in
    [0, 1]; [1.] on empty truth. *)

(**/**)

(** The match rule recall counts with, for tests of its tolerance. *)
module Private : sig
  val matches : ?tol:Tdat_timerange.Time_us.t -> t -> Transfer.t -> bool
  (** Same peer, and both boundaries within [tol] (default 0: exact). *)
end
