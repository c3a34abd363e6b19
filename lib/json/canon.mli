(** Canonical (shortest round-trip) decimal rendering of floats.

    Every float T-DAT prints into byte-compared output goes through
    here — the JSON codec ({!Json}, and with it the metrics snapshot,
    the trace and the serve protocol), the Prometheus exposition and
    the differential-analysis text reports — and all of them need the
    same property: the printed form must read back as the exact
    same IEEE 754 value, without dragging [0.30000000000000004]-style
    noise into diffs and byte-identity checks when
    [0.30000000000000003] was never a distinct observable value.  The
    canonical form is the shortest of [%.15g] / [%.16g] / [%.17g] that
    round-trips, which is unique per value and stable across platforms
    using correctly-rounded [strtod]. *)

val to_string : float -> string
(** Shortest decimal string [s] with [float_of_string s] equal to the
    argument bit for bit (so [-0.] prints ["-0"], distinct from ["0"]).
    Finite values only: callers must handle NaN and infinities first
    (JSON, for instance, has no literal for either). *)
