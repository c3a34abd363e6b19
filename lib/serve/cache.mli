(** LRU cache of answers keyed structurally and validated by the
    [(mtime, size)] of the file each was computed from.

    A hit requires the file's current [stat] to match the cached
    entry's — a rewritten or appended file recomputes, so regenerated
    inputs are never served stale.  Lookups are safe from any domain;
    the [load] callback runs outside the lock (two concurrent misses
    may both load; the later store wins).  The cache holds at most
    [capacity] entries and [max_bytes] bytes, each entry weighed once,
    when it is stored. *)

type ('k, 'v) t

type stats = {
  entries : int;
  bytes : int;  (** The stored entries' total weight, at most [max_bytes]. *)
  hits : int;
  misses : int;
  evictions : int;  (** Entries displaced by capacity or byte
                        pressure (not mtime/size invalidation, which
                        counts as a miss that overwrites in place). *)
}

val create : capacity:int -> max_bytes:int -> size:('v -> int) -> ('k, 'v) t
(** [size v] is [v]'s weight in bytes, taken outside the lock.  Storing
    evicts least-recently-used entries until the new one fits both
    bounds; a value heavier than [max_bytes] is returned but not stored.
    @raise Invalid_argument if [capacity < 1] or [max_bytes < 0]. *)

val find_or_load :
  ('k, 'v) t -> 'k -> path:string -> load:(unit -> 'v) -> 'v * bool
(** The value cached under [key] while [path]'s [(mtime, size)] is
    unchanged, else [load ()] freshly inserted; and whether it was a
    hit.  Raises whatever [Unix.stat path] or [load] raises — a raising
    [load] stores nothing. *)

val stats : ('k, 'v) t -> stats
