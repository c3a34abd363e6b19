(* The daemon's response cache (DESIGN.md, "Response cache").

   A served answer depends only on the input file's bytes and the
   request's options, so the daemon keeps the answer itself: a repeat
   request is served without decoding or analyzing anything.  Entries
   are keyed by the caller's key (the parsed request) and validated
   against the [(mtime, size)] of a file at every lookup, so a
   rewritten or appended file is never served stale — it simply misses
   and is computed again.

   Concurrency: lookups come from service worker domains.  The table is
   mutex-guarded, but the [load] callback runs outside the lock (it is
   the expensive part); two concurrent misses on the same key may both
   compute, and the later store wins — wasted work, never wrong
   results, and the steady state is hits.

   Bounds: at most [capacity] entries and [max_bytes] in all, each
   entry weighed by [size] once, when it is stored.  Least-recently-used
   entries are evicted until a new one fits; one larger than the whole
   budget is returned but never stored. *)

type 'v entry = {
  mtime : float;
  size : int;  (* the file's *)
  bytes : int;  (* the entry's, by the cache's [size] *)
  value : 'v;
  mutable stamp : int;  (* LRU clock; larger = more recently used *)
}

type ('k, 'v) t = {
  m : Mutex.t;
  tbl : ('k, 'v entry) Hashtbl.t;
  capacity : int;
  max_bytes : int;
  weigh : 'v -> int;
  mutable bytes : int;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type stats = {
  entries : int;
  bytes : int;
  hits : int;
  misses : int;
  evictions : int;
}

module Obs = Tdat_obs.Metrics

let m_hits = Obs.Counter.make ~stable:false "serve.cache.hits"
let m_misses = Obs.Counter.make ~stable:false "serve.cache.misses"
let m_evictions = Obs.Counter.make ~stable:false "serve.cache.evictions"

let create ~capacity ~max_bytes ~size =
  if capacity < 1 then invalid_arg "Cache.create: capacity must be >= 1";
  if max_bytes < 0 then invalid_arg "Cache.create: max_bytes must be >= 0";
  {
    m = Mutex.create ();
    tbl = Hashtbl.create 16;
    capacity;
    max_bytes;
    weigh = size;
    bytes = 0;
    tick = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let stats t =
  Mutex.lock t.m;
  let s =
    {
      entries = Hashtbl.length t.tbl;
      bytes = t.bytes;
      hits = t.hits;
      misses = t.misses;
      evictions = t.evictions;
    }
  in
  Mutex.unlock t.m;
  s

(* Evict the least-recently-used entry.  O(entries) scan, once per
   entry a store displaces — small beside the analysis that miss
   runs. *)
let evict_lru t =
  let victim = ref None in
  Hashtbl.iter
    (fun k e ->
      match !victim with
      | Some (_, stamp) when stamp <= e.stamp -> ()
      | _ -> victim := Some (k, e.stamp))
    t.tbl;
  match !victim with
  | Some (k, _) ->
      t.bytes <- t.bytes - (Hashtbl.find t.tbl k).bytes;
      Hashtbl.remove t.tbl k;
      t.evictions <- t.evictions + 1;
      Obs.Counter.incr m_evictions
  | None -> ()

let find_or_load t key ~path ~load =
  let st = Unix.stat path in
  let mtime = st.Unix.st_mtime and size = st.Unix.st_size in
  Mutex.lock t.m;
  t.tick <- t.tick + 1;
  let tick = t.tick in
  let cached =
    match Hashtbl.find_opt t.tbl key with
    | Some e when Float.equal e.mtime mtime && e.size = size ->
        e.stamp <- tick;
        t.hits <- t.hits + 1;
        Some e.value
    | Some _ | None ->
        t.misses <- t.misses + 1;
        None
  in
  Mutex.unlock t.m;
  match cached with
  | Some v ->
      Obs.Counter.incr m_hits;
      (v, true)
  | None ->
      Obs.Counter.incr m_misses;
      let v = load () in
      let bytes = t.weigh v in
      if bytes <= t.max_bytes then begin
        Mutex.lock t.m;
        (* A stale entry under the same key is replaced, not evicted. *)
        (match Hashtbl.find_opt t.tbl key with
        | Some e ->
            t.bytes <- t.bytes - e.bytes;
            Hashtbl.remove t.tbl key
        | None -> ());
        while
          Hashtbl.length t.tbl >= t.capacity || t.bytes + bytes > t.max_bytes
        do
          evict_lru t
        done;
        Hashtbl.replace t.tbl key
          { mtime; size; bytes; value = v; stamp = tick };
        t.bytes <- t.bytes + bytes;
        Mutex.unlock t.m
      end;
      (v, false)
