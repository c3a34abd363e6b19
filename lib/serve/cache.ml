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
   results, and the steady state is hits. *)

type 'v entry = {
  mtime : float;
  size : int;
  value : 'v;
  mutable stamp : int;  (* LRU clock; larger = more recently used *)
}

type ('k, 'v) t = {
  m : Mutex.t;
  tbl : ('k, 'v entry) Hashtbl.t;
  capacity : int;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type stats = { entries : int; hits : int; misses : int; evictions : int }

module Obs = Tdat_obs.Metrics

let m_hits = Obs.Counter.make ~stable:false "serve.cache.hits"
let m_misses = Obs.Counter.make ~stable:false "serve.cache.misses"
let m_evictions = Obs.Counter.make ~stable:false "serve.cache.evictions"

let create ~capacity =
  if capacity < 1 then invalid_arg "Cache.create: capacity must be >= 1";
  {
    m = Mutex.create ();
    tbl = Hashtbl.create 16;
    capacity;
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
      hits = t.hits;
      misses = t.misses;
      evictions = t.evictions;
    }
  in
  Mutex.unlock t.m;
  s

(* Evict the least-recently-used entry.  O(entries) scan, once per
   miss that finds the table full — small beside the analysis that
   miss runs. *)
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
      Mutex.lock t.m;
      if Hashtbl.length t.tbl >= t.capacity && not (Hashtbl.mem t.tbl key)
      then evict_lru t;
      Hashtbl.replace t.tbl key { mtime; size; value = v; stamp = tick };
      Mutex.unlock t.m;
      (v, false)
