(* Rolling time-windowed histogram: a ring of fixed-bucket histograms
   rotated on a coarse clock.  Each slot covers [slot_s] seconds of
   wall time; an observation lands in the slot for the current epoch
   ([now / slot_s]), lazily clearing slots whose epoch has fallen out
   of the window.  Reads merge the slots still inside the window, so
   percentiles answer "over the last [slots * slot_s] seconds", not
   "since the process started" — the lifetime aggregates the
   Lübben/Fidler benchmark critique warns against.

   A single mutex guards the ring.  Observations arrive at request
   rate (not packet rate), so contention is irrelevant; what matters
   is that rotation and merge see a consistent ring. *)

type slot = {
  mutable epoch : int;  (* -1 = never used *)
  counts : int array;  (* length bounds + 1; last = overflow *)
  mutable s_count : int;
  mutable s_sum : float;
}

type t = {
  bounds : float array;
  slots : slot array;
  slot_s : float;
  now : unit -> float;
  m : Mutex.t;
}

let create ?now ?buckets ~slots ~slot_s () =
  if slots <= 0 then invalid_arg "Window.create: slots must be positive";
  if slot_s <= 0. then invalid_arg "Window.create: slot_s must be positive";
  let bounds =
    match buckets with
    | Some b ->
        if Array.length b = 0 then
          invalid_arg "Window.create: empty bucket bounds";
        Array.iteri
          (fun i x ->
            if i > 0 && x <= b.(i - 1) then
              invalid_arg "Window.create: bucket bounds must be strictly increasing")
          b;
        Array.copy b
    | None -> Metrics.Histogram.time_us_buckets
  in
  let now = match now with Some f -> f | None -> Clock.now_s in
  {
    bounds;
    slots =
      Array.init slots (fun _ ->
          {
            epoch = -1;
            counts = Array.make (Array.length bounds + 1) 0;
            s_count = 0;
            s_sum = 0.;
          });
    slot_s;
    now;
    m = Mutex.create ();
  }

let window_s t = float_of_int (Array.length t.slots) *. t.slot_s

let bucket_index bounds v =
  (* First bound >= v; linear scan — bucket ladders are short. *)
  let n = Array.length bounds in
  let rec go i = if i >= n || v <= bounds.(i) then i else go (i + 1) in
  go 0

let epoch_of t = int_of_float (Float.floor (t.now () /. t.slot_s))

let slot_for t epoch =
  let s = t.slots.(epoch mod Array.length t.slots) in
  if s.epoch <> epoch then begin
    Array.fill s.counts 0 (Array.length s.counts) 0;
    s.s_count <- 0;
    s.s_sum <- 0.;
    s.epoch <- epoch
  end;
  s

let observe t v =
  Mutex.lock t.m;
  let s = slot_for t (epoch_of t) in
  let i = bucket_index t.bounds v in
  s.counts.(i) <- s.counts.(i) + 1;
  s.s_count <- s.s_count + 1;
  s.s_sum <- s.s_sum +. v;
  Mutex.unlock t.m

let clear t =
  Mutex.lock t.m;
  Array.iter
    (fun s ->
      s.epoch <- -1;
      Array.fill s.counts 0 (Array.length s.counts) 0;
      s.s_count <- 0;
      s.s_sum <- 0.)
    t.slots;
  Mutex.unlock t.m

(* Merge the slots whose epoch is still inside the window ending at the
   current epoch.  Slots with stale epochs are read-skipped rather than
   cleared, so reads never mutate. *)
let merged t =
  Mutex.lock t.m;
  let cur = epoch_of t in
  let n = Array.length t.slots in
  let counts = Array.make (Array.length t.bounds + 1) 0 in
  let count = ref 0 and sum = ref 0. in
  Array.iter
    (fun s ->
      if s.epoch >= 0 && s.epoch > cur - n && s.epoch <= cur then begin
        Array.iteri (fun i c -> counts.(i) <- counts.(i) + c) s.counts;
        count := !count + s.s_count;
        sum := !sum +. s.s_sum
      end)
    t.slots;
  Mutex.unlock t.m;
  (counts, !count, !sum)

let count t =
  let _, c, _ = merged t in
  c

let sum t =
  let _, _, s = merged t in
  s

let rate t = float_of_int (count t) /. window_s t

(* Percentile estimate from the merged bucket counts: the upper bound
   of the bucket containing the p-quantile observation.  The overflow
   bucket reports the last finite bound (a deliberate under-estimate:
   bounded, plottable, and still "at least this slow").  Empty window
   -> 0. *)
let percentile t p =
  if p < 0. || p > 1. then invalid_arg "Window.percentile: p outside [0,1]";
  let counts, total, _ = merged t in
  if total = 0 then 0.
  else begin
    let target =
      let r = int_of_float (Float.ceil (p *. float_of_int total)) in
      if r < 1 then 1 else if r > total then total else r
    in
    let nb = Array.length t.bounds in
    let rec go i seen =
      if i >= Array.length counts then t.bounds.(nb - 1)
      else
        let seen = seen + counts.(i) in
        if seen >= target then
          if i < nb then t.bounds.(i) else t.bounds.(nb - 1)
        else go (i + 1) seen
    in
    go 0 0
  end

module Private = struct
  let sum = sum
  let clear = clear
end
