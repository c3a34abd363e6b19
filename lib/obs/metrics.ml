(* Instruments share their registry's [on] flag, so every update starts
   with one atomic load and a branch — the entire cost of disabled
   instrumentation.  All mutation is via [Atomic] operations that
   commute (fetch-and-add, max-CAS), so totals are scheduling-
   independent and stable snapshots are deterministic across [--jobs]. *)

type counter = { c_on : bool Atomic.t; c_v : int Atomic.t }
type gauge = { g_on : bool Atomic.t; g_v : float Atomic.t }

type histogram = {
  h_on : bool Atomic.t;
  bounds : float array;  (* inclusive upper bounds, strictly increasing *)
  counts : int Atomic.t array;  (* length bounds + 1; last = overflow *)
  h_sum : float Atomic.t;
  h_count : int Atomic.t;
}

type instr = C of counter | G of gauge | H of histogram

type entry = { name : string; stable : bool; instr : instr }

type registry = {
  mutable entries : entry list;  (* registration order; sorted on snapshot *)
  rmutex : Mutex.t;
  on : bool Atomic.t;
}

let create () =
  { entries = []; rmutex = Mutex.create (); on = Atomic.make false }

let default = create ()

let set_enabled r v = Atomic.set r.on v
let enabled r = Atomic.get r.on

(* Boxed-float atomic add/max: CAS on the physical box. *)
let rec float_add a x =
  let old = Atomic.get a in
  if not (Atomic.compare_and_set a old (old +. x)) then float_add a x

let rec float_max a x =
  let old = Atomic.get a in
  if x > old && not (Atomic.compare_and_set a old x) then float_max a x

let kind_name = function C _ -> "counter" | G _ -> "gauge" | H _ -> "histogram"

(* Registration is idempotent by name; a name may not change kind,
   stability, or bucket layout. *)
let register r name stable mk =
  Mutex.lock r.rmutex;
  let res =
    match List.find_opt (fun e -> String.equal e.name name) r.entries with
    | Some e -> `Existing e
    | None ->
        let e = { name; stable; instr = mk () } in
        r.entries <- e :: r.entries;
        `Fresh e
  in
  Mutex.unlock r.rmutex;
  res

let mismatch name wanted (e : entry) =
  invalid_arg
    (Printf.sprintf "Metrics: %s is already registered as a %s, not a %s" name
       (kind_name e.instr) wanted)

module Counter = struct
  type t = counter

  let make ?(registry = default) ?(stable = true) name =
    match
      register registry name stable (fun () ->
          C { c_on = registry.on; c_v = Atomic.make 0 })
    with
    | `Fresh { instr = C c; _ } | `Existing { instr = C c; _ } -> c
    | `Fresh e | `Existing e -> mismatch name "counter" e

  let add c n =
    if n < 0 then
      invalid_arg (Printf.sprintf "Counter.add: negative amount %d" n);
    if Atomic.get c.c_on then ignore (Atomic.fetch_and_add c.c_v n)

  let incr c = if Atomic.get c.c_on then ignore (Atomic.fetch_and_add c.c_v 1)
  let value c = Atomic.get c.c_v
end

module Gauge = struct
  type t = gauge

  let make ?(registry = default) ?(stable = true) name =
    match
      register registry name stable (fun () ->
          G { g_on = registry.on; g_v = Atomic.make 0. })
    with
    | `Fresh { instr = G g; _ } | `Existing { instr = G g; _ } -> g
    | `Fresh e | `Existing e -> mismatch name "gauge" e

  let set g v = if Atomic.get g.g_on then Atomic.set g.g_v v
  let set_max g v = if Atomic.get g.g_on then float_max g.g_v v
end

module Histogram = struct
  type t = histogram

  (* A read-only bound table: exposed as [float array] for
     [?buckets], never written (make copies it into the histogram's
     own layout).  Worker-reachable but write-free, hence the L007
     allowlist. *)
  let default_buckets =
    [| 1.; 10.; 100.; 1e3; 1e4; 1e5; 1e6 |] [@@tdat.lint.allow "L007"]

  (* A strictly increasing 1-2-5 ladder from [lo] to at most [hi]. *)
  let ladder lo hi =
    let rec go acc v =
      if v > hi then List.rev acc
      else
        let acc = v :: acc in
        let acc = if 2. *. v <= hi then (2. *. v) :: acc else acc in
        let acc = if 5. *. v <= hi then (5. *. v) :: acc else acc in
        go acc (10. *. v)
    in
    Array.of_list (go [] lo)

  let time_us_buckets = ladder 10. 1e7
  let size_buckets = ladder 64. 16_777_216.

  let make ?(registry = default) ?(stable = true)
      ?(buckets = default_buckets) name =
    if Array.length buckets = 0 then
      invalid_arg "Histogram.make: empty bucket bounds";
    Array.iteri
      (fun i b ->
        if i > 0 && b <= buckets.(i - 1) then
          invalid_arg "Histogram.make: bucket bounds must be strictly increasing")
      buckets;
    match
      register registry name stable (fun () ->
          H
            {
              h_on = registry.on;
              bounds = Array.copy buckets;
              counts = Array.init (Array.length buckets + 1) (fun _ -> Atomic.make 0);
              h_sum = Atomic.make 0.;
              h_count = Atomic.make 0;
            })
    with
    | `Fresh { instr = H h; _ } -> h
    | `Existing { instr = H h; _ } ->
        if
          Array.length h.bounds <> Array.length buckets
          || not (Array.for_all2 (fun a b -> Float.equal a b) h.bounds buckets)
        then
          invalid_arg
            (Printf.sprintf
               "Metrics: histogram %s re-registered with different buckets"
               name);
        h
    | `Fresh e | `Existing e -> mismatch name "histogram" e

  let bucket_index bounds v =
    (* First bound >= v; linear scan — bucket ladders are short. *)
    let n = Array.length bounds in
    let rec go i = if i >= n || v <= bounds.(i) then i else go (i + 1) in
    go 0

  let observe h v =
    if Atomic.get h.h_on then begin
      ignore (Atomic.fetch_and_add h.counts.(bucket_index h.bounds v) 1);
      float_add h.h_sum v;
      ignore (Atomic.fetch_and_add h.h_count 1)
    end

  let sum h = Atomic.get h.h_sum

  let bucket_counts h =
    Array.init
      (Array.length h.counts)
      (fun i ->
        let bound =
          if i < Array.length h.bounds then h.bounds.(i) else infinity
        in
        (bound, Atomic.get h.counts.(i)))
end

let find r name =
  Mutex.lock r.rmutex;
  let e = List.find_opt (fun e -> String.equal e.name name) r.entries in
  Mutex.unlock r.rmutex;
  e

let find_counter r name =
  match find r name with Some { instr = C c; _ } -> Some c | _ -> None

let find_histogram r name =
  match find r name with Some { instr = H h; _ } -> Some h | _ -> None

(* --- iteration --------------------------------------------------------- *)

(* A read-only view of one instrument, for exposition encoders
   (Prometheus, dashboards) that live outside this module.  Counts and
   sums are read instrument-by-instrument without quiescing writers, so
   a view of a live registry is approximate; stable sections compared
   across [--jobs] are read quiesced by construction. *)
type view =
  | Counter_v of int
  | Gauge_v of float
  | Histogram_v of {
      v_count : int;
      v_sum : float;
      v_buckets : (float * int) array;
    }

let fold_entries ?(stable_only = false) r ~init ~f =
  Mutex.lock r.rmutex;
  let entries =
    List.sort (fun a b -> String.compare a.name b.name) r.entries
  in
  Mutex.unlock r.rmutex;
  List.fold_left
    (fun acc e ->
      if stable_only && not e.stable then acc
      else
        let v =
          match e.instr with
          | C c -> Counter_v (Atomic.get c.c_v)
          | G g -> Gauge_v (Atomic.get g.g_v)
          | H h ->
              Histogram_v
                {
                  v_count = Atomic.get h.h_count;
                  v_sum = Atomic.get h.h_sum;
                  v_buckets = Histogram.bucket_counts h;
                }
        in
        f acc ~name:e.name ~stable:e.stable v)
    init entries

let reset r =
  Mutex.lock r.rmutex;
  List.iter
    (fun e ->
      match e.instr with
      | C c -> Atomic.set c.c_v 0
      | G g -> Atomic.set g.g_v 0.
      | H h ->
          Array.iter (fun a -> Atomic.set a 0) h.counts;
          Atomic.set h.h_sum 0.;
          Atomic.set h.h_count 0)
    r.entries;
  Mutex.unlock r.rmutex

(* --- snapshot ---------------------------------------------------------- *)

module Json = Tdat_json.Json

(* Numbers go through the codec: gauge values, histogram sums and
   bucket bounds print in the canonical shortest round-trip form, so
   two distinct sums never render identically (masking an A007
   divergence) and two equal-valued snapshots are byte-identical. *)
let instr_json = function
  | C c ->
      Json.Obj
        [ ("type", Json.Str "counter"); ("value", Json.int (Atomic.get c.c_v)) ]
  | G g ->
      Json.Obj
        [ ("type", Json.Str "gauge"); ("value", Json.Num (Atomic.get g.g_v)) ]
  | H h ->
      let bucket i a =
        let le =
          if i < Array.length h.bounds then Json.Num h.bounds.(i)
          else Json.Str "inf"
        in
        Json.Obj [ ("le", le); ("count", Json.int (Atomic.get a)) ]
      in
      Json.Obj
        [
          ("type", Json.Str "histogram");
          ("count", Json.int (Atomic.get h.h_count));
          ("sum", Json.Num (Atomic.get h.h_sum));
          ("buckets", Json.Arr (Array.to_list (Array.mapi bucket h.counts)));
        ]

let section entries =
  Json.Obj (List.map (fun e -> (e.name, instr_json e.instr)) entries)

let snapshot_json ?(stable_only = false) r =
  Mutex.lock r.rmutex;
  let entries =
    List.sort (fun a b -> String.compare a.name b.name) r.entries
  in
  Mutex.unlock r.rmutex;
  let stable, volatile = List.partition (fun e -> e.stable) entries in
  Json.to_string
    (Json.Obj
       (("stable", section stable)
       :: (if stable_only then [] else [ ("volatile", section volatile) ])))
  ^ "\n"

module Private = struct
  let create = create
end
