(* Slow-request exemplar buffer: the K worst requests observed so far,
   each carrying its trace id, per-stage timings and the raw request
   JSON line — so a slow request in a long-running daemon is
   explainable (and replayable) after the fact.

   The list stays sorted worst-first and is capped at [capacity], so
   [note] is O(K) under one mutex — negligible at request rate. *)

type entry = {
  endpoint : string;
  trace : string;
  duration_us : float;
  at_s : float;
  stages : (string * float) list;  (* stage name -> microseconds *)
  request : string;  (* raw request JSON line, replayable *)
}

type t = { capacity : int; m : Mutex.t; mutable entries : entry list }

let create ~capacity =
  if capacity <= 0 then invalid_arg "Exemplar.create: capacity must be positive";
  { capacity; m = Mutex.create (); entries = [] }

(* Worst-first, ties broken by recency (newer first) so repeated
   equal-duration requests rotate through the buffer. *)
let insert capacity entries e =
  let rec go n = function
    | [] -> if n < capacity then [ e ] else []
    | x :: rest ->
        if n >= capacity then []
        else if e.duration_us >= x.duration_us then
          e :: take (capacity - n - 1) (x :: rest)
        else x :: go (n + 1) rest
  and take k = function
    | [] -> []
    | _ when k <= 0 -> []
    | x :: rest -> x :: take (k - 1) rest
  in
  go 0 entries

let note t e =
  Mutex.lock t.m;
  t.entries <- insert t.capacity t.entries e;
  Mutex.unlock t.m

let worst t =
  Mutex.lock t.m;
  let es = t.entries in
  Mutex.unlock t.m;
  es

let count t = List.length (worst t)

let clear t =
  Mutex.lock t.m;
  t.entries <- [];
  Mutex.unlock t.m

module Private = struct
  let clear = clear
end
