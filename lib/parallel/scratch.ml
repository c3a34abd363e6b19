(* Per-domain scratch arenas (DESIGN.md, "Allocation discipline").

   A worker that decodes and analyzes thousands of records should not
   pay a fresh buffer per record — nor share one with another domain.
   [Scratch] keeps a small table of reusable buffers in [Domain.DLS],
   so every domain (pool workers and the caller alike) draws from
   private storage that no other domain can reach: cross-domain
   isolation holds by construction, which is exactly the property the
   L007 lint enforces statically and A007 checks at runtime.

   Checkout discipline: each call site owns a slot number (see the
   [slot_*] constants below).  [with_bytes]/[with_ints] mark the slot
   busy for the duration of the callback and fall back to a fresh
   transient buffer when the slot is already checked out — so a
   reentrant use (a fold callback that itself folds another capture)
   degrades to plain allocation instead of aliasing the buffer.

   Buffers only grow; the high-water mark is retained for the domain's
   lifetime.  That is the arena trade: a worker that once saw a 1 MiB
   record keeps 1 MiB parked, and in exchange the steady state
   allocates nothing. *)

(* Reentrant checkouts are correct but costly: the fallback buffer is
   allocated fresh per call.  The volatile counter makes that cost
   visible (`scratch.fallbacks` in a --metrics snapshot) instead of
   silent — a hot loop that keeps hitting it needs its own slot.
   Volatile because the count depends on call nesting and domain
   layout, not on the input alone. *)
module Obs = Tdat_obs.Metrics

let m_fallbacks = Obs.Counter.make ~stable:false "scratch.fallbacks"

type cell = { mutable buf : Bytes.t; mutable busy : bool }
type icell = { mutable arr : int array; mutable ibusy : bool }

type t = { mutable cells : cell array; mutable icells : icell array }

(* Well-known slot owners.  A new call site takes the next number; two
   sites may share a slot only if they can never be live at once. *)
let slot_mrt_body = 0
let slot_reassembly = 1
let slot_mrt_chunk = 2
let slot_series_data_ts = 0
let slot_series_all_ts = 1
let slot_series_small_ts = 2
let slot_mct_seen = 3
let slot_series_data_len = 4

let key =
  Domain.DLS.new_key (fun () -> { cells = [||]; icells = [||] })

let get () = Domain.DLS.get key

let round_up n =
  let c = ref 16 in
  while !c < n do
    c := !c * 2
  done;
  !c

let cell_at t slot =
  let n = Array.length t.cells in
  if slot >= n then begin
    let grown =
      Array.init (slot + 1) (fun i ->
          if i < n then t.cells.(i)
          else { buf = Bytes.create 0; busy = false })
    in
    t.cells <- grown
  end;
  t.cells.(slot)

let icell_at t slot =
  let n = Array.length t.icells in
  if slot >= n then begin
    let grown =
      Array.init (slot + 1) (fun i ->
          if i < n then t.icells.(i) else { arr = [||]; ibusy = false })
    in
    t.icells <- grown
  end;
  t.icells.(slot)

(* Grow [cell.buf] to at least [n] bytes (contents not preserved) and
   return it.  Callers that need the old contents blit explicitly. *)
let ensure cell n =
  if Bytes.length cell.buf < n then cell.buf <- Bytes.create (round_up n);
  cell.buf

(* Grow preserving contents — the streaming readers enlarge a frame
   buffer mid-record only before refilling it, so plain [ensure] is the
   common case; [ensure_keep] covers reassembly-style growth.  Growth
   is explicitly geometric (at least double the current capacity), so a
   caller that enlarges its request byte-by-byte — reassembly appending
   one segment at a time — pays O(log n) copies over the buffer's
   lifetime, never one copy per request. *)
let ensure_keep cell n =
  let old = cell.buf in
  if Bytes.length old < n then begin
    let bigger = Bytes.create (max (2 * Bytes.length old) (round_up n)) in
    Bytes.blit old 0 bigger 0 (Bytes.length old);
    cell.buf <- bigger
  end;
  cell.buf

let with_bytes ~slot n f =
  let cell = cell_at (get ()) slot in
  if cell.busy then begin
    Obs.Counter.incr m_fallbacks;
    f { buf = Bytes.create (round_up n); busy = true }
  end
  else begin
    cell.busy <- true;
    ignore (ensure cell n : Bytes.t);
    Fun.protect ~finally:(fun () -> cell.busy <- false) (fun () -> f cell)
  end

let with_ints ~slot n f =
  let cell = icell_at (get ()) slot in
  if cell.ibusy then begin
    Obs.Counter.incr m_fallbacks;
    f (Array.make (max 1 n) 0)
  end
  else begin
    cell.ibusy <- true;
    if Array.length cell.arr < n then cell.arr <- Array.make (round_up n) 0;
    Fun.protect ~finally:(fun () -> cell.ibusy <- false) (fun () -> f cell.arr)
  end

