module Scratch = Tdat_parallel.Scratch

module Ends = Map.Make (Int)

type t = {
  mutable data : Bytes.t;
  scratch : Scratch.cell;
      (* [data] is the cell's buffer, and growth goes through the arena
         so the high-water mark is reused across connections on the
         same domain. *)
  mutable frontier : int;
      (* First offset not yet contiguous: [0, frontier) is received. *)
  mutable islands : int Ends.t;
      (* The received intervals past the frontier, [lo, hi) keyed by
         [lo]: disjoint, not adjacent to each other, and all starting
         beyond [frontier], so a hole precedes each. *)
  mutable advances : int array;
  mutable advance_ts : Tdat_timerange.Time_us.t array;
      (* Frontier advances in arrival order: the [i]th advance moved the
         frontier to [advances.(i)] at [advance_ts.(i)].  Only the first
         [n_advances] slots are used; the frontiers strictly increase. *)
  mutable n_advances : int;
  mutable cursor : int;
      (* The advance that answered the last [delivery_time] query: both
         message scans ask in increasing offset order, so the next
         answer is this one or a few past it. *)
  mutable duplicate_bytes : int;
}

let create ~scratch () =
  {
    data = Scratch.ensure scratch 4096;
    scratch;
    frontier = 0;
    islands = Ends.empty;
    advances = [||];
    advance_ts = [||];
    n_advances = 0;
    cursor = 0;
    duplicate_bytes = 0;
  }

let ensure_capacity t needed =
  if needed > Bytes.length t.data then
    t.data <- Scratch.ensure_keep t.scratch needed

(* Merge [lo, hi) into the islands that overlap or touch it, starting
   with the last one that begins at or before [lo]; returns the merged
   island's end and adds the bytes already present to [overlap].  Each
   island is merged away at most once, so an insert costs O(log islands)
   amortized. *)
let rec absorb t lo hi overlap =
  match Ends.find_first_opt (fun a -> a >= lo) t.islands with
  | Some (a, b) when a <= hi ->
      t.islands <- Ends.remove a t.islands;
      overlap := !overlap + max 0 (min hi b - a);
      absorb t lo (max hi b) overlap
  | Some _ | None -> hi

(* Add [lo, hi) to the received set and return the number of its bytes
   that were already present.  In-order arrival, a segment that starts
   at or before the frontier with no island beyond, is O(1) and
   allocates nothing. *)
let insert t lo hi =
  let frontier = t.frontier in
  if lo <= frontier then begin
    let overlap = ref (max 0 (min hi frontier - lo)) in
    let hi = max hi frontier in
    let hi = if Ends.is_empty t.islands then hi else absorb t lo hi overlap in
    t.frontier <- hi;
    !overlap
  end
  else begin
    let overlap = ref 0 in
    let lo, hi =
      match Ends.find_last_opt (fun a -> a <= lo) t.islands with
      | Some (a, b) when b >= lo ->
          t.islands <- Ends.remove a t.islands;
          overlap := min hi b - lo;
          (a, max hi b)
      | Some _ | None -> (lo, hi)
    in
    let hi = absorb t lo hi overlap in
    t.islands <- Ends.add lo hi t.islands;
    !overlap
  end

let record_advance t hi ts =
  let n = t.n_advances in
  if n = Array.length t.advances then begin
    let grow a fill =
      let b = Array.make (max 64 (2 * n)) fill in
      Array.blit a 0 b 0 n;
      b
    in
    t.advances <- grow t.advances 0;
    t.advance_ts <- grow t.advance_ts Tdat_timerange.Time_us.zero
  end;
  t.advances.(n) <- hi;
  t.advance_ts.(n) <- ts;
  t.n_advances <- n + 1

let feed t ~rebase ~ts ~seq ~len payload =
  if len > 0 then begin
    let lo = seq - rebase in
    let hi = lo + len in
    if lo < 0 then invalid_arg "Stream_reassembly.feed: negative offset";
    ensure_capacity t hi;
    let frontier = t.frontier in
    let overlap = insert t lo hi in
    (* Only blit the genuinely new part when the segment is entirely new
       or extends past what we had; overlapping rewrites with identical
       content are harmless, so blit unconditionally for simplicity —
       except where it would overwrite already-delivered bytes with a
       spurious differing retransmission; traces from this repo always
       retransmit identical bytes.  A payload shorter than [len] (not
       materialized, or snaplen-clipped by the sniffer) is zero-filled to
       the declared length so stream offsets stay exact. *)
    let copy = min (Tdat_pkt.Slice.length payload) len in
    if copy > 0 then
      Tdat_pkt.Slice.blit payload ~off:0 ~len:copy t.data ~dst_off:lo;
    if copy < len then Bytes.fill t.data (lo + copy) (len - copy) '\000';
    t.duplicate_bytes <- t.duplicate_bytes + overlap;
    if t.frontier > frontier then record_advance t t.frontier ts
  end

let contiguous_length t = t.frontier
let contiguous t = Bytes.sub_string t.data 0 t.frontier

(* Borrowed view of the contiguous part: valid only until the next
   [feed] (which may grow/replace [data]).  The copy-free input to the
   streaming message scans. *)
let contiguous_slice t = Tdat_pkt.Slice.of_bytes ~len:t.frontier t.data

(* The first advance in [lo, n_advances) whose frontier is past [off],
   given that one exists.  Invariant: advances.(hi) > off, and every
   index below lo is <= off. *)
let search t ~lo off =
  let lo = ref lo and hi = ref (t.n_advances - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.advances.(mid) > off then hi := mid else lo := mid + 1
  done;
  !lo

(* How far the cursor walks before a forward query falls back to the
   binary search over what is left. *)
let cursor_steps = 8

let delivery_time t off =
  if off >= t.frontier then
    invalid_arg "Stream_reassembly.delivery_time: offset beyond frontier";
  if t.n_advances = 0 then
    invalid_arg "Stream_reassembly.delivery_time: no deliveries";
  (* The byte became deliverable at the first advance whose frontier is
     past it.  A query at or past the last answer's byte range walks
     forward from the cursor; an earlier one binary-searches from 0. *)
  let c = t.cursor in
  let i =
    if c > 0 && t.advances.(c - 1) > off then search t ~lo:0 off
    else begin
      let i = ref c and steps = ref 0 in
      while t.advances.(!i) <= off && !steps < cursor_steps do
        incr i;
        incr steps
      done;
      if t.advances.(!i) > off then !i else search t ~lo:!i off
    end
  in
  t.cursor <- i;
  t.advance_ts.(i)

let total_gaps t =
  let islands = Ends.cardinal t.islands in
  if t.frontier > 0 then islands else max 0 (islands - 1)

let duplicate_bytes t = t.duplicate_bytes

module Private = struct
  let contiguous_length = contiguous_length
  let total_gaps = total_gaps
  let duplicate_bytes = duplicate_bytes
end
