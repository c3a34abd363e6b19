module Scratch = Tdat_parallel.Scratch

type t = {
  mutable data : Bytes.t;
  scratch : Scratch.cell option;
      (* When present, [data] is the cell's buffer and growth goes
         through the arena so the high-water mark is reused across
         connections on the same domain. *)
  mutable received : (int * int) list;
      (* Sorted disjoint [lo, hi) intervals of received stream offsets. *)
  mutable frontier : int; (* First offset not yet contiguous. *)
  mutable advances : int array;
  mutable advance_ts : Tdat_timerange.Time_us.t array;
      (* Frontier advances in arrival order: the [i]th advance moved the
         frontier to [advances.(i)] at [advance_ts.(i)].  Only the first
         [n_advances] slots are used; the frontiers strictly increase. *)
  mutable n_advances : int;
  mutable duplicate_bytes : int;
}

let create ?scratch () =
  {
    data =
      (match scratch with
      | Some cell -> Scratch.ensure cell 4096
      | None -> Bytes.create 4096);
    scratch;
    received = [];
    frontier = 0;
    advances = [||];
    advance_ts = [||];
    n_advances = 0;
    duplicate_bytes = 0;
  }

let ensure_capacity t needed =
  let cap = Bytes.length t.data in
  if needed > cap then
    match t.scratch with
    | Some cell -> t.data <- Scratch.ensure_keep cell needed
    | None ->
        let cap' = ref cap in
        while needed > !cap' do
          cap' := !cap' * 2
        done;
        let bigger = Bytes.create !cap' in
        Bytes.blit t.data 0 bigger 0 cap;
        t.data <- bigger

(* Insert [lo, hi) into the sorted disjoint interval list, returning the
   new list and the number of bytes that were already present. *)
let insert_interval intervals lo hi =
  let rec go acc overlap lo hi = function
    | [] -> (List.rev ((lo, hi) :: acc), overlap)
    | (a, b) :: rest when b < lo -> go ((a, b) :: acc) overlap lo hi rest
    | (a, b) :: rest when hi < a ->
        (List.rev_append acc ((lo, hi) :: (a, b) :: rest), overlap)
    | (a, b) :: rest ->
        (* Overlapping or adjacent: merge, accumulating the overlap. *)
        let ov = max 0 (min hi b - max lo a) in
        go acc (overlap + ov) (min lo a) (max hi b) rest
  in
  go [] 0 lo hi intervals

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

let feed ?(rebase = 0) t (seg : Tdat_pkt.Tcp_segment.t) =
  if seg.len > 0 then begin
    let lo = seg.seq - rebase in
    let hi = lo + seg.len in
    if lo < 0 then invalid_arg "Stream_reassembly.feed: negative offset";
    ensure_capacity t hi;
    let received, overlap = insert_interval t.received lo hi in
    (* Only blit the genuinely new part when the segment is entirely new
       or extends past what we had; overlapping rewrites with identical
       content are harmless, so blit unconditionally for simplicity —
       except where it would overwrite already-delivered bytes with a
       spurious differing retransmission; traces from this repo always
       retransmit identical bytes.  A payload shorter than [len] (not
       materialized, or snaplen-clipped by the sniffer) is zero-filled to
       the declared length so stream offsets stay exact. *)
    let copy = min (String.length seg.payload) seg.len in
    if copy > 0 then Bytes.blit_string seg.payload 0 t.data lo copy;
    if copy < seg.len then Bytes.fill t.data (lo + copy) (seg.len - copy) '\000';
    t.received <- received;
    t.duplicate_bytes <- t.duplicate_bytes + overlap;
    (* Advance the contiguous frontier. *)
    match t.received with
    | (0, hi0) :: _ when hi0 > t.frontier ->
        t.frontier <- hi0;
        record_advance t hi0 seg.ts
    | _ -> ()
  end

let of_segments segs =
  let t = create () in
  List.iter (feed t) segs;
  t

let contiguous_length t = t.frontier
let contiguous t = Bytes.sub_string t.data 0 t.frontier

(* Borrowed view of the contiguous part: valid only until the next
   [feed] (which may grow/replace [data]).  The copy-free input to the
   streaming message scans. *)
let contiguous_slice t = Tdat_pkt.Slice.of_bytes ~len:t.frontier t.data

let delivery_time t off =
  if off >= t.frontier then
    invalid_arg "Stream_reassembly.delivery_time: offset beyond frontier";
  if t.n_advances = 0 then
    invalid_arg "Stream_reassembly.delivery_time: no deliveries";
  (* The byte became deliverable at the first advance whose frontier is
     past it.  Invariant: advances.(hi) > off, and every index below lo
     is <= off. *)
  let lo = ref 0 and hi = ref (t.n_advances - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.advances.(mid) > off then hi := mid else lo := mid + 1
  done;
  t.advance_ts.(!lo)

let total_gaps t =
  match t.received with
  | [] -> 0
  | (_, _) :: rest -> List.length rest

let duplicate_bytes t = t.duplicate_bytes
