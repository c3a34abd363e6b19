type config = {
  dup_fraction : float;
  min_seen : int;
  quiet_gap : Tdat_timerange.Time_us.t;
}

let default_config =
  { dup_fraction = 0.5; min_seen = 32; quiet_gap = 200_000_000 }

type result = {
  end_ts : Tdat_timerange.Time_us.t;
  prefixes : int;
  updates : int;
}

module Slice = Tdat_pkt.Slice
module Scratch = Tdat_parallel.Scratch

(* --- packed prefixes ------------------------------------------------------ *)

(* A prefix packed into one immediate: masked 32-bit address in bits
   6..37, prefix length in the low 6.  Injective on what [Prefix.compare]
   distinguishes (masked address, length), so set membership and
   cardinality agree with a [(Prefix.t, unit) Hashtbl.t]. *)
let key_bits = 38
let key_mask = (1 lsl key_bits) - 1

let[@inline] pack ~addr plen =
  let m = if plen = 0 then 0 else 0xFFFFFFFF lsl (32 - plen) land 0xFFFFFFFF in
  ((addr land m) lsl 6) lor plen

let pack_prefix_t p =
  pack ~addr:(Int32.to_int (Prefix.addr p) land 0xFFFFFFFF) (Prefix.len p)

(* --- the seen set ---------------------------------------------------------- *)

(* Open-addressed set of packed prefixes with linear probing over the
   first [size] slots of [slots] ([size] a power of two, 0 = empty).  A
   slot holds [tag lsl key_bits lor key], where [tag] >= 1 numbers the
   announcement batch that inserted [key].  One probe per prefix then
   tells the three cases MCT distinguishes apart: a key an earlier batch
   inserted (a duplicate), a key this batch already inserted (a repeat
   inside one UPDATE, which is not a duplicate), and a new key. *)
type seen = {
  mutable slots : int array;
  mutable size : int;
  mutable shift : int;  (* [Sys.int_size - log2 size]: see [home] *)
  mutable count : int;  (* distinct keys *)
  mutable tag : int;  (* the open batch's tag *)
  max_tag : int;
}

(* The largest tag the bits above a key can hold. *)
let max_tag = (1 lsl (Sys.int_size - key_bits)) - 1

(* Multiplicative hash keeping the TOP log2(size) bits of the product:
   the low bits of [key * c] are periodic in [key] (consecutive /24s pack
   1 lsl 14 apart and would share one low-bits slot), while the top bits
   mix every input bit, at every table size. *)
let[@inline] home s key = (key * 0x2545F4914F6CDD1D) lsr s.shift

let grow s =
  let old = s.slots and old_size = s.size in
  let size = 2 * old_size in
  let slots = Array.make size 0 in
  s.slots <- slots;
  s.size <- size;
  s.shift <- s.shift - 1;
  for j = 0 to old_size - 1 do
    let v = old.(j) in
    if v <> 0 then begin
      let i = ref (home s (v land key_mask)) in
      while slots.(!i) <> 0 do
        i := (!i + 1) land (size - 1)
      done;
      slots.(!i) <- v
    end
  done

(* Insert [key] under the open batch's tag: 1 when an earlier batch
   inserted it (a duplicate), 0 when it is new or this batch already
   inserted it.  A key keeps the tag of the batch that first inserted
   it, so a duplicate repeated inside one batch counts every time. *)
let[@inline] add s key =
  let slots = s.slots and mask = s.size - 1 in
  let i = ref (home s key) in
  let v = ref slots.(!i) in
  while !v <> 0 && !v land key_mask <> key do
    i := (!i + 1) land mask;
    v := slots.(!i)
  done;
  if !v = 0 then begin
    slots.(!i) <- (s.tag lsl key_bits) lor key;
    s.count <- s.count + 1;
    if 8 * s.count > 7 * s.size then grow s;
    0
  end
  else if !v lsr key_bits = s.tag then 0
  else 1

(* Close the open batch.  When the tags run out every key present
   belongs to an earlier batch, so they are all re-tagged 1 and the next
   batch takes 2. *)
let next_batch s =
  if s.tag < s.max_tag then s.tag <- s.tag + 1
  else begin
    let slots = s.slots in
    for i = 0 to s.size - 1 do
      let v = slots.(i) in
      if v <> 0 then slots.(i) <- (1 lsl key_bits) lor (v land key_mask)
    done;
    s.tag <- 2
  end

let table_size n =
  let size = ref 256 and bits = ref 8 in
  while !size < n do
    size := 2 * !size;
    incr bits
  done;
  (!size, !bits)

(* Run [f] over an empty set of at least [n] slots, drawn from this
   domain's scratch arena: the array is reused across connections, and
   each scan clears only the prefix it uses, so nothing one scan inserted
   is visible to the next. *)
let with_seen ~max_tag n f =
  let size, bits = table_size n in
  Scratch.with_ints ~slot:Scratch.slot_mct_seen size (fun slots ->
      Array.fill slots 0 size 0;
      f
        {
          slots;
          size;
          shift = Sys.int_size - bits;
          count = 0;
          tag = 1;
          max_tag;
        })

(* --- the MCT rule ---------------------------------------------------------- *)

(* One scan's state.  Both scans below feed it the same way, one
   announcement batch at a time: [admit] applies the start filter and the
   quiet gap to the batch's timestamp; on [`Open] the caller passes each
   of the batch's packed prefixes through [add seen], summing the
   duplicates, and asks [churn] with the set's size from before the
   batch.  On churn the scan ends with that size (the batch's inserts are
   never read again); otherwise [commit] closes the batch.  [outcome] is
   the result at whichever point the scan ends. *)
type scan = {
  config : config;
  start : Tdat_timerange.Time_us.t;
  seen : seen;
  mutable last : Tdat_timerange.Time_us.t;  (* [min_int]: no batch yet *)
  mutable updates : int;
}

let scan_create config ~start seen =
  { config; start; seen; last = min_int; updates = 0 }

let[@inline] admit st ts =
  if ts < st.start then `Skip
  else if st.last <> min_int && ts - st.last > st.config.quiet_gap then `Stop
  else `Open

let[@inline] churn st ~before ~total ~dups =
  total > 0
  && before >= st.config.min_seen
  && float_of_int dups >= st.config.dup_fraction *. float_of_int total

let commit st ts =
  st.last <- ts;
  st.updates <- st.updates + 1;
  next_batch st.seen

let outcome st ~prefixes =
  if st.last = min_int then None
  else Some { end_ts = st.last; prefixes; updates = st.updates }

(* --- list scan (archive input) ------------------------------------------- *)

let rec add_all seen dups = function
  | [] -> dups
  | p :: rest -> add_all seen (dups + add seen (pack_prefix_t p)) rest

let list_scan ~max_tag ?(config = default_config) ~start updates =
  (* The announcement count bounds the distinct count the set must hold. *)
  let announced =
    List.fold_left (fun n (_, ps) -> n + List.length ps) 0 updates
  in
  with_seen ~max_tag announced @@ fun seen ->
  let st = scan_create config ~start seen in
  let rec go = function
    | [] -> outcome st ~prefixes:seen.count
    | (_, []) :: rest -> go rest
    | (ts, prefixes) :: rest -> (
        match admit st ts with
        | `Skip -> go rest
        | `Stop -> outcome st ~prefixes:seen.count
        | `Open ->
            let before = seen.count in
            let dups = add_all seen 0 prefixes in
            if churn st ~before ~total:(List.length prefixes) ~dups then
              outcome st ~prefixes:before
            else begin
              commit st ts;
              go rest
            end)
  in
  go updates

(* --- streaming scan over a reassembled byte stream ----------------------- *)

(* [reasm_scan] computes the same answer as extracting the stream's
   messages and running the list scan on their announcements, in one pass
   over the contiguous stream that builds nothing: no [timed_msg] list, no
   decoded [Msg.t], no [Prefix.t] values, no per-update lists.  Each
   message passes the shared validator ([Msg.header_length],
   [Msg.check_body], then the NLRI walk below), which checks exactly what
   [Msg.decode_slice] checks (any violation ends the scan, like
   [Msg_reader.extract] stopping at the first decode error), and each
   announcement batch feeds the shared rule as packed ints.  The
   decode-equivalence tests lock the equivalence down.

   One bounds proof per message: once the header shows
   [off + total <= len], every read below goes straight to the borrowed
   buffer, under section limits that never exceed the message's end. *)

let[@inline] byte buf p = Char.code (Bytes.unsafe_get buf p)

(* The packed key of the NLRI entry whose length byte [plen] sits at
   [p], once the caller has checked [plen <= 32] and that the entry ends
   inside the message.  One big-endian 32-bit load reads the address
   and [pack]'s mask clears whatever bytes past the entry it took in;
   only an entry in the buffer's last 4 bytes is read byte by byte. *)
let[@inline] pack_at buf p plen =
  if p + 5 <= Bytes.length buf then
    pack ~addr:(Int32.to_int (Bytes.get_int32_be buf (p + 1)) land 0xFFFFFFFF) plen
  else begin
    let u = ref 0 in
    for i = 0 to ((plen + 7) / 8) - 1 do
      u := !u lor (byte buf (p + 1 + i) lsl (24 - (8 * i)))
    done;
    pack ~addr:!u plen
  end

let reasm_scan ~max_tag ?(config = default_config) ~start reasm =
  let stream = Stream_reassembly.contiguous_slice reasm in
  let buf = stream.Slice.buf and base = stream.Slice.off in
  let len = stream.Slice.len in
  (* About one slot per 10 stream bytes: a full-table stream carries
     ~12 bytes per distinct prefix, so after rounding up to a power of
     two the transfer fills between 0.42 and 0.83 of the table's
     slots, under the 7/8 load at which it grows; a denser stream grows
     the table. *)
  with_seen ~max_tag (len / 10) @@ fun seen ->
  let st = scan_create config ~start seen in
  let rec scan off =
    if off + Msg.header_size > len then outcome st ~prefixes:seen.count
    else
      let p = base + off in
      let total = Msg.header_length buf p in
      if total < 0 || off + total > len then outcome st ~prefixes:seen.count
      else
        let limit = p + total in
        let ty = byte buf (p + 18) in
        match Msg.check_body buf ~ty ~boff:(p + Msg.header_size) ~limit with
        | nlri when nlri = Msg.malformed -> outcome st ~prefixes:seen.count
        | nlri when nlri < 0 || nlri = limit ->
            (* Not an UPDATE, or one with an empty NLRI: not an
               announcement batch. *)
            scan (off + total)
        | nlri -> (
            let ts = Stream_reassembly.delivery_time reasm (off + total - 1) in
            match admit st ts with
            | `Stop -> outcome st ~prefixes:seen.count
            | `Skip ->
                if Msg.check_prefixes buf ~pos:nlri ~limit < 0 then
                  outcome st ~prefixes:seen.count
                else scan (off + total)
            | `Open ->
                (* Validate, pack and insert in one walk.  A bad entry
                   ends the scan before this message, so the count from
                   before it stands. *)
                let before = seen.count in
                let n = ref 0 and dups = ref 0 and o = ref nlri in
                while !o < limit do
                  let plen = byte buf !o in
                  let next = !o + 1 + ((plen + 7) / 8) in
                  if plen > 32 || next > limit then o := max_int
                  else begin
                    incr n;
                    dups := !dups + add seen (pack_at buf !o plen);
                    o := next
                  end
                done;
                if !o = max_int || churn st ~before ~total:!n ~dups:!dups then
                  outcome st ~prefixes:before
                else begin
                  commit st ts;
                  scan (off + total)
                end)
  in
  scan 0

let transfer_end ?config ~start updates =
  list_scan ~max_tag ?config ~start updates

let transfer_end_of_reasm ?config ~start reasm =
  reasm_scan ~max_tag ?config ~start reasm

module Private = struct
  let transfer_end = list_scan
  let transfer_end_of_reasm = reasm_scan
  let pack_at = pack_at
end
