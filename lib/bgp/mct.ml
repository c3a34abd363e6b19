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

(* --- packed prefix set --------------------------------------------------- *)

(* A prefix packed into one immediate: masked 32-bit address in the high
   bits, prefix length in the low 6.  Injective on what [Prefix.compare]
   distinguishes (masked address, length), so set membership and
   cardinality agree with a [(Prefix.t, unit) Hashtbl.t]. *)
let[@inline] pack ~addr plen =
  let m = if plen = 0 then 0 else 0xFFFFFFFF lsl (32 - plen) land 0xFFFFFFFF in
  ((addr land m) lsl 6) lor plen

(* An NLRI entry read in place: length byte at [o], address bytes after. *)
let[@inline] pack_prefix s o plen =
  let nbytes = (plen + 7) / 8 in
  let u = ref 0 in
  for i = 0 to nbytes - 1 do
    u := !u lor (Slice.u8 s (o + 1 + i) lsl (24 - (8 * i)))
  done;
  pack ~addr:!u plen

let pack_prefix_t p =
  pack ~addr:(Int32.to_int (Prefix.addr p) land 0xFFFFFFFF) (Prefix.len p)

(* Open-addressed int set, linear probing, -1 = empty.  Lives on the
   major heap (the table exceeds [Max_young_wosize]); the per-insert
   path allocates nothing. *)
type pset = { mutable slots : int array; mutable count : int }

let pset_create () = { slots = Array.make 2048 (-1); count = 0 }

let[@inline] pset_slot slots x =
  let mask = Array.length slots - 1 in
  (* Multiplicative hash keeping the HIGH product bits: the low bits of
     [x * c] are periodic in [x] (packed prefixes step by 1 lsl 14 for
     consecutive /24s, collapsing a low-bits hash to one slot), while
     bits 40..62 mix every input bit.  Holds as long as the table stays
     under [2 lsl 23] slots — a full IPv4 table is ~2^20. *)
  let i = ref ((x * 0x2545F4914F6CDD1D) lsr 40 land mask) in
  while slots.(!i) <> -1 && slots.(!i) <> x do
    i := (!i + 1) land mask
  done;
  !i

let[@inline] pset_mem t x = t.slots.(pset_slot t.slots x) = x

let pset_grow t =
  let old = t.slots in
  let slots = Array.make (2 * Array.length old) (-1) in
  Array.iter (fun x -> if x <> -1 then slots.(pset_slot slots x) <- x) old;
  t.slots <- slots

let pset_add t x =
  let i = pset_slot t.slots x in
  if t.slots.(i) <> x then begin
    t.slots.(i) <- x;
    t.count <- t.count + 1;
    if 4 * t.count > 3 * Array.length t.slots then pset_grow t
  end

(* --- the MCT rule ---------------------------------------------------------- *)

(* One scan's state.  Both scans below feed it the same way, one
   announcement batch at a time: [admit] applies the start filter and the
   quiet gap to the batch's timestamp; on [`Open] the caller counts the
   batch's packed prefixes and the ones already in [seen], asks [churn],
   and unless it says stop, adds the prefixes to [seen] and calls
   [commit].  [outcome] is the result at whichever point the scan ends. *)
type scan = {
  config : config;
  start : Tdat_timerange.Time_us.t;
  seen : pset;
  mutable last : Tdat_timerange.Time_us.t;  (* [min_int]: no batch yet *)
  mutable updates : int;
}

let scan_create config ~start =
  { config; start; seen = pset_create (); last = min_int; updates = 0 }

let[@inline] admit st ts =
  if ts < st.start then `Skip
  else if st.last <> min_int && ts - st.last > st.config.quiet_gap then `Stop
  else `Open

let[@inline] churn st ~total ~dups =
  total > 0
  && st.seen.count >= st.config.min_seen
  && float_of_int dups >= st.config.dup_fraction *. float_of_int total

let[@inline] commit st ts =
  st.last <- ts;
  st.updates <- st.updates + 1

let outcome st =
  if st.last = min_int then None
  else Some { end_ts = st.last; prefixes = st.seen.count; updates = st.updates }

(* --- list scan (archive input) ------------------------------------------- *)

let transfer_end ?(config = default_config) ~start updates =
  let st = scan_create config ~start in
  let rec go = function
    | [] -> outcome st
    | (_, []) :: rest -> go rest
    | (ts, prefixes) :: rest -> (
        match admit st ts with
        | `Skip -> go rest
        | `Stop -> outcome st
        | `Open ->
            let total = ref 0 and dups = ref 0 in
            List.iter
              (fun p ->
                incr total;
                if pset_mem st.seen (pack_prefix_t p) then incr dups)
              prefixes;
            if churn st ~total:!total ~dups:!dups then outcome st
            else begin
              List.iter (fun p -> pset_add st.seen (pack_prefix_t p)) prefixes;
              commit st ts;
              go rest
            end)
  in
  go updates

(* --- streaming scan over a reassembled byte stream ----------------------- *)

(* [transfer_end_of_reasm] computes the same answer as extracting the
   stream's messages and running [transfer_end] on their announcements,
   without materializing any of the intermediate structures: no
   [timed_msg] list, no decoded [Msg.t], no [Prefix.t] values, no
   per-update prefix lists.  It walks the contiguous stream once,
   validating each message exactly as [Msg.decode_slice] would (any
   violation ends the scan, like [Msg_reader.extract] stopping at the
   first decode error) and feeding each announcement batch to the shared
   rule as packed ints.  The equivalence is locked down by the
   decode-equivalence test suite. *)

(* Local validation failure: the stream stops being (or never was) BGP
   at this message, exactly where the decoder raises
   [Bgp_error.Decode_error]. *)
exception Bad

(* The checkers below mirror the corresponding decoders' validation
   byte for byte (Prefix.decode_slice, As_path.decode_slice,
   Attr.decode_all_slice, Msg.decode_slice) while building nothing. *)

let check_prefixes s ~off ~limit =
  let o = ref off in
  while !o < limit do
    let plen = Slice.u8 s !o in
    if plen > 32 then raise Bad;
    let nbytes = (plen + 7) / 8 in
    if !o + 1 + nbytes > limit then raise Bad;
    o := !o + 1 + nbytes
  done

let check_as_path s ~off ~limit =
  let o = ref off in
  while !o < limit do
    if !o + 2 > limit then raise Bad;
    let ty = Slice.u8 s !o in
    let n = Slice.u8 s (!o + 1) in
    if !o + 2 + (2 * n) > limit then raise Bad;
    if ty <> 1 && ty <> 2 then raise Bad;
    o := !o + 2 + (2 * n)
  done

let check_attrs s ~off ~limit =
  let o = ref off in
  while !o < limit do
    if !o + 3 > limit then raise Bad;
    let flags = Slice.u8 s !o in
    let code = Slice.u8 s (!o + 1) in
    let vlen, voff =
      if flags land 0x10 <> 0 then begin
        if !o + 4 > limit then raise Bad;
        (Slice.u16be s (!o + 2), !o + 4)
      end
      else (Slice.u8 s (!o + 2), !o + 3)
    in
    if voff + vlen > limit then raise Bad;
    if code = 2 then check_as_path s ~off:voff ~limit:(voff + vlen);
    o := voff + vlen
  done

(* Validate one message body; [`Update nlri_off] carries the absolute
   offset of the (possibly empty) NLRI section. *)
let check_message s ~boff ~blen ~ty =
  match ty with
  | 1 ->
      if blen < 10 then raise Bad;
      `Skip
  | 2 ->
      if blen < 4 then raise Bad;
      let wlen = Slice.u16be s boff in
      if 2 + wlen + 2 > blen then raise Bad;
      check_prefixes s ~off:(boff + 2) ~limit:(boff + 2 + wlen);
      let alen = Slice.u16be s (boff + 2 + wlen) in
      if 4 + wlen + alen > blen then raise Bad;
      check_attrs s ~off:(boff + 4 + wlen) ~limit:(boff + 4 + wlen + alen);
      let nlri_off = boff + 4 + wlen + alen in
      check_prefixes s ~off:nlri_off ~limit:(boff + blen);
      `Update nlri_off
  | 3 ->
      if blen < 2 then raise Bad;
      `Skip
  | 4 ->
      if blen <> 0 then raise Bad;
      `Skip
  | _ -> raise Bad

let transfer_end_of_reasm ?(config = default_config) ~start reasm =
  let stream = Stream_reassembly.contiguous_slice reasm in
  let len = Slice.length stream in
  let st = scan_create config ~start in
  let seen = st.seen in
  let rec scan off =
    if off >= len then outcome st
    else
      match Msg.peek_length_slice stream off with
      | None -> outcome st
      | exception Bgp_error.Decode_error _ -> outcome st
      | Some total ->
          if off + total > len then outcome st
          else begin
            let ty = Slice.u8 stream (off + 18) in
            let boff = off + Msg.header_size in
            let blen = total - Msg.header_size in
            match check_message stream ~boff ~blen ~ty with
            | exception Bad -> outcome st
            | `Skip -> scan (off + total)
            | `Update nlri_off ->
                let limit = boff + blen in
                if nlri_off = limit then
                  (* Empty NLRI: not an announcement batch. *)
                  scan (off + total)
                else begin
                  let ts = Stream_reassembly.delivery_time reasm (off + total - 1) in
                  match admit st ts with
                  | `Skip -> scan (off + total)
                  | `Stop -> outcome st
                  | `Open ->
                      let total_p = ref 0 in
                      let dups = ref 0 in
                      let o = ref nlri_off in
                      while !o < limit do
                        let plen = Slice.u8 stream !o in
                        incr total_p;
                        if pset_mem seen (pack_prefix stream !o plen) then incr dups;
                        o := !o + 1 + ((plen + 7) / 8)
                      done;
                      if churn st ~total:!total_p ~dups:!dups then outcome st
                      else begin
                        let o = ref nlri_off in
                        while !o < limit do
                          let plen = Slice.u8 stream !o in
                          pset_add seen (pack_prefix stream !o plen);
                          o := !o + 1 + ((plen + 7) / 8)
                        done;
                        commit st ts;
                        scan (off + total)
                      end
                end
          end
  in
  scan 0
