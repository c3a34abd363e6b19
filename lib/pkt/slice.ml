(* A bounds-checked offset/length view over a [Bytes.t] backing buffer
   (DESIGN.md, "Allocation discipline").  The decode hot paths parse
   headers and options directly through a slice instead of materializing
   [String.sub]/[Bytes.sub] copies of every record, so a multi-gigabyte
   capture decodes with per-record allocation proportional to what is
   *kept* (segments, diagnostics), not to what is *read*.

   Contract:

   - A slice BORROWS its backing buffer: it never copies and never
     writes.  The borrow is only valid while the producer (a streaming
     reader's reused record buffer, a reassembled stream) keeps the
     bytes in place — callers must not stash slices past the callback
     that handed them over.
   - Every getter checks bounds against the slice, not the backing
     buffer, so a reused oversized buffer can safely carry a shorter
     record: reads beyond [len] raise [Out_of_bounds] even though the
     backing bytes exist.
   - Getters return immediates (ints); the only allocating operations
     are the explicit [sub_string]/[to_string] escapes.  Everything
     here is in the L009 hot set. *)

type t = { buf : Bytes.t; off : int; len : int }

exception Out_of_bounds of { what : string; pos : int; len : int }

let oob what pos len = raise (Out_of_bounds { what; pos; len })

let of_bytes ?(off = 0) ?len buf =
  let blen = Bytes.length buf in
  let len = match len with Some l -> l | None -> blen - off in
  if off < 0 || len < 0 || off + len > blen then
    (* Cold: only reached on a caller contract violation, right before
       the raise — never on the per-record decode path. *)
    (invalid_arg
       (Printf.sprintf "Slice.of_bytes: off=%d len=%d over %d bytes" off len
          blen) [@tdat.lint.allow "L009"]);
  { buf; off; len }

(* Read-only discipline above makes the copy-free cast safe: no getter
   ever mutates [buf], so the string's immutability is preserved. *)
let of_string ?off ?len s = of_bytes ?off ?len (Bytes.unsafe_of_string s)

let length t = t.len

let sub t ~off ~len =
  if off < 0 || len < 0 || off + len > t.len then oob "sub" off t.len;
  { buf = t.buf; off = t.off + off; len }

(* [check] guards every getter; reads below go through [unsafe_get]
   because the bound was just proven. *)
let[@inline] check t what pos n =
  if pos < 0 || pos + n > t.len then oob what pos t.len

let[@inline] byte t pos = Char.code (Bytes.unsafe_get t.buf (t.off + pos))

let[@inline] u8 t pos =
  check t "u8" pos 1;
  byte t pos

let[@inline] u16be t pos =
  check t "u16be" pos 2;
  (byte t pos lsl 8) lor byte t (pos + 1)

let[@inline] u32be t pos =
  check t "u32be" pos 4;
  (byte t pos lsl 24)
  lor (byte t (pos + 1) lsl 16)
  lor (byte t (pos + 2) lsl 8)
  lor byte t (pos + 3)

let[@inline] u32le t pos =
  check t "u32le" pos 4;
  byte t pos
  lor (byte t (pos + 1) lsl 8)
  lor (byte t (pos + 2) lsl 16)
  lor (byte t (pos + 3) lsl 24)

let[@inline] i32be t pos = Int32.of_int (u32be t pos)

(* Explicit allocating escapes, for the bytes a caller keeps. *)

let sub_string t ~off ~len =
  if off < 0 || len < 0 || off + len > t.len then oob "sub_string" off t.len;
  Bytes.sub_string t.buf (t.off + off) len

let to_string t = sub_string t ~off:0 ~len:t.len

let blit t ~off ~len dst ~dst_off =
  if off < 0 || len < 0 || off + len > t.len then oob "blit" off t.len;
  Bytes.blit t.buf (t.off + off) dst dst_off len
