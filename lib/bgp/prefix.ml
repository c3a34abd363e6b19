type t = { addr : int32; len : int }

let mask len =
  if len = 0 then 0l
  else Int32.shift_left Int32.minus_one (32 - len)

let v addr len =
  if len < 0 || len > 32 then
    invalid_arg (Printf.sprintf "Prefix.v: bad length %d" len);
  { addr = Int32.logand addr (mask len); len }

let of_quad a b c d len =
  let e = Tdat_pkt.Endpoint.of_quad a b c d 0 in
  v e.Tdat_pkt.Endpoint.ip len

let addr t = t.addr
let len t = t.len

let byte_len t = (t.len + 7) / 8
let encoded_size t = 1 + byte_len t

let encode buf t =
  Buffer.add_uint8 buf t.len;
  let u = Int32.to_int t.addr land 0xFFFFFFFF in
  for i = 0 to byte_len t - 1 do
    Buffer.add_uint8 buf ((u lsr (24 - (8 * i))) land 0xFF)
  done

module Slice = Tdat_pkt.Slice

let decode_slice s off =
  if off >= Slice.length s then
    Bgp_error.fail ~context:"Prefix.decode" "truncated";
  let plen = Slice.u8 s off in
  if plen > 32 then
    Bgp_error.fail ~context:"Prefix.decode" "invalid prefix length";
  let nbytes = (plen + 7) / 8 in
  if off + 1 + nbytes > Slice.length s then
    Bgp_error.fail ~context:"Prefix.decode" "truncated address";
  let u = ref 0 in
  for i = 0 to nbytes - 1 do
    u := !u lor (Slice.u8 s (off + 1 + i) lsl (24 - (8 * i)))
  done;
  (v (Int32.of_int !u) plen, off + 1 + nbytes)

let pp ppf t =
  let u = Int32.to_int t.addr land 0xFFFFFFFF in
  Format.fprintf ppf "%d.%d.%d.%d/%d"
    ((u lsr 24) land 0xFF)
    ((u lsr 16) land 0xFF)
    ((u lsr 8) land 0xFF)
    (u land 0xFF) t.len

let to_string t = Format.asprintf "%a" pp t
