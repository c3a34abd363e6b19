type t = { ip : int32; port : int }

let v ip port = { ip; port }

let of_quad a b c d port =
  let octet name x =
    if x < 0 || x > 255 then
      invalid_arg (Printf.sprintf "Endpoint.of_quad: %s octet %d" name x)
  in
  octet "a" a;
  octet "b" b;
  octet "c" c;
  octet "d" d;
  if port < 0 || port > 65535 then
    invalid_arg (Printf.sprintf "Endpoint.of_quad: port %d" port);
  let ip =
    Int32.logor
      (Int32.shift_left (Int32.of_int a) 24)
      (Int32.of_int ((b lsl 16) lor (c lsl 8) lor d))
  in
  { ip; port }

let compare a b =
  match Int32.unsigned_compare a.ip b.ip with
  | 0 -> Int.compare a.port b.port
  | c -> c

let equal a b = compare a b = 0

let pp ppf { ip; port } =
  let u = Int32.to_int (Int32.shift_right_logical ip 0) land 0xFFFFFFFF in
  (* [Int32.to_int] sign-extends; mask restores the unsigned value on
     64-bit platforms. *)
  Format.fprintf ppf "%d.%d.%d.%d:%d"
    ((u lsr 24) land 0xFF)
    ((u lsr 16) land 0xFF)
    ((u lsr 8) land 0xFF)
    (u land 0xFF) port

