type t = int

let zero = 0
let of_s s = int_of_float (Float.round (s *. 1_000_000.))
let to_s t = float_of_int t /. 1_000_000.
let to_ms t = float_of_int t /. 1_000.
let ( + ) = Stdlib.( + )
let ( - ) = Stdlib.( - )
let compare = Int.compare

let pp ppf t =
  let a = abs t in
  if a < 1_000 then Format.fprintf ppf "%dus" t
  else if a < 1_000_000 then Format.fprintf ppf "%.3gms" (to_ms t)
  else Format.fprintf ppf "%.4gs" (to_s t)

