type t = { start : Time_us.t; stop : Time_us.t }

let v start stop =
  if stop <= start then
    invalid_arg
      (Printf.sprintf "Span.v: stop (%d) must be greater than start (%d)" stop
         start);
  { start; stop }

let point t = { start = t; stop = t + 1 }

(* A literal of constants, so the compiler emits it as static data: it
   is never young, and [Array.make n filler] never forces a minor
   collection (DESIGN.md, "Allocation discipline"). *)
let filler = { start = 0; stop = 1 }

let of_duration start len =
  if len <= 0 then invalid_arg "Span.of_duration: non-positive length";
  { start; stop = start + len }

let start s = s.start
let stop s = s.stop
let length s = s.stop - s.start
let contains s t = s.start <= t && t < s.stop
let overlaps a b = a.start < b.stop && b.start < a.stop
let touches a b = a.start <= b.stop && b.start <= a.stop

let inter a b =
  let start = max a.start b.start and stop = min a.stop b.stop in
  if start < stop then Some { start; stop } else None

let hull a b = { start = min a.start b.start; stop = max a.stop b.stop }

let compare a b =
  match Int.compare a.start b.start with
  | 0 -> Int.compare a.stop b.stop
  | c -> c

let equal a b = compare a b = 0

let pp ppf s =
  Format.fprintf ppf "[%a, %a)" Time_us.pp s.start Time_us.pp s.stop
