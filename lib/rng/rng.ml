type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t = { state = bits64 t }

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: non-positive bound";
  let v = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  v mod bound

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: hi < lo";
  lo + int t (hi - lo + 1)

let float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  bound *. v /. 9007199254740992. (* 2^53 *)

let bernoulli t p = float t 1.0 < p

let exponential t ~mean =
  let u = 1.0 -. float t 1.0 in
  -.mean *. log u

let choose t a =
  if Array.length a = 0 then invalid_arg "Rng.choose: empty array";
  a.(int t (Array.length a))

let weighted t items =
  if items = [] then invalid_arg "Rng.weighted: empty list";
  let total = List.fold_left (fun acc (w, _) -> acc +. w) 0. items in
  if total <= 0. then invalid_arg "Rng.weighted: non-positive total weight";
  let target = float t total in
  let rec pick acc = function
    | [] -> snd (List.nth items (List.length items - 1))
    | (w, x) :: rest -> if acc +. w > target then x else pick (acc +. w) rest
  in
  pick 0. items

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

module Private = struct
  let float = float
end
