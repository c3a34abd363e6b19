type t = float array (* sorted samples *)

let of_samples xs =
  if xs = [] then invalid_arg "Cdf.of_samples: empty sample";
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Number of samples <= x, via binary search for the upper bound. *)
let count_le a x =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) <= x then lo := mid + 1 else hi := mid
  done;
  !lo

let eval a x = float_of_int (count_le a x) /. float_of_int (Array.length a)

let quantile a q =
  if q < 0. || q > 1. then invalid_arg "Cdf.quantile: q not in [0,1]";
  let len = Array.length a in
  let k = int_of_float (ceil (q *. float_of_int len)) in
  a.(Stdlib.max 0 (Stdlib.min (len - 1) (k - 1)))

let points a =
  let len = Array.length a in
  let rec collect i acc =
    if i >= len then List.rev acc
    else begin
      (* Skip to the last occurrence of this value to get the step top. *)
      let v = a.(i) in
      let j = ref i in
      while !j + 1 < len && a.(!j + 1) = v do
        incr j
      done;
      let f = float_of_int (!j + 1) /. float_of_int len in
      collect (!j + 1) ((v, f) :: acc)
    end
  in
  collect 0 []

let support a = (a.(0), a.(Array.length a - 1))

module Private = struct
  let eval = eval
  let quantile = quantile
  let support = support
end
