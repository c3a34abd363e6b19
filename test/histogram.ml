type t = { lo : float; width : float; counts : int array }

let create ~lo ~hi ~bins =
  if hi <= lo then invalid_arg "Histogram.create: hi <= lo";
  if bins < 1 then invalid_arg "Histogram.create: bins < 1";
  { lo; width = (hi -. lo) /. float_of_int bins; counts = Array.make bins 0 }

let bin_index h x =
  let i = int_of_float ((x -. h.lo) /. h.width) in
  Stdlib.max 0 (Stdlib.min (Array.length h.counts - 1) i)

let add h x =
  let i = bin_index h x in
  h.counts.(i) <- h.counts.(i) + 1

let add_list h xs = List.iter (add h) xs
let total h = Array.fold_left ( + ) 0 h.counts
let bin_center h i = h.lo +. ((float_of_int i +. 0.5) *. h.width)

let mode_center h =
  if total h = 0 then None
  else begin
    let best = ref 0 in
    Array.iteri (fun i c -> if c > h.counts.(!best) then best := i) h.counts;
    Some (bin_center h !best)
  end

let nonempty_bins h =
  let out = ref [] in
  Array.iteri
    (fun i c -> if c > 0 then out := (bin_center h i, c) :: !out)
    h.counts;
  List.rev !out
