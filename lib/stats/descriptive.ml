type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  total : float;
}

(* Welford's online algorithm: numerically stable single pass. *)
let summarize xs =
  match xs with
  | [] -> invalid_arg "Descriptive.summarize: empty sample"
  | first :: _ ->
      let n = ref 0 in
      let mean = ref 0. in
      let m2 = ref 0. in
      let mn = ref first and mx = ref first and total = ref 0. in
      let step x =
        incr n;
        let delta = x -. !mean in
        mean := !mean +. (delta /. float_of_int !n);
        m2 := !m2 +. (delta *. (x -. !mean));
        if x < !mn then mn := x;
        if x > !mx then mx := x;
        total := !total +. x
      in
      List.iter step xs;
      let stddev =
        if !n < 2 then 0. else sqrt (!m2 /. float_of_int (!n - 1))
      in
      { n = !n; mean = !mean; stddev; min = !mn; max = !mx; total = !total }

let mean xs = (summarize xs).mean

let percentile p xs =
  if xs = [] then invalid_arg "Descriptive.percentile: empty sample";
  if p < 0. || p > 100. then invalid_arg "Descriptive.percentile: p not in [0,100]";
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 1 then a.(0)
  else begin
    let rank = p /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    let hi = Stdlib.min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))
  end

let median xs = percentile 50. xs

let slow_threshold xs =
  let s = summarize xs in
  s.mean +. (3. *. s.stddev)

