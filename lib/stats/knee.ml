type fit = { slope : float; intercept : float; rmse : float }

(* Sums of x, y, x², xy and y² over a set of points.  Every field is a
   float, so the record is stored flat and updating it allocates
   nothing. *)
type sums = {
  mutable sx : float;
  mutable sy : float;
  mutable sxx : float;
  mutable sxy : float;
  mutable syy : float;
}

let zero_sums () = { sx = 0.; sy = 0.; sxx = 0.; sxy = 0.; syy = 0. }

let add_point s x y =
  s.sx <- s.sx +. x;
  s.sy <- s.sy +. y;
  s.sxx <- s.sxx +. (x *. x);
  s.sxy <- s.sxy +. (x *. y);
  s.syy <- s.syy +. (y *. y)

(* Sums of all points shifted by [points.(0)], so the differences taken
   in [fit_of_sums] do not cancel when the values sit far from 0. *)
let shifted_sums points =
  let x0, y0 = points.(0) in
  let s = zero_sums () in
  Array.iter (fun (x, y) -> add_point s (x -. x0) (y -. y0)) points;
  s

(* Least-squares line through [n] points from their sums.  The residual
   sum of squares comes from the sums too, so a fit costs O(1). *)
let fit_of_sums n s =
  let dxy = (n *. s.sxy) -. (s.sx *. s.sy) in
  let denom = (n *. s.sxx) -. (s.sx *. s.sx) in
  let slope = if abs_float denom < 1e-12 then 0. else dxy /. denom in
  let intercept = (s.sy -. (slope *. s.sx)) /. n in
  let sse = ((n *. s.syy) -. (s.sy *. s.sy) -. (slope *. dxy)) /. n in
  { slope; intercept; rmse = sqrt (Float.max 0. sse /. n) }

let linear_fit points =
  let n = Array.length points in
  if n < 2 then invalid_arg "Knee.linear_fit: need at least 2 points";
  let x0, y0 = points.(0) in
  let f = fit_of_sums (float_of_int n) (shifted_sums points) in
  { f with intercept = f.intercept +. y0 -. (f.slope *. x0) }

let l_method points =
  let n = Array.length points in
  if n < 4 then None
  else begin
    let fn = float_of_int n in
    let x0, y0 = points.(0) in
    (* Running sums over the left part; the right part's sums are the
       totals minus the left ones, so each split costs O(1). *)
    let total = shifted_sums points in
    let left = zero_sums () and right = zero_sums () in
    let add_left i =
      let x, y = points.(i) in
      add_point left (x -. x0) (y -. y0)
    in
    add_left 0;
    let best = ref None in
    (* Split c (1-based count of left points) from 2 to n-2 so both sides
       hold at least two points. *)
    for c = 2 to n - 2 do
      add_left (c - 1);
      right.sx <- total.sx -. left.sx;
      right.sy <- total.sy -. left.sy;
      right.sxx <- total.sxx -. left.sxx;
      right.sxy <- total.sxy -. left.sxy;
      right.syy <- total.syy -. left.syy;
      let fl = fit_of_sums (float_of_int c) left in
      let fr = fit_of_sums (float_of_int (n - c)) right in
      let cost =
        (float_of_int c /. fn *. fl.rmse)
        +. (float_of_int (n - c) /. fn *. fr.rmse)
      in
      match !best with
      | Some (_, best_cost) when best_cost <= cost -> ()
      | _ -> best := Some (c, cost)
    done;
    match !best with
    | None -> None
    | Some (c, _) ->
        let x, _ = points.(c - 1) in
        Some (c - 1, x)
  end

let knee_of_sorted values =
  match values with
  | [] | [ _ ] | [ _; _ ] | [ _; _; _ ] -> None
  | _ ->
      let a = Array.of_list values in
      Array.sort Float.compare a;
      (* Seeded with a constant pair, which is static data: [Array.mapi]
         seeds the array with its first fresh pair, and past 256 points
         that forces a minor collection. *)
      let points = Array.make (Array.length a) (0., 0.) in
      Array.iteri (fun i v -> points.(i) <- (float_of_int i, v)) a;
      (match l_method points with
      | None -> None
      | Some (i, _) -> Some a.(i))

module Private = struct
  let linear_fit = linear_fit
end
