type t = {
  min_rto : Tdat_timerange.Time_us.t;
  max_rto : Tdat_timerange.Time_us.t;
  backoff_factor : float;
  mutable srtt : float option; (* µs *)
  mutable rttvar : float;
  mutable backoffs : int;
}

let initial_rto_us = 3_000_000.

let create ~min_rto ~max_rto ~backoff_factor =
  if backoff_factor < 1.0 then invalid_arg "Rto.create: backoff_factor < 1";
  { min_rto; max_rto; backoff_factor; srtt = None; rttvar = 0.; backoffs = 0 }

let sample t rtt_us =
  let r = float_of_int rtt_us in
  (match t.srtt with
  | None ->
      t.srtt <- Some r;
      t.rttvar <- r /. 2.
  | Some srtt ->
      (* RFC 6298 constants: alpha = 1/8, beta = 1/4. *)
      t.rttvar <- (0.75 *. t.rttvar) +. (0.25 *. abs_float (srtt -. r));
      t.srtt <- Some ((0.875 *. srtt) +. (0.125 *. r)));
  t.backoffs <- 0

let current t =
  let base =
    match t.srtt with
    | None -> initial_rto_us
    | Some srtt -> srtt +. (4. *. t.rttvar)
  in
  (* Clamp to the floor first, then back off: RFC 6298 doubles the armed
     RTO, which is never below the minimum. *)
  let clamped = Float.max (float_of_int t.min_rto) base in
  let scaled = clamped *. (t.backoff_factor ** float_of_int t.backoffs) in
  min t.max_rto (int_of_float scaled)

let backoff t = t.backoffs <- t.backoffs + 1
let reset_backoff t = t.backoffs <- 0
