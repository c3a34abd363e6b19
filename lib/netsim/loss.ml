type t = Tdat_timerange.Time_us.t -> bool

let drop m now = m now
let none _ = false

let bernoulli rng p _ = Tdat_rng.Rng.bernoulli rng p

let gilbert rng ~p_enter ~p_exit ~p_loss_bad =
  let bad = ref false in
  fun _ ->
    let module R = Tdat_rng.Rng in
    if !bad then begin
      if R.bernoulli rng p_exit then bad := false
    end
    else if R.bernoulli rng p_enter then bad := true;
    !bad && R.bernoulli rng p_loss_bad

let bernoulli_during rng spans p now =
  Tdat_timerange.Span_set.mem now spans && Tdat_rng.Rng.bernoulli rng p

let combine a b now = a now || b now
