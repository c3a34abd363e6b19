let now_s () = Unix.gettimeofday ()
let now_us () = Unix.gettimeofday () *. 1e6
