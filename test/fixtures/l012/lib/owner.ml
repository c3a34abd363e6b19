let dead = 0
let via_alias = 1
let via_open = 2
let via_local_open = 3
let ( +! ) a b = a + b
let allowed = 4
let stale = 5

(* Uses inside the module's own file do not count. *)
let _ = dead + allowed

module Private = struct
  let internal = 6
end
