(* L012 fixture: every way a production file can use an export. *)

module O = Fixture_lib.Owner

let a = O.via_alias

open Owner

let b = via_open
let c = Owner.(via_local_open +! 1)
let d = stale

module S = Set.Make (Ordered)

module type NAMED = sig
  val name : string
end

let e = (module Packed : NAMED)
