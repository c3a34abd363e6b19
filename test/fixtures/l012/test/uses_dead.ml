(* A test naming Owner.dead: test/ is not a linted root, so this use does
   not count. *)
let () = ignore Owner.dead
