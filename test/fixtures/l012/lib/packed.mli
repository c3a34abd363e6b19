val name : string
(** Used only through a first-class module. *)
