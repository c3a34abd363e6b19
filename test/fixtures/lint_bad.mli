(* Interface of the negative fixture: an export no other scanned file
   names (L012). *)

val sort_ids : int list -> int list
