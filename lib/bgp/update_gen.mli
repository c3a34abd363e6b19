(** Packing a routing table into UPDATE messages.

    Real routers batch prefixes sharing identical path attributes into a
    single UPDATE up to the 4096-byte message limit; this is the encoding
    a table transfer puts on the wire. *)

val pack : Table.t -> Msg.t list
(** Groups routes by {!Attr.signature}, preserving the first-appearance
    order of attribute groups, and splits each group into UPDATEs that
    respect {!Msg.max_size}. *)

