(** Typed decode errors for the BGP wire codecs.

    Every decoder in this library ({!As_path}, {!Prefix}, {!Attr}, {!Msg},
    {!Mrt}) signals malformed input by raising {!Decode_error} with the
    decoding context (e.g. ["Msg.decode"]) and a human-readable reason.
    Callers that probe possibly-non-BGP byte streams — {!Msg_reader} in
    particular — match on the exception instead of on [Failure], so a
    decoding failure can never be confused with an unrelated [failwith].

    tdat-lint rule L005 enforces this convention: bare [failwith] is
    banned from library code. *)

exception Decode_error of { context : string; message : string }

val fail : context:string -> ('a, Format.formatter, unit, 'b) format4 -> 'a
(** [fail ~context fmt ...] raises {!Decode_error} with the formatted
    message. *)

