val dashboard : ?address:string -> Tdat_json.Json.t -> string
(** One frame of the [tdat top] dashboard, rendered from a [stats]
    result object: request/error/queue/connection totals, cache hit
    ratio, the per-endpoint rolling-window percentile table, and the
    worst-request exemplars.  Missing members render as zeros — the
    frame must survive version skew between client and daemon. *)

val analysis :
  ?series:bool -> (Tdat_pkt.Flow.t * Tdat.Analyzer.t) list -> string
(** Exactly what [tdat analyze] prints to stdout for these results
    (one report per connection, a blank line after each, the
    ["-- event series --"] timeline when [series]).  [tdat serve]
    returns this same string, so daemon and batch output are
    byte-identical by construction. *)
