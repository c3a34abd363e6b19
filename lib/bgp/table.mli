(** Synthetic BGP routing tables.

    A table is the Adj-RIB-Out a router sends during an initial table
    transfer: a list of (prefix, path attributes) routes.  The generator
    draws prefix lengths and AS-path lengths from distributions matching
    published RouteViews statistics of the paper's era (mostly /24s and
    /16–/22s; path lengths centered on 3–5 hops), so message packing and
    transfer sizes are realistic. *)

type route = { prefix : Prefix.t; attrs : Attr.t list }
type t = route list

val generate :
  rng:Tdat_rng.Rng.t ->
  n_prefixes:int ->
  ?as_pool:int ->
  ?path_pool:int ->
  ?next_hop:int32 ->
  unit ->
  t
(** [generate ~rng ~n_prefixes ()] builds a table of distinct prefixes.
    [as_pool] (default 2000) bounds the universe of AS numbers;
    [path_pool] (default [n_prefixes/6]) bounds the number of distinct
    attribute sets, mirroring the heavy path sharing of real tables;
    [next_hop] defaults to 10.0.0.1. *)

