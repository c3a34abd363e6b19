(** Lifting ingestion diagnostics into the audit report shape.

    The pcap reader emits typed [P0xx] diagnostics ([Tdat_pkt.Pcap.Diag])
    and the MRT archive reader typed [M0xx] diagnostics
    ([Tdat_bgp.Mrt.Diag]), but neither can depend on this library; this
    module converts both to {!Diag.t} so [tdat check] and [tdat study]
    present one unified finding list covering the parsing boundaries and
    the analysis invariants.  DESIGN.md ("Ingestion robustness" and
    "Measurement study") documents the code tables. *)

val of_result : Tdat_pkt.Pcap.result -> Diag.t list

val of_mrt_diags : ?file:string -> Tdat_bgp.Mrt.Diag.t list -> Diag.t list
