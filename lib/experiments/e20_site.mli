(** E20 — distributed kernel sites: the 10k/100k/1M-user x 1/2/4/8-site
    fleet sweep (cross-site revocation cycles, fenced refusals), the
    hundred-seed site-count-parity oracle under drop/delay fault
    plans, and the directed partition race — a fenced site must refuse
    rather than serve a revoked Permit, and rejoin must replay the
    missed epochs.  The sweep-parity, coherence and race verdict lines
    are CI gates. *)

val id : string
val title : string
val paper_claim : string
val render : unit -> string
