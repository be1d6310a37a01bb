(** E22 — per-workload kernel specialisation: profile three workload
    mixes through the per-gate dispatch counters, compile each profile
    into a specialised gate table (lib/spec), and measure the
    attack-surface / functionality / dispatch-cost frontier — with the
    E11 penetration corpus against every specialisation and a 100-seed
    oracle proving specialised kernels byte-identical to the full
    kernel on every request they admit. *)

val id : string
val title : string
val paper_claim : string
val render : unit -> string
