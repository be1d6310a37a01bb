(** E17 — the traffic controller under multi-user timesharing load:
    a user sweep (10 -> 10,000 sessions) on both processor models, the
    eligibility-cap thrashing knee against a fixed core budget, and the
    policy-parity check (MLF / FIFO / user-ring external must leave the
    mediation digest untouched) with the per-policy kernel-surface
    accounting. *)

val id : string
val title : string
val paper_claim : string
val render : unit -> string
