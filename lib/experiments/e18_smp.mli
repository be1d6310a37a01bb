(** E18 — the multiprocessor plant: the 1/2/4/8-CPU dispatch sweep on
    both cost models (throughput, connect latency, lock contention),
    and the coherence-parity oracle — one hundred seeded runs x
    {1,2,4} CPUs x three fault plans, holding the mediation verdicts
    and audit digest CPU-count-invariant even under dropped connects
    and cache-flush storms.  The [\[scaling\]] and [\[coherence\]]
    verdict lines are CI gates. *)

val id : string
val title : string
val paper_claim : string

(** {1 The coherence-parity oracle} *)

val parity_spec : int -> int -> string -> Multics_sched.Workload.spec
(** [parity_spec seed cpus fault_spec]: the small session load every
    parity run serves (E20 reuses it with [sites] set). *)

val invariance_oracle :
  axis:string ->
  points:int list ->
  plans:string list ->
  (int -> int -> string -> Multics_sched.Workload.spec) ->
  Multics_par.Oracle.t
(** [invariance_oracle ~axis ~points ~plans spec]: one hundred seeds;
    per seed and plan, every point above 1 must give the
    {!Multics_sched.Workload.mediation} of the run at 1.  [axis] names
    the point in witness renderings. *)

val render : unit -> string
