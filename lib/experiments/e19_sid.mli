(** E19 — dense-SID mediation: one hundred seeded parity runs holding
    the compiled access-vector table ({!Multics_access.Av_table})
    pointwise equal to the structured reference monitor across ACL
    edits, label rewrites, bracket changes, flush storms and eager
    rebuilds, plus a table pricing the compilation (SIDs interned,
    cells filled, hit ratio under churn).  The [\[parity\]] verdict
    line is a CI gate: zero divergences or the build fails. *)

val id : string
val title : string
val paper_claim : string

type run_stats = {
  refs : int;
  edits : int;  (** ACL edits + bracket changes + label rewrites *)
  flushes : int;  (** flush storms + salvage-style global invalidations *)
  rebuilds : int;
}

val run_seed :
  report:
    (int ->
    Multics_access.Policy.verdict option ->
    Multics_access.Policy.verdict option ->
    unit) ->
  seed:int ->
  refs:int ->
  run_stats
(** One randomized interleaving of references and revocations; every
    reference [k] calls [report k structured compiled] with the
    verdicts of [check_access_fresh] and [check_access]. *)

val parity_runs : ?jobs:int -> ?refs:int -> unit -> run_stats list * Multics_par.Oracle.t
(** The 100-seed oracle through {!Multics_par.Oracle}, fanned out over
    [jobs] domains (default [MULTICS_JOBS]); [refs] defaults to 400
    references per seed.  Identical at any pool size. *)

val render : unit -> string
