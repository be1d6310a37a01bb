(** E15 — fail-secure under deterministic fault injection: randomized
    gate/VM workloads under seeded fault plans; every granted access
    is re-validated against recomputed policy, and the post-salvage
    hierarchy is checked descriptor-by-descriptor. *)

val id : string
val title : string
val paper_claim : string

type gate_outcome = {
  seed : int;
  plan_spec : string;
  ops : int;
  granted : int;
  refused : int;
  injected : int;
  journaled : int;
  violations : int;
  probe_leaks : int;
  report : Multics_kernel.Salvager.report;
  post_salvage_bad : int;
  post_salvage_probe_leaks : int;
}

val fail_secure : gate_outcome -> bool
(** True iff no granted access violated policy, no probe leaked
    (during faults or after salvage), every post-salvage descriptor
    agrees with the reference monitor, and quota is consistent. *)

val run_gate_pair : ?ops:int -> seed:int -> unit -> gate_outcome
(** One randomized (workload, fault-plan) pair, both derived from
    [seed]; deterministic per seed.  Boots a fresh system, runs [ops]
    random gate calls under the plan, salvages, and sweeps the
    invariants.  Also exercised directly by the property tests. *)

type vm_outcome = {
  vm_seed : int;
  vm_injected : int;
  vm_retries : int;
  vm_giveups : int;
  tape_errors : int;
  vulnerable : int;
  crashed_procs : int;
  conservation_ok : bool;
}

val render : unit -> string
