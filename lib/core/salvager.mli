(** The salvager: restore hierarchy/KST/descriptor consistency after a
    crash, using the {!System} crash journal as evidence.  Every
    repair removes state or re-derives a descriptor from the
    authoritative access records — a salvage can revoke, never grant. *)

type report = {
  journal_entries : int;  (** crash-journal entries consumed *)
  rolled_back : int;  (** partially-created branches removed *)
  dangling_dropped : int;  (** KST entries for vanished objects *)
  descriptors_repaired : int;  (** installed SDWs that disagreed with policy *)
  quota_ok : bool;  (** hierarchy quota invariant after salvage *)
}

val render : report -> string

val descriptor_disagreements : System.t -> int
(** Installed descriptors, over every live process's KST, that differ
    from the one [Hierarchy.sdw_for] computes fresh (or that the
    monitor would no longer install at all).  Zero after a {!run}: the
    invariant E15 and the model checker hold the salvager to. *)

val run : System.t -> report
(** Walk the crash journal (rolling back partially-created branches),
    every process's KST (dropping entries for vanished objects), and
    every installed descriptor (recomputing it from ACL x label x
    brackets and repairing disagreements); verify the quota invariant;
    clear the journal; write one audit record and the [salvage.*]
    observability counters. *)
