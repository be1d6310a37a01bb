(** E16 — associative-memory simulation: hit ratio of the
    access-decision cache under workloads of varying locality and
    revocation churn, and the per-reference mediation cost that hit
    ratio implies on the H645 (no associative memory worth the name)
    and the H6180.  The [parity] column re-derives every verdict from
    scratch and compares — revocation correctness is measured, not
    assumed. *)

val id : string
val title : string
val paper_claim : string

type workload = {
  wname : string;
  objects : int;
  hot : int;  (** size of the hot set *)
  hot_bias : int;  (** percent of references that stay in the hot set *)
  refs : int;
  edit_every : int;  (** ACL-edit one random object every N refs; 0 = never *)
}

val workloads : workload list

type row = {
  row_workload : string;
  refs : int;
  edits : int;
  hit_ratio : float;
  invalidations : int;
  parity_ok : bool;  (** cached verdict = fresh verdict at every step *)
}

val measure : unit -> row list

val table : unit -> Multics_util.Table.t
val render : unit -> string
