(** Systematic verification of the reference monitor: the
    security-relevant decision procedures checked exhaustively against
    independent declarative specifications (dominance, lattice bounds,
    the Bell–LaPadula rules, the Schroeder–Saltzer bracket tables,
    hardware-check soundness, ACL specificity). *)

type check = {
  check_name : string;
  cases : int;
  mismatches : int;
  detail : string option;  (** first counterexample, if any *)
}

val passed : check -> bool

val run_all : unit -> check list
val all_passed : check list -> bool
val total_cases : check list -> int
