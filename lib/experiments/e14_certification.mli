(** E14 — certification by systematic technique: exhaustive
    specification checks of the reference monitor's decision
    procedures, plus the review activity's maintained flaw list. *)

val id : string
val title : string
val paper_claim : string

val render : unit -> string
