(** E12 — the kernel across all engineering stages: gates,
    certification mass, initialization, I/O mechanisms, and the four
    categories of non-kernel software. *)

val id : string
val title : string
val paper_claim : string

val render : unit -> string
