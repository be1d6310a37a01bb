(** E7 — circular-ring lapping vs the infinite VM buffer under
    increasingly bursty network input. *)

val id : string
val title : string
val paper_claim : string

type row = {
  burst_cap : int;
  offered : int;
  circular_lost : int;
  circular_loss_rate : float;
  infinite_lost : int;
  infinite_peak_pages : int;
}

val measure : ?capacity:int -> ?seed:int -> unit -> row list
val table : unit -> Multics_util.Table.t
val render : unit -> string
