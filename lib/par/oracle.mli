(** The differential oracle: the one seed/compare loop every parity
    check shares.

    A parity check runs a {e reference} and a {e variant} from the same
    seed and asserts that they agree at every step.  [run] fans the
    seeds out with {!Par.run_seeds}; each seed's runner reports its
    comparisons through a callback as [(step, reference, variant)],
    and the oracle counts the ones [equal] rejects.

    Witness contract:
    - [render] is called only on a divergence, so a passing run spends
      nothing on rendering;
    - the witness is the divergence with the lowest seed, then the
      lowest step;
    - results are reduced in seed order, so the count and the witness
      are the same at any pool size. *)

type witness = { seed : int; step : int; reference : string; variant : string }

type t = {
  seeds : int;
  divergences : int;
  witness : witness option;  (** [None] iff [divergences = 0] *)
}

val run :
  ?jobs:int ->
  seeds:int ->
  equal:('v -> 'v -> bool) ->
  render:('v -> string) ->
  (seed:int -> report:(int -> 'v -> 'v -> unit) -> 'a) ->
  'a list * t
(** [run ~seeds ~equal ~render runner] calls [runner ~seed ~report] for
    every seed in [0 .. seeds-1] (over [jobs] domains, default
    [MULTICS_JOBS]).  The runner calls [report step reference variant]
    once per comparison.  Returns the runners' results in seed order
    and the tally. *)

val witness_line : t -> string option
(** [[witness] seed S step K: reference <r> | variant <v>] for a broken
    run, [None] for a passing one. *)

val verdict : t -> pass:string -> fail:string -> string -> string
(** [verdict t ~pass ~fail line] is ["pass line"] when nothing
    diverged, else ["fail line"] followed by a newline and the
    {!witness_line}. *)
