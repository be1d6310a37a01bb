(** The hardware access check applied to every simulated reference. *)

type operation =
  | Read
  | Write
  | Execute  (** transfer of control without ring change *)
  | Call of int  (** call to the given entry offset (may cross rings) *)

type grant =
  | Access_ok
  | Gate_entry of Ring.t  (** inward call; execution continues in this ring *)

type denial =
  | Missing_permission of Mode.t
  | Outside_write_bracket
  | Outside_read_bracket
  | Outside_call_bracket
  | Not_a_gate of int
  | Outward_call

type decision = Granted of grant | Denied of denial

val check : Sdw.t -> ring:Ring.t -> operation:operation -> decision
(** Validate one reference from a process executing in [ring]. *)

val allowed : Sdw.t -> ring:Ring.t -> operation:operation -> bool

(** The per-process SDW associative memory (the 6180's 16-entry CAM).
    Sound only under immediate invalidation: every SDW change must reach
    {!Assoc.invalidate} or {!Assoc.flush} — the simulation wires this
    through the KST's on-change hook so "setfaults" semantics are
    preserved.  Obs counters live under ["cache.hw.assoc.*"]. *)
module Assoc : sig
  type t

  val create : ?name:string -> unit -> t
  (** 16 entries, direct-mapped by the key's low 4 bits, as on the
      6180.  [name] (default ["hw.assoc"]) selects the obs counter
      family, so a per-CPU CAM can report under
      ["cache.smp.assoc.*"] instead. *)

  val lookup : t -> segno:int -> Sdw.t option

  val install : t -> segno:int -> Sdw.t -> unit
  (** Raises [Invalid_argument] for a negative [segno]. *)

  val invalidate : t -> segno:int -> unit
  (** Setfaults: drop [segno]'s entry from its slot (counted under
      ["invalidations"]); every other entry survives. *)

  val flush : t -> unit
  val size : t -> int

  val counters : t -> (string * int) list
  (** This memory's own tallies of the ["cache.hw.assoc.*"] events
      (see {!Multics_cache.Avc.counters}). *)

  val entries : t -> (int * Sdw.t) list
  (** The (key, SDW) pairs that would currently hit; read-only, order
      unspecified.  For invariant checks — the model checker walks
      every front looking for a cached grant that a fresh descriptor
      recomputation would refuse. *)
end

val check_via_assoc :
  Assoc.t ->
  segno:int ->
  fetch:(unit -> Sdw.t option) ->
  ring:Ring.t ->
  operation:operation ->
  decision option
(** {!check} against the associative memory: on a hit the cached SDW is
    used; on a miss [fetch] loads the descriptor (charged as
    [Cost.sdw_fetch] by callers), which is installed before checking.
    [None] when [fetch] finds no descriptor. *)

val denial_to_string : denial -> string
val pp_decision : Format.formatter -> decision -> unit
