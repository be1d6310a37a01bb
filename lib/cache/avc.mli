(** A generic fixed-capacity decision cache — the simulated counterpart
    of the 6180's associative memory, backing the per-process SDW
    associative memory, the per-CPU CAMs and the PTW lookasides.

    Revocation correctness is the design center, and it has one
    discipline: {b setfaults}.  Whoever changes the input to a cached
    decision clears the changed key's entry from its one direct-mapped
    slot ({!invalidate}) in the same step as the mutation, or empties
    the whole cache ({!flush}).  There are no generation stamps and no
    lazy staleness: an entry in the table is an entry that hits, so
    {!entries} and {!size} are exact.  Invalidation is immediate, never
    TTL-based. *)

type 'v t
(** A cache from non-negative int keys to decisions. *)

val create : ?capacity:int -> name:string -> unit -> 'v t
(** [capacity] defaults to 256 and is rounded up to a power of two.
    The table is a direct-mapped slot array (hardware-style): a key's
    slot is its low bits, and an insertion whose slot is occupied by a
    different key displaces the resident entry rather than maintain
    LRU bookkeeping.  Displacement only ever discards a cached
    decision, so it is always sound.  Counters are registered in
    {!Multics_obs.Obs.Registry.global} under
    ["cache.<name>.hits"/"misses"/"invalidations"/"insertions"/
    "flushes"]; instances sharing a [name] share those registry
    counters, and each instance also keeps its own tallies
    ({!counters}). *)

val size : 'v t -> int
(** Occupied slots. *)

val set_flush_probe : 'v t -> (unit -> bool) option -> unit
(** Install a fault-injection probe consulted on every lookup; when it
    fires the cache is flushed first (the [cache.flush] storm site).
    Flush storms cost performance, never correctness. *)

val find : 'v t -> int -> 'v option

val add : 'v t -> int -> 'v -> unit
(** Insert a decision.  Raises [Invalid_argument] for a negative
    key. *)

val entries : 'v t -> (int * 'v) list
(** Key/value pairs of the occupied slots; order unspecified.
    Read-only: no counter moves.  For invariant checks. *)

val invalidate : 'v t -> int -> unit
(** Setfaults for one key: drop its entry if its slot holds it,
    counted as an invalidation.  Other keys' entries are untouched. *)

val flush : 'v t -> unit

val counters : 'v t -> (string * int) list
(** This instance's own tallies of the five events, bumped only while
    obs is enabled (so they read 0 with obs off) — never another
    instance's traffic under the same name. *)
