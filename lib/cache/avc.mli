(** A generic fixed-capacity, epoch-versioned decision cache — the
    simulated counterpart of the 6180's associative memory, generalised
    to back the per-process SDW associative memory, the per-CPU CAMs
    and the PTW lookaside.

    Revocation correctness is the design center.  Two disciplines
    keep a cached decision from outliving the authority that granted
    it, and both act in the same step as the mutation:

    - {b setfaults} ({!invalidate}): the changed descriptor's own
      entry is dropped from its one direct-mapped slot;
    - {b generation stamps} ({!Gen}): entries are stamped with the
      generation counters (one global, one per object id) current at
      insertion, and a bump of either makes every entry derived from
      that object stale — a lookup whose stamps no longer match is a
      miss and the entry is dropped on the spot.  This is how one
      mutation revokes decisions held by several caches at once.

    Invalidation is immediate, never TTL-based. *)

(** Generation counters.  A [Gen.t] may be shared by several caches
    (and by {!Multics_access.Av_table}) so one bump invalidates every
    decision derived from the mutated object.  Object ids are dense
    non-negative ints (uids, page SIDs): the per-object counters are
    one array, grown geometrically on the first bump past its end; an
    id the array does not cover was never bumped, hence generation
    0.  The array has no cap: it costs one word per id up to the
    largest id ever bumped, and uids and page SIDs are never reused,
    so a long create/delete run grows it with the highest id it
    bumps. *)
module Gen : sig
  type t

  val create : unit -> t
  val global : t -> int

  val of_object : t -> int -> int
  (** Raises [Invalid_argument] for a negative id. *)

  val bump_global : t -> unit
  (** Invalidate every entry of every cache sharing this [Gen.t]. *)

  val bump_object : t -> int -> unit
  (** Invalidate entries whose decisions derive from object [obj].
      Raises [Invalid_argument] for a negative id. *)
end

type 'v t
(** A cache from non-negative int keys to decisions.  Each key is
    also the object id its entry is stamped against. *)

val create : ?capacity:int -> ?gens:Gen.t -> name:string -> unit -> 'v t
(** [capacity] defaults to 256 and is rounded up to a power of two.
    The table is a direct-mapped slot array (hardware-style): a key's
    slot is its low bits, and an insertion whose slot is occupied by a
    different key displaces the resident entry rather than maintain
    LRU bookkeeping.  Displacement only ever discards a cached
    decision, so it is always sound.  Counters are registered in
    {!Multics_obs.Obs.Registry.global} under
    ["cache.<name>.hits"/"misses"/"invalidations"/"insertions"/
    "flushes"]; instances sharing a [name] share counters. *)

val gens : 'v t -> Gen.t
val size : 'v t -> int

val set_flush_probe : 'v t -> (unit -> bool) option -> unit
(** Install a fault-injection probe consulted on every lookup; when it
    fires the cache is flushed first (the [cache.flush] storm site).
    Flush storms cost performance, never correctness. *)

val find : 'v t -> int -> 'v option
(** Stale entries (stamp mismatch) are dropped and counted as an
    invalidation plus a miss. *)

val add : 'v t -> int -> 'v -> unit
(** Insert a decision, stamped with the current generations.  Raises
    [Invalid_argument] for a negative key. *)

val entries : 'v t -> (int * 'v) list
(** Key/value pairs of the entries that would currently hit (stale
    entries are skipped); order unspecified.  Read-only: no counter
    moves, no entry is dropped.  For invariant checks. *)

val invalidate : 'v t -> int -> unit
(** Setfaults for one key: drop its entry if its slot holds it,
    counted as an invalidation.  Other keys' entries are untouched. *)

val invalidate_object : 'v t -> int -> unit
(** Bump object [obj]'s generation in this cache's {!Gen.t}: stales
    the entries every sharing cache derived from it. *)

val flush : 'v t -> unit

val counters : 'v t -> (string * int) list
(** Current readings of this cache's obs counters (shared by name). *)
