(** The compiled access-vector table: Policy + ring brackets compiled
    per (subject SID, object uid) into a preallocated 2-D int array of
    access-vector bits.  A hit is an array load — no allocation, no
    hashing, no structured comparison.

    Revocation is by generation stamps, kept here and nowhere else:
    every cell carries the global and per-object generations current
    when it was compiled.  {!note_change} (any ACL edit, label change,
    bracket change, delete, rename) and {!revoke_all} (salvage, cache
    clear) bump one in O(1), so every cell derived from the changed
    object — a whole column — reads as empty on its next reference
    and is refilled lazily (or eagerly via {!rebuild}).

    Soundness of the encoding: permission is conjunctive per mode bit,
    so six bits (r/e/w policy grants plus bracket-read/bracket-write)
    decide every (subject, object, mode) question exactly.  Refusal
    details are not compiled; uncovered requests fall back to the
    structured recompute path, which keeps refusal lists and audit
    counters byte-identical to the uncached kernel. *)

open Multics_machine

(** {1 Access-vector bits} *)

val required : Mode.t -> int
(** The bits a request must cover: observe modes need the read
    bracket, write needs the write bracket. *)

val covers : av:int -> need:int -> bool

val compute :
  subject:Policy.subject -> object_label:Label.t -> acl:Acl.t -> brackets:Brackets.t -> int
(** Compile one cell: the conjunctive form of [Policy.check] (with the
    trusted-subject carve-out) and the bracket rule.  Held pointwise
    equal to the structured path by the E19 oracle and the unit
    tests. *)

(** {1 The table} *)

type t

val create : name:string -> unit -> t
(** Starts at 16 rows by 256 columns; rows and columns grow
    geometrically as subjects and objects are cached (columns are
    capped at an internal bound past which cells simply recompute).
    Counters are registered under ["cache.<name>.*"] with the same
    field names as {!Multics_cache.Avc}, so status surfaces need not
    care which mechanism serves them. *)

val note_change : t -> int -> unit
(** Revoke every cell derived from object [obj] (its generation
    moves).  The per-object generations are one dense array grown on
    the first bump past its end: one word per id up to the largest id
    ever bumped.  Raises [Invalid_argument] for a negative id. *)

val revoke_all : t -> unit
(** Revoke every cell (the global generation moves). *)

val subject_sid : t -> Policy.subject -> Sid.t
(** Intern (or recall, via the subject's memo stamp — two int
    compares) the subject's row. *)

val subject_count : t -> int

val find : t -> subj:Sid.t -> obj:int -> int
(** The hot lookup: the cell's access vector, or [-1] for a miss
    (empty, stale, or out of range).  Returns an int, not an option,
    so a hit allocates nothing.  Stale cells are marked empty and
    counted as an invalidation plus a miss. *)

val set : t -> subj:Sid.t -> obj:int -> int -> unit
(** Fill a cell, stamped with the current generations. *)

val flush : t -> unit
(** Empty every cell outright (storage, not just staleness). *)

val set_flush_probe : t -> (unit -> bool) option -> unit
(** The fault-injection probe ([cache.flush] storms), consulted on
    every lookup; when it fires the table is flushed first. *)

val size : t -> int
(** Fresh-cell population (a bounded scan, for status surfaces). *)

val counters : t -> (string * int) list
(** This table's own tallies (["hits"], ["misses"],
    ["invalidations"], ["insertions"], ["flushes"]), bumped only while
    obs is enabled — never another table's traffic under the same
    name. *)

val hit_ratio : t -> float
(** From this table's own tallies; 0 before any lookup. *)

val rebuild :
  t ->
  objects:
    ((obj:int -> label:Label.t -> acl:Acl.t -> brackets:Brackets.t -> unit) -> unit) ->
  int
(** Eagerly recompile every minted (subject, object) pair: [objects]
    is an iterator over the live objects' attributes.  Returns the
    number of cells filled.  Measurement and warm-up only — lazy
    refill under the stamps is already exact. *)
