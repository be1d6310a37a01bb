(** The multiprocessor plant: N simulated CPUs, each with its own SDW
    associative memory and PTW lookaside front, a shared global lock
    with a deterministic cycle-accounted contention model, and the
    connect (inter-processor interrupt) protocol that keeps every
    CPU's cached descriptors coherent with the live ones.

    The design contract, matching the paper's multiprocessor 6180:

    - coherence is synchronous — a descriptor mutation does not return
      until every CPU's associative memories have been invalidated;
    - a lost connect ([smp.lost_connect] fault site) is detected by
      acknowledgement timeout and fails secure: the sender stalls and
      re-signals (then fences the target through the system controller
      after repeated losses) — cycles are lost, a stale Permit never;
    - everything here is timing, not results: an N-CPU run produces
      the same mediation verdicts and audit digest as the 1-CPU run
      (experiment E18's coherence-parity oracle). *)

open Multics_machine

val max_cpus : int

val default_ncpus : unit -> int
(** [MULTICS_NCPU] from the environment when it parses as 1..{!max_cpus};
    1 otherwise. *)

(** The shared global lock: deterministic contention.  The lock
    remembers when it next falls free; an acquirer waits out the
    remainder, then holds it.  Obs instruments live under
    ["<name>.acquisitions"/".contended"/".wait"]. *)
module Lock : sig
  type t

  val create : name:string -> t
  val name : t -> string
  val free_at : t -> int

  val acquire : t -> now:int -> hold:int -> int
  (** Acquire at simulated time [now], holding for [hold] cycles;
      returns the wait in cycles, for the caller to charge to whoever
      was acquiring. *)
end

(** The delivery discipline shared by the per-CPU connect broadcast
    and the inter-site fleet ({!Multics_site.Site}): signal, wait for
    the acknowledgement, retry on loss, and past the retry budget hand
    the target to an escalation path (the system controller here;
    fencing in the fleet).  Every branch either confirms the target
    cleared or escalates — no exit leaves the target possibly stale. *)
module Connect : sig
  type outcome =
    | Delivered of { attempts : int; cycles : int }
    | Escalated of { attempts : int; cycles : int }

  val cycles_of : outcome -> int

  val deliver :
    max_retries:int ->
    attempt:(int -> [ `Acked of int | `Lost of int ]) ->
    escalate:(unit -> int) ->
    outcome
  (** [attempt n] makes the nth signalling attempt, reporting
      [`Acked cycles] (target confirmed cleared; cost includes the
      acknowledgement) or [`Lost cycles] (no acknowledgement within
      the timeout; cost includes the wasted wait).  After
      [max_retries] losses, [escalate ()] must resolve the target by
      other means and return its cycle cost. *)
end

val ack_timeout : Cost.t -> int
(** How long a sender waits for a connect acknowledgement before
    declaring the connect lost: a few IPI round trips. *)

val max_retries : int
(** Losses tolerated on one target before the escalation path runs. *)

type t

val create : ?ncpus:int -> cost:Cost.t -> unit -> t
(** [ncpus] defaults to {!default_ncpus}[ ()]; raises
    [Invalid_argument] outside 1..{!max_cpus}.  Obs instruments: ["smp.connects.sent"/".lost"/".retries"/
    ".rescues"], the ["smp.connect.cycles"] histogram, ["smp.lock.*"]
    and the ["cache.smp.assoc.*"]/["cache.smp.ptw.*"] families. *)

val ncpus : t -> int
val cost : t -> Cost.t
val lock : t -> Lock.t

val set_now : t -> (unit -> int) -> unit
(** Supply the simulated clock (e.g. [fun () -> Sim.now sim]); the
    plant never reads a wall clock. *)

val set_faults : t -> Multics_fault.Fault.Injector.t option -> unit
(** The only site consulted is [Smp_lost_connect]. *)

val set_charge : t -> (int -> unit) -> unit
(** Where connect/lock cycle bills go (e.g. [Sim.perturb] against the
    calling process).  Default: dropped (obs still records them). *)

val set_current : t -> int -> unit
(** Which CPU the currently running work executes on; raises
    [Invalid_argument] for an unknown CPU. *)

val current : t -> int

val cpu_for : t -> key:int -> int
(** Deterministic home CPU for an integer key (a pid, a handle). *)

(** {1 The connect protocol}

    Both calls return only after every CPU has been cleared. *)

val connect_invalidate : t -> handle:int -> segno:int -> unit
(** "setfaults" for one process's descriptor: drop its entry on every
    CPU (the originator inline, the rest via connects). *)

val connect_flush_all : t -> unit
(** Whole-system revocation (salvage, cache clear): flush every CPU's
    CAM and PTW front. *)

(** {1 The deferred-connect bug mode}

    The pre-PR 5 stale-Permit window, re-enableable under a switch so
    the model checker's seeded-bug leg can demonstrate finding the
    counterexample trace.  While enabled, [connect_invalidate] /
    [connect_flush_all] clear the originating CPU inline but only
    queue the remote clears; a remote CPU's associative memory stays
    possibly-stale until [deliver_connects] drains its queue.  Never
    enable outside the checker. *)

val set_deferred_connects : t -> bool -> unit
(** Turning the mode {e off} first delivers everything still queued,
    restoring coherence. *)

val deliver_connects : t -> cpu:int -> int
(** Deliver every queued connect addressed to [cpu], in arrival
    order; returns how many were delivered. *)

val pending_connects : t -> (int * string) list
(** The queued [(target cpu, tag)] pairs in arrival order — part of
    the checker's canonical state. *)

(** {1 Read-only cache enumeration}

    For the checker's invariant walk: what would currently hit, with
    no counter movement. *)

val cam_entries : t -> cpu:int -> ((int * int) * Sdw.t) list
(** Entries of that CPU's SDW associative memory, keyed by their
    exact [(handle, segno)] pair. *)

val ptw_keys : t -> cpu:int -> int list
(** Page-SID keys of that CPU's PTW lookaside front. *)

(** {1 Per-CPU mediation fronts} *)

val check_sdw :
  t ->
  handle:int ->
  segno:int ->
  assoc:Hardware.Assoc.t ->
  fetch:(unit -> Sdw.t option) ->
  ring:Ring.t ->
  operation:Hardware.operation ->
  Hardware.decision option
(** The current CPU's CAM in front of the per-process associative
    memory and the KST fetch.  Brackets and mode are still checked per
    reference; only the descriptor fetch is skipped on a hit.  CAM
    entries are keyed by the exact [(handle, segno)] pair, so no two
    descriptors — of two processes, or two segnos of one — can ever be
    confused.  A pair outside [0 <= handle < 2^30], [0 <= segno < 2^32]
    never touches the CAM: it goes straight to [assoc] and [fetch]. *)

val ptw_touch : t -> page:Multics_access.Sid.t -> bool
(** Touch the current CPU's PTW front for a dense page SID (from
    {!Multics_vm.Page_control.page_sid}); [false] (miss) means this
    CPU must walk the page table — callers charge [Cost.ptw_fetch]. *)

val ptw_invalidate : t -> page:Multics_access.Sid.t -> unit
(** Setfaults for one page: clear its entry from every CPU's PTW
    front.  Page control's eviction hook
    ({!Multics_vm.Page_control.set_on_evict}) calls it in the same
    step the page leaves core.  Charges no cycles. *)

(** {1 Dispatcher lock} *)

val dispatch_lock : t -> now:int -> int
(** Acquire the global lock for one run-selection from the shared
    ready structure; returns the wait to charge to the dispatched
    process. *)

(** {1 Status} *)

val cpu_status : t -> int -> (string * int) list

val status : t -> (string * int) list * (int * (string * int) list) list
(** [(plant-wide readings, per-CPU readings)] — the [smp status]
    shell command's payload. *)
