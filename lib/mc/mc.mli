(** Bounded exhaustive model checking of the reference monitor.

    Enumerates, breadth-first, every interleaving (to a depth bound)
    of a small action alphabet on a 2-CPU / 2-segment / 2-principal
    plant, executing each action through the real kernel paths
    ([Api.Call.dispatch], the [Smp] connect protocol, the [Salvager])
    and checking four safety predicates at every reachable state:

    - {b P1 no stale Permit} — no SDW-bearing cache front (per-process
      associative memory, per-CPU CAM) may grant a mode a fresh
      [Hierarchy.sdw_for] recomputation refuses;
    - {b P2 fail-secure} — granted content accesses survive a fresh
      recomputation at grant time, faulted gate calls return errors,
      and a salvage leaves zero descriptor disagreements and an empty
      crash journal (the E15 invariant);
    - {b P3 no downward flow} — E10-style taint accounting over the
      granted accesses: no object accumulates a taint its label does
      not dominate, no subject a taint above its clearance;
    - {b P4 AV parity} — the compiled access-vector verdict equals the
      structured [Policy.check] recomputation for every subject x
      object x mode.

    A state is its trace: [System.t] has no snapshot, so states are
    canonically re-executed from a fresh boot, every action pushed
    into the simulator's event queue at the same firing time
    ([Event_queue]'s tie-order stability makes replay a pure function
    of the trace).  The visited set keys on the full canonical string;
    frontier expansion fans out through [Par.map] and merges in task
    order, so outcomes are byte-identical at any [MULTICS_JOBS].

    Experiment E21 drives this; the shell's [mc run]/[mc replay]
    commands expose it on the operator console. *)

(** {1 The plant and its alphabet} *)

type principal = Alice | Bob
(** Alice: unclassified, runs on CPU 0, owns both segments.  Bob:
    secret, runs on CPU 1. *)

type seg = S0 | S1
(** [S0] is secret (Bob may read, Alice may blind-write), [S1]
    unclassified (Bob may not write).  Both live in Alice's home. *)

type action =
  | Read of principal * seg
  | Write of principal * seg
  | Acl_revoke  (** s0's ACL back to owner-only: the revoking edit *)
  | Acl_grant  (** s0's ACL widened to owner + Bob rw *)
  | Bracket_widen  (** s0's ring brackets (4,4,4) -> (4,5,5) *)
  | Bracket_restore  (** s0's ring brackets back to user_data *)
  | Faulted_create
      (** a [gate.abort=nth:1] plan armed around a [Create_segment]:
          the mutation lands, the call is torn down and journaled *)
  | Salvage
  | Deliver of int  (** bug mode only: drain one CPU's queued connects *)

val alphabet : bug:bool -> action list
(** 14 actions; [~bug:true] adds the two [Deliver] actions that only
    exist while the deferred-connect bug is enabled. *)

val action_to_string : action -> string
val action_of_string : string -> action option

val trace_to_string : action list -> string
(** Comma-separated action names — the wire form [mc replay] takes. *)

val trace_of_string : string -> action list option

(** {1 Canonical re-execution} *)

type violation = { predicate : string; detail : string }

val violation_to_string : violation -> string

val violations_of_trace : bug:bool -> action list -> string * violation list
(** Boot a fresh plant, replay the trace through the simulator's event
    queue, capture the canonical state string, then run the state
    predicates.  Returns [(canonical, violations)] with violations in
    the order found (per-action P2/P3 first, then the state walk). *)

val fingerprint : string -> string
(** Digest of a canonical state string, for display and tests.  The
    visited set itself keys on the full string — no collision can
    merge two distinct states. *)

val random_trace : seed:int -> length:int -> action list
(** A seeded trace over the full (bug) alphabet — the replay
    determinism regression's generator. *)

(** {1 Bounded exhaustive exploration} *)

type counterexample = { trace : action list; violation : violation }

type depth_row = {
  row_depth : int;
  row_new_states : int;  (** states first reached at this depth *)
  row_states : int;  (** cumulative distinct states *)
  row_expansions : int;  (** replays executed at this depth *)
}

type outcome = {
  o_depth : int;
  o_bug : bool;
  o_states : int;
  o_expansions : int;
  o_rows : depth_row list;
  o_counterexamples : counterexample list;
      (** at most one per predicate — the first (therefore shortest)
          trace found, BFS order *)
}

val explore : ?jobs:int -> ?bug:bool -> depth:int -> unit -> outcome
(** Exhaustive breadth-first exploration to [depth].  [jobs] sizes the
    [Par.map] pool for frontier expansion (default [MULTICS_JOBS]);
    the outcome is identical at any pool size.  [bug] (default false)
    re-enables the pre-PR 5 deferred-connect stale-Permit window and
    extends the alphabet with [Deliver]. *)

val fixpoint : outcome -> int option
(** The depth whose row added no new state, when the search reached
    one before its bound: every reachable state was visited. *)

val summary : outcome -> string
(** The states/depth/expansions table plus any counterexamples —
    deterministic (no wall-clock), so pool-size parity can compare
    summaries byte for byte.  Its closing line reads [complete:
    fixpoint at depth K, N reachable states] when {!fixpoint} is
    [Some K], else [exhaustive to depth D: N distinct states]. *)

val counterexample_script : counterexample -> string
(** The counterexample as a replayable shell script driving the
    operator console's [mc replay]. *)
