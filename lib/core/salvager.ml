(* The salvager.

   The paper's certification argument assumes the kernel can be
   restarted into a consistent state after any crash: "the answer is
   provided by the salvager", which walks the storage hierarchy and
   repairs what a crash tore mid-flight.  Here the crash evidence is
   the {!System} crash journal (written when an injected gate abort
   kills an operation after its hierarchy mutation) plus whatever
   inconsistency a randomized fault plan managed to create.

   The salvage pass is fail-secure by construction: every repair
   either removes state (a partially-created branch, a dangling KST
   entry) or re-derives a descriptor from the authoritative ACL x
   label x brackets record — it never invents a grant.  Invariant 2 of
   experiment E15 checks exactly this: after salvage, every surviving
   segment's installed SDW equals the one the reference monitor would
   compute fresh. *)

open Multics_fs
module Obs = Multics_obs.Obs

let obs_runs = Obs.Local.counter "salvage.runs"
let obs_rolled_back = Obs.Local.counter "salvage.rolled_back"
let obs_dangling = Obs.Local.counter "salvage.dangling_dropped"
let obs_repaired = Obs.Local.counter "salvage.descriptors_repaired"
type report = {
  journal_entries : int;  (** crash-journal entries consumed *)
  rolled_back : int;  (** partially-created branches removed *)
  dangling_dropped : int;  (** KST entries for vanished objects *)
  descriptors_repaired : int;  (** installed SDWs that disagreed with policy *)
  quota_ok : bool;  (** hierarchy quota invariant after salvage *)
}

let render r =
  Printf.sprintf
    "salvage: journal=%d rolled_back=%d dangling=%d descriptors_repaired=%d quota=%s"
    r.journal_entries r.rolled_back r.dangling_dropped r.descriptors_repaired
    (if r.quota_ok then "ok" else "VIOLATED")

(* Phase 1: undo partially-created branches recorded in the crash
   journal.  The caller never saw a success, so the entry must not
   survive; deleting the subtree also releases its pages and quota. *)
let roll_back_journal system =
  let hierarchy = System.hierarchy system in
  List.fold_left
    (fun rolled (entry : System.journal_entry) ->
      match (entry.System.dir, entry.System.entry_name) with
      | Some dir, Some name ->
          if Hierarchy.raw_lookup hierarchy ~dir ~name <> None
             && Hierarchy.raw_delete_subtree hierarchy ~dir ~name
          then rolled + 1
          else rolled
      | _, _ -> rolled)
    0 (System.crash_journal system)

(* Fold [f] over every segment number in every live process's KST,
   in handle order, then segment-number order. *)
let fold_known_segnos system f init =
  List.fold_left
    (fun acc handle ->
      match System.proc system handle with
      | None -> acc
      | Some p -> List.fold_left (fun acc segno -> f acc p segno) acc (Kst.known_segnos p.System.kst))
    init (System.handles system)

(* Phase 2: drop KST entries whose object no longer exists (deleted by
   a rollback, or orphaned by the crash itself).  A dangling segment
   number must not stay addressable. *)
let drop_dangling system =
  let hierarchy = System.hierarchy system in
  fold_known_segnos system
    (fun dropped p segno ->
      match Kst.uid_of_segno p.System.kst segno with
      | Ok uid when not (Hierarchy.uid_exists hierarchy uid) -> (
          match Kst.terminate p.System.kst segno with Ok () -> dropped + 1 | Error _ -> dropped)
      | Ok _ | Error _ -> dropped)
    0

(* How an installed descriptor compares with the one the reference
   monitor computes fresh from ACL x label x brackets.  A segment with
   no descriptor installed has nothing to disagree with. *)
type descriptor = Agrees | Stale of Multics_machine.Sdw.t | Unauthorized

let check_descriptor system p segno =
  match (Kst.sdw_of p.System.kst segno, Kst.uid_of_segno p.System.kst segno) with
  | Some installed, Ok uid -> (
      match Hierarchy.sdw_for (System.hierarchy system) ~subject:(System.subject_of p) ~uid with
      | Some fresh when Multics_machine.Sdw.equal installed fresh -> Agrees
      | Some fresh -> Stale fresh
      | None -> Unauthorized)
  | _, _ -> Agrees

let descriptor_disagreements system =
  fold_known_segnos system
    (fun bad p segno ->
      match check_descriptor system p segno with Agrees -> bad | Stale _ | Unauthorized -> bad + 1)
    0

(* Phase 3: recompute every installed descriptor from the reference
   monitor and repair disagreements.  This is "setfaults" applied
   system-wide — the crash may have interrupted an attribute change
   between the hierarchy update and the descriptor recomputation. *)
let repair_descriptors system =
  fold_known_segnos system
    (fun repaired p segno ->
      match check_descriptor system p segno with
      | Agrees -> repaired
      | Stale fresh ->
          ignore (Kst.set_sdw p.System.kst segno fresh);
          repaired + 1
      | Unauthorized -> (
          (* The monitor would install nothing: revoke. *)
          match Kst.terminate p.System.kst segno with
          | Ok () -> repaired + 1
          | Error _ -> repaired))
    0

let run system =
  let journal_entries = List.length (System.crash_journal system) in
  let rolled_back = roll_back_journal system in
  let dangling_dropped = drop_dangling system in
  let descriptors_repaired = repair_descriptors system in
  (* A repair is a revocation (rolled-back entries vanish, re-derived
     descriptors may carry less access), and revocations must reach
     every cached decision immediately: kill the policy-verdict cache
     and the associative memories wholesale.  Repair paths that went
     through Kst.set_sdw / terminate already invalidated their own
     entries; this closes the book on everything else (e.g. objects
     the rollback deleted behind a cached Permit). *)
  System.invalidate_caches system;
  let quota_ok = Hierarchy.check_quota_invariant (System.hierarchy system) in
  System.clear_crash_journal system;
  let report = { journal_entries; rolled_back; dangling_dropped; descriptors_repaired; quota_ok } in
  Obs.Counter.incr (obs_runs ());
  Obs.Counter.incr ~by:rolled_back (obs_rolled_back ());
  Obs.Counter.incr ~by:dangling_dropped (obs_dangling ());
  Obs.Counter.incr ~by:descriptors_repaired (obs_repaired ());
  Audit_log.log (System.audit system) ~subject:System.initializer_subject ~operation:"salvage"
    ~target:(render report) ~verdict:Audit_log.Granted;
  report
