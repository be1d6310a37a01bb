(* A revocation-correct decision cache — the associative memory of the
   6180, generalised.

   The 6180 the paper describes pays the full mediation cost (descriptor
   fetch, access computation) only on an associative-memory miss; on a
   hit the hardware replays a previously computed decision.  That
   substitution is only sound because Multics invalidates the
   associative memory the moment any input to the cached decision
   changes ("setfaults" on an attribute change) — revocation is
   immediate, never deferred to a timeout.

   This module simulates that discipline two ways.  A descriptor change
   clears the one direct-mapped slot that can hold its entry
   ([invalidate]), which is setfaults exactly.  A mutation whose effect
   reaches several caches at once bumps a generation counter instead:
   every cached entry is stamped with the counters current at insertion
   (one global, one per object), and a lookup whose stamps no longer
   match the live counters is treated as a miss and dropped.  A stale
   Permit therefore cannot outlive the authority that granted it: the
   entry dies in the same step as the ACL edit, label change, deletion,
   branch move, eviction or salvager repair that revoked it.

   The cache is deliberately generic: the same mechanism backs the
   per-process SDW associative memory, the per-CPU CAMs and the PTW
   lookaside in page control.  Each instance reports
   hits/misses/invalidations through [lib/obs] under "cache.<name>.*",
   and may carry a fault-injection probe that models spurious full
   flushes (the [cache.flush] site): a flush storm may cost
   performance, never correctness. *)

module Obs = Multics_obs.Obs

module Gen = struct
  (* [of_object] sits on the hit path of every cache lookup, so the
     per-object counters are one dense array indexed by the object id
     (uids, page SIDs).  It starts empty and grows geometrically on the
     first bump past its end; an id it does not cover was never bumped,
     hence generation 0.  A cache that never bumps an object allocates
     nothing here. *)
  type t = { mutable global : int; mutable dense : int array }

  let create () = { global = 0; dense = [||] }
  let global t = t.global

  let negative obj = invalid_arg (Printf.sprintf "Avc.Gen: negative object id %d" obj)

  let of_object t obj =
    if obj < Array.length t.dense then
      if obj >= 0 then Array.unsafe_get t.dense obj else negative obj
    else 0

  let bump_global t = t.global <- t.global + 1

  let bump_object t obj =
    if obj < 0 then negative obj;
    if obj >= Array.length t.dense then begin
      let grown = Array.make (max (obj + 1) (max 16 (2 * Array.length t.dense))) 0 in
      Array.blit t.dense 0 grown 0 (Array.length t.dense);
      t.dense <- grown
    end;
    t.dense.(obj) <- t.dense.(obj) + 1
end

type 'v entry = { key : int; value : 'v; g_global : int; g_obj : int }

(* The table is a direct-mapped slot array indexed by the key's low
   bits, like the set-associative memories it simulates.  Every key in
   the system is a small dense int (a segno, a page SID) or an exact
   composite of two (a per-CPU CAM's process handle above its segno),
   so the low bits spread them with no hashing at all: one array
   probe and one int compare decide a hit, which keeps it well under
   the recomputation cost — the entire point of the mechanism.

   Direct mapping also settles the replacement question the hardware
   way: a new decision whose slot is occupied by a different key
   simply displaces it.  Displacement only ever discards a cached
   decision, so it is always sound. *)
type 'v t = {
  mask : int;  (** slot count - 1; the slot count is a power of two *)
  gens : Gen.t;
  slots : 'v entry option array;
  mutable population : int;
  mutable flush_probe : (unit -> bool) option;
  hits : Obs.Counter.t;
  misses : Obs.Counter.t;
  invalidations : Obs.Counter.t;
  insertions : Obs.Counter.t;
  flushes : Obs.Counter.t;
}

let counter name field =
  Obs.Registry.counter (Obs.Registry.global ()) (Printf.sprintf "cache.%s.%s" name field)

let rec pow2_at_least n acc = if acc >= n then acc else pow2_at_least n (acc * 2)

let create ?(capacity = 256) ?gens ~name () =
  let gens = match gens with Some g -> g | None -> Gen.create () in
  let capacity = pow2_at_least (max 1 capacity) 1 in
  {
    mask = capacity - 1;
    gens;
    slots = Array.make capacity None;
    population = 0;
    flush_probe = None;
    hits = counter name "hits";
    misses = counter name "misses";
    invalidations = counter name "invalidations";
    insertions = counter name "insertions";
    flushes = counter name "flushes";
  }

let gens t = t.gens
let size t = t.population
let set_flush_probe t probe = t.flush_probe <- probe

let incr c = if Obs.enabled () then Obs.Counter.incr c

let flush t =
  Array.fill t.slots 0 (Array.length t.slots) None;
  t.population <- 0;
  incr t.flushes

(* A fault-injected flush models the hardware clearing its associative
   memory at an arbitrary moment (power event, diagnostic, paranoid
   kernel).  Probed on every lookup so a storm plan hits the cache as
   often as the schedule dictates. *)
let probe_fault t =
  match t.flush_probe with Some fires when fires () -> flush t | _ -> ()

let fresh t e = e.g_global = Gen.global t.gens && e.g_obj = Gen.of_object t.gens e.key

let drop t i =
  t.slots.(i) <- None;
  t.population <- t.population - 1;
  incr t.invalidations

let find t key =
  probe_fault t;
  let i = key land t.mask in
  match t.slots.(i) with
  | Some e when e.key = key ->
      if fresh t e then begin
        incr t.hits;
        Some e.value
      end
      else begin
        drop t i;
        incr t.misses;
        None
      end
  | Some _ | None ->
      incr t.misses;
      None

let add t key value =
  (* Direct-mapped, hardware-style: a collision displaces the resident
     entry rather than maintain LRU bookkeeping the 6180 never had.
     Displacement discards a decision; it can never resurrect one. *)
  let g_obj = Gen.of_object t.gens key in
  let i = key land t.mask in
  if Option.is_none t.slots.(i) then t.population <- t.population + 1;
  t.slots.(i) <- Some { key; value; g_global = Gen.global t.gens; g_obj };
  incr t.insertions

let entries t =
  Array.fold_left
    (fun acc slot ->
      match slot with
      | Some e when fresh t e -> (e.key, e.value) :: acc
      | Some _ | None -> acc)
    [] t.slots

let invalidate t key =
  let i = key land t.mask in
  match t.slots.(i) with Some e when e.key = key -> drop t i | Some _ | None -> ()

let invalidate_object t obj = Gen.bump_object t.gens obj

let counters t =
  [
    ("hits", Obs.Counter.get t.hits);
    ("misses", Obs.Counter.get t.misses);
    ("invalidations", Obs.Counter.get t.invalidations);
    ("insertions", Obs.Counter.get t.insertions);
    ("flushes", Obs.Counter.get t.flushes);
  ]
