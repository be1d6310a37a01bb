(* A revocation-correct decision cache — the associative memory of the
   6180, generalised.

   The 6180 the paper describes pays the full mediation cost (descriptor
   fetch, access computation) only on an associative-memory miss; on a
   hit the hardware replays a previously computed decision.  That
   substitution is only sound because Multics invalidates the
   associative memory the moment any input to the cached decision
   changes ("setfaults" on an attribute change) — revocation is
   immediate, never deferred to a timeout.

   This module simulates that discipline and nothing else.  A change
   clears the one direct-mapped slot that can hold the changed key's
   entry ([invalidate]), or the whole table ([flush]), in the same step
   as the mutation: a descriptor change, a connect, a page eviction, a
   salvage.  Entries carry no generation stamps, so a lookup is one
   slot load and one key compare, and what the table holds is exactly
   what would hit.  (The access-vector table, whose one ACL edit must
   revoke a whole column of cells at once, keeps its own stamps; see
   [Multics_access.Av_table].)

   The cache is deliberately generic: the same mechanism backs the
   per-process SDW associative memory, the per-CPU CAMs and the PTW
   lookasides.  Each instance reports hits/misses/invalidations through
   [lib/obs] under "cache.<name>.*" (shared by name) and in its own
   tallies, and may carry a fault-injection probe that models spurious
   full flushes (the [cache.flush] site): a flush storm may cost
   performance, never correctness. *)

module Obs = Multics_obs.Obs

type 'v entry = { key : int; value : 'v }

(* The five events, as indices into the registry counters and the
   instance's own tallies. *)
let fields = [| "hits"; "misses"; "invalidations"; "insertions"; "flushes" |]
let ev_hit = 0
let ev_miss = 1
let ev_invalidation = 2
let ev_insertion = 3
let ev_flush = 4

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
  slots : 'v entry option array;
  mutable population : int;
  mutable flush_probe : (unit -> bool) option;
  obs : Obs.Counter.t array;  (** "cache.<name>.<field>", shared by name *)
  tally : int array;  (** this instance's own readings, per field *)
}

let rec pow2_at_least n acc = if acc >= n then acc else pow2_at_least n (acc * 2)

let create ?(capacity = 256) ~name () =
  let capacity = pow2_at_least (max 1 capacity) 1 in
  {
    mask = capacity - 1;
    slots = Array.make capacity None;
    population = 0;
    flush_probe = None;
    obs =
      Array.map
        (fun field ->
          Obs.Registry.counter (Obs.Registry.global ()) (Printf.sprintf "cache.%s.%s" name field))
        fields;
    tally = Array.make (Array.length fields) 0;
  }

let size t = t.population
let set_flush_probe t probe = t.flush_probe <- probe

(* One branch when obs is off; when on, the shared counter and the
   instance's tally move together. *)
let note t ev =
  if Obs.enabled () then begin
    Obs.Counter.incr (Array.unsafe_get t.obs ev);
    Array.unsafe_set t.tally ev (Array.unsafe_get t.tally ev + 1)
  end

let flush t =
  Array.fill t.slots 0 (Array.length t.slots) None;
  t.population <- 0;
  note t ev_flush

(* A fault-injected flush models the hardware clearing its associative
   memory at an arbitrary moment (power event, diagnostic, paranoid
   kernel).  Probed on every lookup so a storm plan hits the cache as
   often as the schedule dictates. *)
let probe_fault t =
  match t.flush_probe with Some fires when fires () -> flush t | _ -> ()

let find t key =
  probe_fault t;
  match t.slots.(key land t.mask) with
  | Some e when e.key = key ->
      note t ev_hit;
      Some e.value
  | Some _ | None ->
      note t ev_miss;
      None

let add t key value =
  (* Direct-mapped, hardware-style: a collision displaces the resident
     entry rather than maintain LRU bookkeeping the 6180 never had.
     Displacement discards a decision; it can never resurrect one. *)
  if key < 0 then invalid_arg (Printf.sprintf "Avc.add: negative key %d" key);
  let i = key land t.mask in
  if Option.is_none t.slots.(i) then t.population <- t.population + 1;
  t.slots.(i) <- Some { key; value };
  note t ev_insertion

let entries t =
  Array.fold_left
    (fun acc slot -> match slot with Some e -> (e.key, e.value) :: acc | None -> acc)
    [] t.slots

let invalidate t key =
  let i = key land t.mask in
  match t.slots.(i) with
  | Some e when e.key = key ->
      t.slots.(i) <- None;
      t.population <- t.population - 1;
      note t ev_invalidation
  | Some _ | None -> ()

let counters t = Array.to_list (Array.mapi (fun ev field -> (field, t.tally.(ev))) fields)
