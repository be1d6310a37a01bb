(* The access-decision cache (AVC): unit tests and a model-based
   property for the generic associative memory, revocation coverage
   for every mutating entry point of the hierarchy, the salvager's
   cache invalidation, per-kernel cache status, and the 100-seed
   parity property — the cached mediation path must agree with fresh
   recomputation at every step, including under flush storms. *)

open Multics_access
open Multics_machine
open Multics_kernel
module Avc = Multics_cache.Avc
module Hierarchy = Multics_fs.Hierarchy
module Uid = Multics_fs.Uid
module Obs = Multics_obs.Obs

(* Each instance keeps its own tallies; the registry counters behind
   them are shared per cache [name], so every test still uses its own
   name. *)
let counter_of t field = List.assoc field (Avc.counters t)

let test_avc_basics () =
  Obs.set_enabled true;
  let c = Avc.create ~capacity:8 ~name:"t.basics" () in
  Alcotest.(check (option int)) "miss before add" None (Avc.find c 1);
  Avc.add c 1 10;
  Alcotest.(check (option int)) "hit after add" (Some 10) (Avc.find c 1);
  Alcotest.(check int) "size" 1 (Avc.size c);
  Alcotest.(check int) "one hit" 1 (counter_of c "hits");
  Alcotest.(check int) "one miss" 1 (counter_of c "misses")

(* Setfaults drops exactly the key's own entry: not the other key that
   shares its slot, not a neighbour, and nothing when the slot holds
   another key. *)
let test_avc_invalidate_key () =
  Obs.set_enabled true;
  let c = Avc.create ~capacity:8 ~name:"t.inv_key" () in
  Avc.add c 1 10;
  Avc.add c 2 20;
  Avc.invalidate c 1;
  Alcotest.(check (option int)) "dropped at once" None (Avc.find c 1);
  Alcotest.(check (option int)) "neighbour survives" (Some 20) (Avc.find c 2);
  Alcotest.(check int) "one invalidation" 1 (counter_of c "invalidations");
  Alcotest.(check int) "population" 1 (Avc.size c);
  Avc.invalidate c 10;
  Alcotest.(check (option int)) "slot-sharing key's entry survives" (Some 20) (Avc.find c 2);
  Alcotest.(check int) "nothing dropped" 1 (counter_of c "invalidations");
  Alcotest.(check int) "population unchanged" 1 (Avc.size c);
  Alcotest.check_raises "negative key refused"
    (Invalid_argument "Avc.add: negative key -3") (fun () -> Avc.add c (-3) 0)

let test_avc_flush_probe () =
  Obs.set_enabled true;
  let c = Avc.create ~capacity:8 ~name:"t.probe" () in
  Avc.add c 1 10;
  let armed = ref false in
  Avc.set_flush_probe c (Some (fun () -> !armed));
  Alcotest.(check (option int)) "probe quiet: hit" (Some 10) (Avc.find c 1);
  armed := true;
  Alcotest.(check (option int)) "probe fires: flushed before lookup" None (Avc.find c 1);
  Alcotest.(check int) "flush counted" 1 (counter_of c "flushes");
  Alcotest.(check int) "emptied" 0 (Avc.size c)

let test_avc_direct_mapped_displacement () =
  Obs.set_enabled true;
  (* Keys 1 and 5 share a slot of a 4-slot table: displacement must
     evict the resident entry, and the key compare must keep a
     collision from ever being served as a hit. *)
  let c = Avc.create ~capacity:4 ~name:"t.collide" () in
  Avc.add c 1 10;
  Avc.add c 5 50;
  Alcotest.(check (option int)) "displaced entry is a miss" None (Avc.find c 1);
  Alcotest.(check (option int)) "resident entry hits" (Some 50) (Avc.find c 5);
  Alcotest.(check int) "population stays 1" 1 (Avc.size c)

let test_avc_capacity_rounding () =
  (* 10 slots round up to 16: keys 0 and 10 both fit, 0 and 16 share
     a slot. *)
  let c = Avc.create ~capacity:10 ~name:"t.cap" () in
  Avc.add c 0 1;
  Avc.add c 10 2;
  Alcotest.(check int) "0 and 10 coexist" 2 (Avc.size c);
  Avc.add c 16 3;
  Alcotest.(check (option int)) "16 displaced 0" None (Avc.find c 0);
  Alcotest.(check int) "rounded to power of two" 2 (Avc.size c)

(* ----- The slot cache against a reference model -----

   Random add/find/invalidate/flush sequences, with flush-probe
   firings, against a plain slot map: an array of (key, value) options
   indexed by the key's low bits.  Every find must answer as the model
   does, the population must be the number of entries, the entries
   must be the model's, and the instance's tallies must equal the
   model's event counts. *)

type avc_op = Add of int * int | Find of int | Invalidate of int | Flush | Arm_probe

let avc_op_to_string = function
  | Add (k, v) -> Printf.sprintf "add %d %d" k v
  | Find k -> Printf.sprintf "find %d" k
  | Invalidate k -> Printf.sprintf "invalidate %d" k
  | Flush -> "flush"
  | Arm_probe -> "arm"

let avc_model_agrees (capacity, ops) =
  Obs.set_enabled true;
  let c = Avc.create ~capacity ~name:"t.model" () in
  let armed = ref false in
  Avc.set_flush_probe c
    (Some
       (fun () ->
         let fire = !armed in
         armed := false;
         fire));
  let rec pow2 n = if n >= capacity then n else pow2 (2 * n) in
  let slots = Array.make (pow2 1) None in
  let slot k = k land (Array.length slots - 1) in
  let tally = Hashtbl.create 5 in
  let bump field = Hashtbl.replace tally field (1 + Option.value ~default:0 (Hashtbl.find_opt tally field)) in
  let model_flush () =
    Array.fill slots 0 (Array.length slots) None;
    bump "flushes"
  in
  let step op =
    let ok =
      match op with
      | Add (k, v) ->
          Avc.add c k v;
          slots.(slot k) <- Some (k, v);
          bump "insertions";
          true
      | Find k ->
          if !armed then model_flush ();
          let expected =
            match slots.(slot k) with Some (k', v) when k' = k -> Some v | Some _ | None -> None
          in
          bump (if Option.is_some expected then "hits" else "misses");
          Avc.find c k = expected
      | Invalidate k ->
          Avc.invalidate c k;
          (match slots.(slot k) with
          | Some (k', _) when k' = k ->
              slots.(slot k) <- None;
              bump "invalidations"
          | Some _ | None -> ());
          true
      | Flush ->
          Avc.flush c;
          model_flush ();
          true
      | Arm_probe ->
          armed := true;
          true
    in
    let model_entries = List.sort compare (List.filter_map Fun.id (Array.to_list slots)) in
    let entries = List.sort compare (Avc.entries c) in
    let tallies_agree =
      List.for_all
        (fun (field, n) -> n = Option.value ~default:0 (Hashtbl.find_opt tally field))
        (Avc.counters c)
    in
    ok && entries = model_entries && Avc.size c = List.length entries && tallies_agree
    || QCheck.Test.fail_reportf "diverged at %s" (avc_op_to_string op)
  in
  List.for_all step ops

let avc_op_gen =
  QCheck.Gen.(
    let key = int_range 0 19 in
    frequency
      [
        (4, map2 (fun k v -> Add (k, v)) key small_nat);
        (5, map (fun k -> Find k) key);
        (3, map (fun k -> Invalidate k) key);
        (1, return Flush);
        (1, return Arm_probe);
      ])

let test_avc_model =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"avc: matches a slot-map model"
       (QCheck.make
          ~print:(fun (capacity, ops) ->
            Printf.sprintf "capacity %d: %s" capacity
              (String.concat "; " (List.map avc_op_to_string ops)))
          QCheck.Gen.(pair (int_range 1 9) (list_size (int_range 0 80) avc_op_gen)))
       avc_model_agrees)

(* ----- Generation counters (the access-vector table's) ----- *)

let gen_subject =
  Policy.subject
    ~principal:(Principal.make ~person:"Gen" ~project:"Test" ~tag:"a")
    ~clearance:Label.unclassified ~ring:(Ring.of_int 4) ()

let test_gen_dense_ids () =
  (* Object ids index one dense array of generations, grown on the
     first bump past its end; an id it does not cover was never
     bumped, so its cells stay live.  Negative ids are refused. *)
  let t = Av_table.create ~name:"t.gen" () in
  let subj = Av_table.subject_sid t gen_subject in
  let fill obj = Av_table.set t ~subj ~obj 7 in
  let find obj = Av_table.find t ~subj ~obj in
  fill 3;
  fill 4;
  Av_table.note_change t 3;
  Av_table.note_change t 3;
  Alcotest.(check int) "bumped id's cell revoked" (-1) (find 3);
  Alcotest.(check int) "unbumped id's cell live" 7 (find 4);
  fill 3;
  fill 5_000;
  Alcotest.(check int) "cell beyond the array live" 7 (find 5_000);
  Av_table.note_change t 5_000;
  Alcotest.(check int) "grown id's cell revoked" (-1) (find 5_000);
  Alcotest.(check int) "growth kept earlier bumps" 7 (find 3);
  Alcotest.(check int) "growth left unbumped ids alone" 7 (find 4);
  Alcotest.check_raises "negative bump refused"
    (Invalid_argument "Av_table: negative object id -7") (fun () -> Av_table.note_change t (-7));
  Av_table.revoke_all t;
  Alcotest.(check (pair int int)) "revoke_all stales every cell" (-1, -1) (find 3, find 4);
  fill 3;
  Alcotest.(check int) "refilled after revoke_all" 7 (find 3)

(* Two tables (or slot caches) under one name share registry counters,
   but each reports only its own traffic, and nothing moves while obs
   is off. *)
let test_tallies_per_instance () =
  Obs.set_enabled true;
  let a = Av_table.create ~name:"t.twin" () and b = Av_table.create ~name:"t.twin" () in
  let subj = Av_table.subject_sid a gen_subject in
  Av_table.set a ~subj ~obj:1 7;
  ignore (Av_table.find a ~subj ~obj:1);
  ignore (Av_table.find a ~subj ~obj:2);
  let zeros = List.map (fun (field, _) -> (field, 0)) (Av_table.counters b) in
  Alcotest.(check (list (pair string int))) "table a"
    [ ("hits", 1); ("misses", 1); ("invalidations", 0); ("insertions", 1); ("flushes", 0) ]
    (Av_table.counters a);
  Alcotest.(check (list (pair string int))) "table b reads 0" zeros (Av_table.counters b);
  Alcotest.(check (float 1e-9)) "hit ratio from a's own tallies" 0.5 (Av_table.hit_ratio a);
  let c = Avc.create ~capacity:4 ~name:"t.twin" () and d = Avc.create ~capacity:4 ~name:"t.twin" () in
  Avc.add c 1 1;
  ignore (Avc.find c 1);
  Alcotest.(check (list (pair string int))) "cache d reads 0" zeros (Avc.counters d);
  Obs.with_disabled (fun () ->
      Avc.add d 1 1;
      ignore (Avc.find d 1);
      Avc.flush d;
      Av_table.set b ~subj:(Av_table.subject_sid b gen_subject) ~obj:1 7;
      ignore (Av_table.find b ~subj ~obj:1));
  Alcotest.(check (list (pair string int))) "obs off: cache d still 0" zeros (Avc.counters d);
  Alcotest.(check (list (pair string int))) "obs off: table b still 0" zeros (Av_table.counters b)

(* ----- Revocation through every mutating entry point ----- *)

let operator =
  Policy.subject ~trusted:true
    ~principal:(Principal.make ~person:"Initializer" ~project:"SysDaemon" ~tag:"z")
    ~clearance:(Label.system_high []) ~ring:(Ring.of_int 1) ()

let alice =
  Policy.subject
    ~principal:(Principal.make ~person:"Alice" ~project:"Dev" ~tag:"a")
    ~clearance:Label.unclassified ~ring:(Ring.of_int 4) ()

let fs_ok what = function
  | Ok v -> v
  | Error e -> Alcotest.fail (what ^ ": " ^ Hierarchy.error_to_string e)

let permissive_acl = Acl.of_strings [ ("*.*.*", "rw"); ("Initializer.*.*", "rew") ]

let make_segment h name =
  fs_ok ("create " ^ name)
    (Hierarchy.create_segment h ~subject:operator ~dir:Uid.root ~name ~acl:permissive_acl
       ~label:Label.unclassified)

let verdict = Alcotest.testable Policy.pp_verdict ( = )

let check_both h ~subject ~uid ~requested =
  let fresh = Hierarchy.check_access_fresh h ~subject ~uid ~requested in
  let cached = Hierarchy.check_access h ~subject ~uid ~requested in
  Alcotest.(check (option verdict)) "cached = fresh" fresh cached;
  cached

let test_set_acl_revokes () =
  let h = Hierarchy.create () in
  let uid = make_segment h "s" in
  (match check_both h ~subject:alice ~uid ~requested:Mode.rw with
  | Some Policy.Permit -> ()
  | _ -> Alcotest.fail "expected initial permit");
  fs_ok "set_acl"
    (Hierarchy.set_acl h ~subject:operator ~uid ~acl:(Acl.of_strings [ ("Initializer.*.*", "rew") ]));
  match check_both h ~subject:alice ~uid ~requested:Mode.rw with
  | Some (Policy.Refuse _) -> ()
  | _ -> Alcotest.fail "ACL edit did not revoke the cached grant"

let test_raw_set_label_revokes () =
  let h = Hierarchy.create () in
  let uid = make_segment h "s" in
  ignore (check_both h ~subject:alice ~uid ~requested:Mode.r);
  Alcotest.(check bool) "raw_set_label applies" true
    (Hierarchy.raw_set_label h ~uid ~label:(Label.make Label.Top_secret [ "crypto" ]));
  match check_both h ~subject:alice ~uid ~requested:Mode.r with
  | Some (Policy.Refuse _) -> ()
  | _ -> Alcotest.fail "label change did not revoke the cached grant"

let test_delete_revokes () =
  let h = Hierarchy.create () in
  let uid = make_segment h "s" in
  ignore (check_both h ~subject:alice ~uid ~requested:Mode.r);
  ignore (fs_ok "delete" (Hierarchy.delete_entry h ~subject:operator ~dir:Uid.root ~name:"s"));
  Alcotest.(check (option verdict)) "deleted object unanswerable" None
    (Hierarchy.check_access h ~subject:alice ~uid ~requested:Mode.r)

let test_set_brackets_applies_on_cached_path () =
  (* Ring brackets are recomputed on every reference (as on the 6180),
     so a bracket edit takes effect even while the policy verdict is
     served from the cache. *)
  let h = Hierarchy.create () in
  let uid = make_segment h "s" in
  (match check_both h ~subject:alice ~uid ~requested:Mode.r with
  | Some Policy.Permit -> ()
  | _ -> Alcotest.fail "expected initial permit");
  fs_ok "set_brackets"
    (Hierarchy.set_brackets h ~subject:operator ~uid ~brackets:(Brackets.make ~r1:1 ~r2:1 ~r3:1));
  match check_both h ~subject:alice ~uid ~requested:Mode.r with
  | Some (Policy.Refuse refusals) ->
      Alcotest.(check bool) "refused by the ring check" true
        (List.exists (function Policy.Ring_hardware _ -> true | _ -> false) refusals)
  | _ -> Alcotest.fail "bracket edit did not take effect"

let test_rename_keeps_parity () =
  let h = Hierarchy.create () in
  let uid = make_segment h "s" in
  ignore (check_both h ~subject:alice ~uid ~requested:Mode.r);
  ignore (fs_ok "rename" (Hierarchy.rename_entry h ~subject:operator ~dir:Uid.root ~name:"s" ~new_name:"t"));
  ignore (check_both h ~subject:alice ~uid ~requested:Mode.r)

(* Building ACL values or booting another hierarchy is not a
   revocation: a warm cell stays a hit.  Installing an ACL on the
   object is, and it alone makes the next check miss and refuse. *)
let test_acl_construction_revokes_nothing () =
  Obs.set_enabled true;
  let h = Hierarchy.create () in
  let uid = make_segment h "s" in
  let reading field = List.assoc field (Hierarchy.cache_stats h) in
  let check_permits what =
    match check_both h ~subject:alice ~uid ~requested:Mode.rw with
    | Some Policy.Permit -> ()
    | _ -> Alcotest.failf "%s: expected permit" what
  in
  check_permits "cold";
  check_permits "warm";
  let hits = reading "hits" and invalidations = reading "invalidations" in
  let unrelated = Acl.of_strings [ ("Bob.*.*", "r"); ("*.Ops.*", "rw") ] in
  let unrelated = Acl.add_string unrelated ~pattern:"Carol.*.*" ~mode:"rew" in
  ignore (Acl.remove unrelated ~pattern:(Principal.pattern_of_string "Bob.*.*"));
  ignore (Hierarchy.create ());
  check_permits "after unrelated ACL values and a second boot";
  Alcotest.(check (pair int int)) "hits +1, invalidations +0" (hits + 1, invalidations)
    (reading "hits", reading "invalidations");
  let misses = reading "misses" in
  fs_ok "set_acl"
    (Hierarchy.set_acl h ~subject:operator ~uid ~acl:(Acl.of_strings [ ("Initializer.*.*", "rew") ]));
  (match Hierarchy.check_access h ~subject:alice ~uid ~requested:Mode.rw with
  | Some (Policy.Refuse _) -> ()
  | _ -> Alcotest.fail "set_acl did not revoke the cached grant");
  Alcotest.(check int) "set_acl: next check misses once" (misses + 1) (reading "misses")

(* ----- The salvager must invalidate cached verdicts ----- *)

let test_salvage_invalidates_caches () =
  Obs.set_enabled true;
  let system = System.create Config.kernel_6180 in
  ignore
    (System.add_account system ~person:"Alice" ~project:"Dev" ~password:"pw"
       ~clearance:Label.unclassified);
  let handle =
    match System.login system ~person:"Alice" ~project:"Dev" ~password:"pw" with
    | Ok h -> h
    | Error e -> Alcotest.fail (System.login_error_to_string e)
  in
  let segno =
    match
      User_env.create_segment_at system ~handle ~path:">udd>Dev>Alice>scratch"
        ~acl:(Acl.of_strings [ ("Alice.Dev.*", "rw") ])
        ~label:Label.unclassified
    with
    | Ok segno -> segno
    | Error e -> Alcotest.fail (User_env.error_to_string e)
  in
  (* Warm the per-process SDW associative memory and the policy cache. *)
  (match Gate_calls.write_word system ~handle ~segno ~offset:0 ~value:7 with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Api.error_to_string e));
  (match Gate_calls.read_word system ~handle ~segno ~offset:0 with
  | Ok 7 -> ()
  | Ok v -> Alcotest.failf "unexpected word %d" v
  | Error e -> Alcotest.fail (Api.error_to_string e));
  let p = Option.get (System.proc system handle) in
  Alcotest.(check bool) "assoc memory warmed" true (Hardware.Assoc.size p.System.assoc > 0);
  let h = System.hierarchy system in
  let subject = System.subject_of p in
  let uid = fs_ok "resolve" (Hierarchy.resolve h ~subject ~path:">udd>Dev>Alice>scratch") in
  (* Warm the policy cache: the second check is served from it. *)
  ignore (Hierarchy.check_access h ~subject ~uid ~requested:Mode.r);
  ignore (Hierarchy.check_access h ~subject ~uid ~requested:Mode.r);
  let insertions_before = List.assoc "insertions" (Hierarchy.cache_stats h) in
  ignore (Hierarchy.check_access h ~subject ~uid ~requested:Mode.r);
  Alcotest.(check int) "warm check does not re-insert" insertions_before
    (List.assoc "insertions" (Hierarchy.cache_stats h));
  (match Api.Call.dispatch system ~handle Api.Call.Salvage with
  | Ok (Api.Call.Salvaged _) -> ()
  | Ok _ -> Alcotest.fail "unexpected salvage reply"
  | Error e -> Alcotest.fail (Api.error_to_string e));
  Alcotest.(check int) "assoc memory flushed by salvage" 0 (Hardware.Assoc.size p.System.assoc);
  (* Every previously cached policy verdict is stale: the next check
     must recompute and re-insert rather than replay a pre-salvage
     grant. *)
  (match Hierarchy.check_access h ~subject ~uid ~requested:Mode.r with
  | Some Policy.Permit -> ()
  | _ -> Alcotest.fail "expected permit after salvage");
  let insertions_after = List.assoc "insertions" (Hierarchy.cache_stats h) in
  Alcotest.(check bool) "post-salvage check re-derived its verdict" true
    (insertions_after > insertions_before)

(* ----- Cache status reports this kernel's caches only ----- *)

let boot_alice () =
  let system = System.create Config.kernel_6180 in
  ignore
    (System.add_account system ~person:"Alice" ~project:"Dev" ~password:"pw"
       ~clearance:Label.unclassified);
  match System.login system ~person:"Alice" ~project:"Dev" ~password:"pw" with
  | Ok handle -> (system, handle)
  | Error e -> Alcotest.fail (System.login_error_to_string e)

let cache_report system ~handle =
  match Api.Call.dispatch system ~handle Api.Call.Cache_status with
  | Ok (Api.Call.Cache_report { policy; assoc }) -> (policy, assoc)
  | Ok _ -> Alcotest.fail "unexpected cache status reply"
  | Error e -> Alcotest.fail (Api.error_to_string e)

(* Two kernels in one domain share the registry's "cache.policy.*" and
   "cache.hw.assoc.*" counters; each one's [Cache_status] must still
   report its own caches alone.  The idle kernel boots with obs off,
   so its own boot and login leave its tallies at 0. *)
let test_cache_status_per_kernel () =
  let idle, idle_handle = Obs.with_disabled boot_alice in
  Obs.set_enabled true;
  let busy, busy_handle = boot_alice () in
  let segno =
    match
      User_env.create_segment_at busy ~handle:busy_handle ~path:">udd>Dev>Alice>scratch"
        ~acl:(Acl.of_strings [ ("Alice.Dev.*", "rw") ])
        ~label:Label.unclassified
    with
    | Ok segno -> segno
    | Error e -> Alcotest.fail (User_env.error_to_string e)
  in
  for offset = 0 to 3 do
    match Gate_calls.write_word busy ~handle:busy_handle ~segno ~offset ~value:offset with
    | Ok () -> ignore (Gate_calls.read_word busy ~handle:busy_handle ~segno ~offset)
    | Error e -> Alcotest.fail (Api.error_to_string e)
  done;
  let reading report field = List.assoc field report in
  let busy_policy, busy_assoc = cache_report busy ~handle:busy_handle in
  Alcotest.(check bool) "the busy kernel's caches hit" true
    (reading busy_policy "hits" > 0 && reading busy_assoc "hits" > 0);
  let policy, assoc = cache_report idle ~handle:idle_handle in
  Alcotest.(check (list (pair string int))) "idle kernel: no policy hits or insertions"
    [ ("hits", 0); ("insertions", 0) ]
    [ ("hits", reading policy "hits"); ("insertions", reading policy "insertions") ];
  Alcotest.(check (list (pair string int))) "idle kernel: no assoc hits or insertions"
    [ ("hits", 0); ("insertions", 0) ]
    [ ("hits", reading assoc "hits"); ("insertions", reading assoc "insertions") ]

(* ----- The 100-seed parity property -----

   Random interleavings of mutations, revocations and flush storms;
   after every step the cached path must agree with fresh
   recomputation for sampled (subject, object, mode) triples. *)

let lcg seed =
  let state = ref (if seed <= 0 then 1 else seed) in
  fun bound ->
    state := !state * 48271 mod 0x7fffffff;
    !state mod bound

let parity_subjects =
  [|
    operator;
    alice;
    Policy.subject
      ~principal:(Principal.make ~person:"Bob" ~project:"Ops" ~tag:"b")
      ~clearance:(Label.make Label.Secret [ "crypto" ])
      ~ring:(Ring.of_int 4) ();
  |]

let parity_acls =
  [|
    permissive_acl;
    Acl.of_strings [ ("Alice.Dev.*", "rw"); ("Initializer.*.*", "rew") ];
    Acl.of_strings [ ("*.*.*", "r"); ("Initializer.*.*", "rew") ];
    Acl.of_strings [ ("Initializer.*.*", "rew") ];
  |]

let parity_labels =
  [|
    Label.unclassified;
    Label.make Label.Confidential [];
    Label.make Label.Secret [ "crypto" ];
    Label.make Label.Top_secret [ "crypto"; "nuclear" ];
  |]

let parity_modes = [| Mode.r; Mode.rw; Mode.w; Mode.re |]

let run_parity_seed seed =
  let rand = lcg (seed + 1) in
  let h = Hierarchy.create () in
  let live = ref [] in
  let fresh_name =
    let n = ref 0 in
    fun () -> incr n; Printf.sprintf "s%d_%d" seed !n
  in
  let storm = ref false in
  (* The flush storm fires through the same probe the fault injector
     uses; roughly one lookup in three while armed. *)
  Hierarchy.set_cache_probe h (Some (fun () -> !storm && rand 3 = 0));
  let create () =
    if List.length !live < 10 then begin
      let name = fresh_name () in
      let uid =
        fs_ok "create"
          (Hierarchy.create_segment h ~subject:operator ~dir:Uid.root ~name
             ~acl:parity_acls.(rand (Array.length parity_acls))
             ~label:parity_labels.(rand (Array.length parity_labels)))
      in
      live := (name, uid) :: !live
    end
  in
  create ();
  let pick_live () = List.nth !live (rand (List.length !live)) in
  let assert_parity () =
    for _ = 1 to 4 do
      let subject = parity_subjects.(rand (Array.length parity_subjects)) in
      let _, uid = pick_live () in
      let requested = parity_modes.(rand (Array.length parity_modes)) in
      let fresh = Hierarchy.check_access_fresh h ~subject ~uid ~requested in
      let cached = Hierarchy.check_access h ~subject ~uid ~requested in
      if cached <> fresh then
        Alcotest.failf "seed %d: cached verdict diverged from fresh recomputation" seed
    done
  in
  for _step = 1 to 40 do
    (match rand 10 with
    | 0 | 1 -> create ()
    | 2 ->
        if List.length !live > 1 then begin
          let name, _ = pick_live () in
          ignore (fs_ok "delete" (Hierarchy.delete_entry h ~subject:operator ~dir:Uid.root ~name));
          live := List.remove_assoc name !live
        end
    | 3 | 4 ->
        let _, uid = pick_live () in
        fs_ok "set_acl"
          (Hierarchy.set_acl h ~subject:operator ~uid
             ~acl:parity_acls.(rand (Array.length parity_acls)))
    | 5 ->
        let _, uid = pick_live () in
        ignore
          (Hierarchy.raw_set_label h ~uid ~label:parity_labels.(rand (Array.length parity_labels)))
    | 6 ->
        let name, uid = pick_live () in
        let new_name = fresh_name () in
        ignore
          (fs_ok "rename"
             (Hierarchy.rename_entry h ~subject:operator ~dir:Uid.root ~name ~new_name));
        live := (new_name, uid) :: List.remove_assoc name !live
    | 7 -> Hierarchy.invalidate_cached_verdicts h
    | 8 -> Hierarchy.flush_cached_verdicts h
    | _ -> storm := not !storm);
    assert_parity ()
  done;
  (* Final full sweep, storm armed. *)
  storm := true;
  List.iter
    (fun (_, uid) ->
      Array.iter
        (fun subject ->
          Array.iter
            (fun requested ->
              let fresh = Hierarchy.check_access_fresh h ~subject ~uid ~requested in
              let cached = Hierarchy.check_access h ~subject ~uid ~requested in
              if cached <> fresh then
                Alcotest.failf "seed %d: final sweep diverged" seed)
            parity_modes)
        parity_subjects)
    !live

let test_parity_100_seeds () =
  for seed = 0 to 99 do
    run_parity_seed seed
  done

let suite =
  [
    Alcotest.test_case "avc: find/add basics" `Quick test_avc_basics;
    Alcotest.test_case "avc: setfaults clears only the key's slot" `Quick test_avc_invalidate_key;
    Alcotest.test_case "avc: flush probe storms" `Quick test_avc_flush_probe;
    Alcotest.test_case "avc: direct-mapped displacement" `Quick test_avc_direct_mapped_displacement;
    Alcotest.test_case "avc: capacity rounds to power of two" `Quick test_avc_capacity_rounding;
    test_avc_model;
    Alcotest.test_case "gen: dense ids; negative refused" `Quick test_gen_dense_ids;
    Alcotest.test_case "tallies: per instance; obs off reads 0" `Quick test_tallies_per_instance;
    Alcotest.test_case "revocation: set_acl" `Quick test_set_acl_revokes;
    Alcotest.test_case "revocation: raw_set_label" `Quick test_raw_set_label_revokes;
    Alcotest.test_case "revocation: delete" `Quick test_delete_revokes;
    Alcotest.test_case "revocation: set_brackets on cached path" `Quick
      test_set_brackets_applies_on_cached_path;
    Alcotest.test_case "revocation: rename keeps parity" `Quick test_rename_keeps_parity;
    Alcotest.test_case "salvage invalidates cached verdicts" `Quick test_salvage_invalidates_caches;
    Alcotest.test_case "cache status: this kernel's caches only" `Quick test_cache_status_per_kernel;
    Alcotest.test_case "revocation: building ACLs or booting revokes nothing" `Quick
      test_acl_construction_revokes_nothing;
    Alcotest.test_case "parity: 100 seeds incl. flush storms" `Quick test_parity_100_seeds;
  ]
