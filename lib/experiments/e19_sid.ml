(* E19 — dense-SID mediation: the compiled access-vector table against
   the structured reference monitor.

   The redesigned mediation path interns every subject and object into
   a dense SID space and compiles Policy x ring brackets into a flat
   2-D table of access-vector bits ({!Multics_access.Av_table}); a
   reference Permits by two array reads and a bit test.  That is only
   sound if the table NEVER disagrees with the structured verdict —
   across ACL edits, label rewrites, bracket changes, whole-cache
   flush storms and post-salvage invalidation, all of which revoke
   through the same epoch generations the AVC uses.

   This experiment is the parity oracle: one hundred seeded runs, each
   a randomized interleaving of references and revocations over a
   population of subjects spanning clearances, compartments, rings and
   the trusted bit.  Every reference asks BOTH paths — the compiled
   table ([check_access]) and the scratch recomputation
   ([check_access_fresh]) — and any disagreement, in verdict or in
   refusal detail, is a divergence.  The verdict line is a CI gate:
   the run must report zero.

   A second table prices the compilation itself: interned subjects and
   objects, cells an eager rebuild fills, and the hit ratio the churn
   left behind — the flat table's analogue of E16's AVC readings. *)

open Multics_access
open Multics_fs
open Multics_machine

let id = "E19"

let title = "Dense-SID access-vector table: parity with structured mediation under churn"

let paper_claim =
  "mediation on every reference is affordable only if the common case is a table lookup; \
   the compiled access decision must be indistinguishable from the structured one, \
   including immediately after any revocation"

(* Deterministic multiplicative LCG (Park–Miller), as in E16, so the
   recorded tables reproduce bit-for-bit. *)
let lcg seed =
  let state = ref (if seed <= 0 then 1 else seed) in
  fun bound ->
    state := !state * 48271 mod 0x7fffffff;
    !state mod bound

let operator =
  Policy.subject ~trusted:true
    ~principal:(Principal.make ~person:"Initializer" ~project:"SysDaemon" ~tag:"z")
    ~clearance:(Label.system_high []) ~ring:(Ring.of_int 1) ()

(* A population of subjects spanning the dimensions a SID must keep
   distinct: level, compartments, ring, and the trusted bit.  Fresh
   records per run so the per-record SID memo is exercised from cold. *)
let subject_pool () =
  let mk ?(trusted = false) person level compartments ring =
    Policy.subject ~trusted
      ~principal:(Principal.make ~person ~project:"Parity" ~tag:"a")
      ~clearance:(Label.make level compartments) ~ring:(Ring.of_int ring) ()
  in
  [|
    mk "Unc4" Label.Unclassified [] 4;
    mk "Con4" Label.Confidential [] 4;
    mk "Sec4" Label.Secret [ "crypto" ] 4;
    mk "Sec5" Label.Secret [ "crypto"; "nato" ] 5;
    mk "Top4" Label.Top_secret [ "crypto"; "nato" ] 4;
    mk "Top1" Label.Top_secret [ "crypto" ] 1;
    mk ~trusted:true "Daemon1" Label.Secret [] 1;
    mk "Unc7" Label.Unclassified [] 7;
  |]

let labels =
  [|
    Label.unclassified;
    Label.make Label.Confidential [];
    Label.make Label.Secret [ "crypto" ];
    Label.make Label.Secret [ "nato" ];
    Label.make Label.Top_secret [ "crypto"; "nato" ];
  |]

let acls =
  [|
    Acl.of_strings [ ("*.Parity.*", "rw"); ("Initializer.*.*", "rew") ];
    Acl.of_strings [ ("*.Parity.*", "r"); ("Initializer.*.*", "rew") ];
    Acl.of_strings [ ("Sec4.Parity.*", "rw"); ("Initializer.*.*", "rew") ];
    Acl.of_strings [ ("Initializer.*.*", "rew") ];
    Acl.of_strings [ ("*.*.*", "re"); ("Initializer.*.*", "rew") ];
  |]

let bracket_pool =
  [|
    Brackets.user_data;
    Brackets.user_procedure;
    Brackets.make ~r1:4 ~r2:5 ~r3:5;
    Brackets.make ~r1:1 ~r2:1 ~r3:1;
  |]

let modes = [| Mode.r; Mode.w; Mode.rw; Mode.e; Mode.re |]

type run_stats = {
  refs : int;
  edits : int;  (** ACL edits + bracket changes + label rewrites *)
  flushes : int;  (** flush storms + salvage-style global invalidations *)
  rebuilds : int;
}

let run_seed ~report ~seed ~refs =
  let h = Hierarchy.create () in
  let rand = lcg (1 + seed) in
  let subjects = subject_pool () in
  let objects = 24 in
  let uids =
    Array.init objects (fun i ->
        match
          Hierarchy.create_segment h ~subject:operator ~dir:Uid.root
            ~name:(Printf.sprintf "seg_%02d" i)
            ~acl:acls.(rand (Array.length acls))
            ~brackets:bracket_pool.(rand (Array.length bracket_pool))
            ~label:labels.(rand (Array.length labels))
        with
        | Ok uid -> uid
        | Error e -> invalid_arg ("E19: create_segment: " ^ Hierarchy.error_to_string e))
  in
  let edits = ref 0 and flushes = ref 0 and rebuilds = ref 0 in
  for step = 0 to refs - 1 do
    (match rand 20 with
    | 0 ->
        (* ACL edit: revocation through the per-object generation. *)
        let uid = uids.(rand objects) in
        (match
           Hierarchy.set_acl h ~subject:operator ~uid ~acl:acls.(rand (Array.length acls))
         with
        | Ok () -> incr edits
        | Error e -> invalid_arg ("E19: set_acl: " ^ Hierarchy.error_to_string e))
    | 1 ->
        (* Label rewrite: the security administrator's upgrade path. *)
        let uid = uids.(rand objects) in
        if Hierarchy.raw_set_label h ~uid ~label:labels.(rand (Array.length labels)) then
          incr edits
    | 2 ->
        (* Bracket change: the ring dimension of the compiled vector. *)
        let uid = uids.(rand objects) in
        (match
           Hierarchy.set_brackets h ~subject:operator ~uid
             ~brackets:bracket_pool.(rand (Array.length bracket_pool))
         with
        | Ok () -> incr edits
        | Error e -> invalid_arg ("E19: set_brackets: " ^ Hierarchy.error_to_string e))
    | 3 ->
        (* Flush storm (storage loss) or salvage-style global bump. *)
        if rand 2 = 0 then Hierarchy.flush_cached_verdicts h
        else Hierarchy.invalidate_cached_verdicts h;
        incr flushes
    | 4 when rand 8 = 0 ->
        (* An eager recompile mid-churn must also be invisible. *)
        ignore (Hierarchy.rebuild_av_table h);
        incr rebuilds
    | _ -> ());
    let subject = subjects.(rand (Array.length subjects)) in
    let uid = uids.(rand objects) in
    let requested = modes.(rand (Array.length modes)) in
    let compiled = Hierarchy.check_access h ~subject ~uid ~requested in
    let structured = Hierarchy.check_access_fresh h ~subject ~uid ~requested in
    report step structured compiled
  done;
  { refs; edits = !edits; flushes = !flushes; rebuilds = !rebuilds }

let seeds = 100

let render_verdict = function
  | None -> "dangling uid"
  | Some Policy.Permit -> "Permit"
  | Some (Policy.Refuse refusals) ->
      "Refuse [" ^ String.concat "; " (List.map Policy.refusal_to_string refusals) ^ "]"

(* Seeds are independent labeled-PRNG streams, so the oracle fans out
   over domains; results come back in seed order, so the table and
   verdict line are byte-identical at any pool size.  The structured
   verdict is the reference, the compiled one the variant. *)
let parity_runs ?jobs ?(refs = 400) () =
  Multics_par.Oracle.run ?jobs ~seeds ~equal:( = ) ~render:render_verdict
    (fun ~seed ~report -> run_seed ~report ~seed ~refs)

(* ----- The compilation-cost table ----- *)

type cost_row = {
  cr_workload : string;
  cr_subjects : int;  (** subject SIDs interned *)
  cr_objects : int;
  cr_cells : int;  (** cells an eager rebuild fills *)
  cr_hit_ratio : float;
  cr_invalidations : int;
}

let counter_of stats name = try List.assoc name stats with Not_found -> 0

let cost_run ~name ~subjects:nsubj ~objects ~refs ~edit_every =
  let h = Hierarchy.create () in
  let rand = lcg (23 + objects + edit_every) in
  let pool = subject_pool () in
  let subjects = Array.sub pool 0 (min nsubj (Array.length pool)) in
  let uids =
    Array.init objects (fun i ->
        match
          Hierarchy.create_segment h ~subject:operator ~dir:Uid.root
            ~name:(Printf.sprintf "seg_%03d" i) ~acl:acls.(0) ~label:Label.unclassified
        with
        | Ok uid -> uid
        | Error e -> invalid_arg ("E19: create_segment: " ^ Hierarchy.error_to_string e))
  in
  let before = Hierarchy.cache_stats h in
  for i = 1 to refs do
    if edit_every > 0 && i mod edit_every = 0 then begin
      match
        Hierarchy.set_acl h ~subject:operator ~uid:(uids.(rand objects))
          ~acl:acls.(rand (Array.length acls))
      with
      | Ok () -> ()
      | Error e -> invalid_arg ("E19: set_acl: " ^ Hierarchy.error_to_string e)
    end;
    let subject = subjects.(rand (Array.length subjects)) in
    ignore (Hierarchy.check_access h ~subject ~uid:(uids.(rand objects)) ~requested:Mode.r)
  done;
  let after = Hierarchy.cache_stats h in
  let delta name = counter_of after name - counter_of before name in
  let hits = delta "hits" and misses = delta "misses" in
  let cells = Hierarchy.rebuild_av_table h in
  {
    cr_workload = name;
    cr_subjects = Av_table.subject_count (Hierarchy.av_table h);
    cr_objects = objects;
    cr_cells = cells;
    cr_hit_ratio =
      (if hits + misses = 0 then 0.0 else float_of_int hits /. float_of_int (hits + misses));
    cr_invalidations = delta "invalidations";
  }

let cost_rows () =
  [
    cost_run ~name:"2 subjects x 64 objects, no edits" ~subjects:2 ~objects:64 ~refs:20_000
      ~edit_every:0;
    cost_run ~name:"8 subjects x 64 objects, no edits" ~subjects:8 ~objects:64 ~refs:20_000
      ~edit_every:0;
    cost_run ~name:"8 subjects x 256 objects, edit storm" ~subjects:8 ~objects:256 ~refs:20_000
      ~edit_every:8;
  ]

(* ----- Rendering ----- *)

let parity_table runs (oracle : Multics_par.Oracle.t) =
  let open Multics_util.Table in
  let t =
    create
      ~title:(Printf.sprintf "%s: %s (aggregate over %d seeds)" id title seeds)
      ~columns:
        [
          ("", Left);
          ("refs", Right);
          ("ACL/label/bracket edits", Right);
          ("flush storms", Right);
          ("eager rebuilds", Right);
          ("divergences", Right);
        ]
  in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 runs in
  add_row t
    [
      "total";
      string_of_int (sum (fun r -> r.refs));
      string_of_int (sum (fun r -> r.edits));
      string_of_int (sum (fun r -> r.flushes));
      string_of_int (sum (fun r -> r.rebuilds));
      string_of_int oracle.Multics_par.Oracle.divergences;
    ];
  t

let cost_table rows =
  let open Multics_util.Table in
  let t =
    create
      ~title:(Printf.sprintf "%s: compiled-table population and hit ratio" id)
      ~columns:
        [
          ("workload", Left);
          ("subject SIDs", Right);
          ("objects", Right);
          ("rebuild cells", Right);
          ("hit ratio", Right);
          ("inval", Right);
        ]
  in
  List.iter
    (fun r ->
      add_row t
        [
          r.cr_workload;
          string_of_int r.cr_subjects;
          string_of_int r.cr_objects;
          string_of_int r.cr_cells;
          fmt_pct r.cr_hit_ratio;
          string_of_int r.cr_invalidations;
        ])
    rows;
  t

let render () =
  let runs, oracle = parity_runs () in
  let par_line =
    Printf.sprintf
      "compiled access-vector table matches structured mediation: %d seeds, %d divergences"
      seeds oracle.Multics_par.Oracle.divergences
  in
  String.concat "\n"
    [
      Multics_util.Table.render (parity_table runs oracle);
      "";
      Multics_util.Table.render (cost_table (cost_rows ()));
      "";
      Multics_par.Oracle.verdict oracle ~pass:"[parity]" ~fail:"[PARITY BROKEN]" par_line;
    ]
