(* The deterministic domain-pool runner: order preservation, inline
   fallback, Obs-snapshot merging, nested-call degradation, exception
   determinism, and the end-to-end oracle parity between pool sizes. *)

module Par = Multics_par.Par
module Oracle = Multics_par.Oracle
module Obs = Multics_obs.Obs
module E19 = Multics_experiments.E19_sid

let test_map_preserves_order () =
  let xs = List.init 100 Fun.id in
  (* Uneven task costs invite out-of-order completion; results must
     come back in input order regardless. *)
  let f x =
    let spin = if x mod 7 = 0 then 10_000 else 10 in
    let acc = ref 0 in
    for i = 1 to spin do
      acc := (!acc + i) mod 65_521
    done;
    ignore !acc;
    x * 3
  in
  let want = List.map f xs in
  Alcotest.(check (list int)) "jobs=4 preserves order" want (Par.map ~jobs:4 f xs);
  Alcotest.(check (list int)) "jobs=1 inline" want (Par.map ~jobs:1 f xs);
  Alcotest.(check (list int)) "jobs=3, n=2 (pool clamps)" [ 0; 3 ] (Par.map ~jobs:3 f [ 0; 1 ])

let test_run_seeds () =
  Alcotest.(check (list int)) "seeds 0..n-1 in order" [ 0; 10; 20; 30; 40 ]
    (Par.run_seeds ~jobs:2 5 (fun seed -> seed * 10));
  Alcotest.(check (list int)) "zero seeds" [] (Par.run_seeds ~jobs:4 0 (fun s -> s))

(* A booted kernel serving a few admitted and a few refused gate calls,
   so the per-domain gate-call tally and the audit trail both move. *)
let kernel_calls seed =
  let open Multics_kernel in
  let system = System.create Config.kernel_6180 in
  ignore
    (System.add_account system ~person:"Alice" ~project:"Dev" ~password:"pw"
       ~clearance:Multics_access.Label.unclassified);
  let handle =
    match System.login system ~person:"Alice" ~project:"Dev" ~password:"pw" with
    | Ok handle -> handle
    | Error e -> Alcotest.fail (System.login_error_to_string e)
  in
  let segno =
    match
      User_env.create_segment_at system ~handle ~path:">udd>Dev>Alice>s"
        ~acl:(Multics_access.Acl.of_strings [ ("Alice.Dev.*", "rw") ])
        ~label:Multics_access.Label.unclassified
    with
    | Ok segno -> segno
    | Error e -> Alcotest.fail (User_env.error_to_string e)
  in
  let call ~handle request = Result.is_ok (Api.Call.dispatch system ~handle request) in
  for i = 0 to seed mod 3 do
    if not (call ~handle (Api.Call.Write_word { segno; offset = i; value = seed })) then
      Alcotest.fail "admitted write refused";
    if call ~handle (Api.Call.Read_word { segno; offset = -1 - i }) then
      Alcotest.fail "read before the segment admitted";
    if call ~handle:12345 Api.Call.Proc_info then Alcotest.fail "unknown caller admitted"
  done

let test_obs_totals_match_sequential () =
  (* Tasks record counters and histograms, and boot kernels that make
     gate calls; the absorbed totals after a 4-domain run — every
     counter, the derived gate-call tallies included — must equal the
     inline run's. *)
  let task seed =
    Obs.Counter.incr (Obs.Registry.counter (Obs.Registry.global ()) "par.test.ops") ~by:(seed + 1);
    Obs.Histogram.observe
      (Obs.Registry.histogram (Obs.Registry.global ()) "par.test.cycles")
      ((seed * 13) + 1);
    kernel_calls seed;
    seed
  in
  let run jobs =
    let before = Obs.Snapshot.capture () in
    ignore (Par.run_seeds ~jobs 40 task);
    let after = Obs.Snapshot.capture () in
    Obs.Snapshot.diff ~before ~after
  in
  let d1 = run 1 and d4 = run 4 in
  let moved d = List.filter (fun (_, n) -> n <> 0) d.Obs.Snapshot.counters in
  Alcotest.(check (list (pair string int))) "counter totals match" (moved d1) (moved d4);
  Alcotest.(check bool) "the gate-call tally moved" true (Obs.Snapshot.counter d4 "gate.refusals" > 0);
  let hist d = List.assoc "par.test.cycles" d.Obs.Snapshot.histograms in
  let h1 = hist d1 and h4 = hist d4 in
  Alcotest.(check int) "histogram count" h1.Obs.Snapshot.count h4.Obs.Snapshot.count;
  Alcotest.(check int) "histogram sum" h1.Obs.Snapshot.sum h4.Obs.Snapshot.sum;
  Alcotest.(check (list (pair int int))) "histogram buckets" h1.Obs.Snapshot.buckets
    h4.Obs.Snapshot.buckets

let test_nested_map_degrades_inline () =
  (* A task that itself calls Par.map must not spawn a second layer of
     domains — and must still compute the right thing. *)
  let got =
    Par.map ~jobs:4
      (fun x -> List.fold_left ( + ) 0 (Par.map ~jobs:4 (fun y -> x * y) [ 1; 2; 3 ]))
      [ 1; 2; 3; 4 ]
  in
  Alcotest.(check (list int)) "nested totals" [ 6; 12; 18; 24 ] got

exception Task_failed of int

let test_exception_determinism () =
  (* Several tasks fail; the lowest-indexed failure is the one
     re-raised, whatever the schedule. *)
  let f x = if x mod 3 = 2 then raise (Task_failed x) else x in
  List.iter
    (fun jobs ->
      match Par.map ~jobs f (List.init 20 Fun.id) with
      | _ -> Alcotest.failf "jobs=%d: expected a raise" jobs
      | exception Task_failed i ->
          Alcotest.(check int) (Printf.sprintf "jobs=%d: first failing task" jobs) 2 i)
    [ 1; 4 ]

let test_stats_accounting () =
  Par.Stats.reset ();
  ignore (Par.run_seeds ~jobs:1 7 (fun s -> s));
  ignore (Par.run_seeds ~jobs:4 9 (fun s -> s));
  let s = Par.Stats.snapshot () in
  Alcotest.(check int) "runs" 2 s.Par.Stats.runs;
  Alcotest.(check int) "tasks" 16 s.Par.Stats.tasks;
  Alcotest.(check int) "last pool size" 4 s.Par.Stats.pool_size;
  Alcotest.(check int) "per-worker counts sum to tasks" 16
    (List.fold_left (fun acc (_, n) -> acc + n) 0 s.Par.Stats.per_worker);
  Par.Stats.reset ();
  let s = Par.Stats.snapshot () in
  Alcotest.(check int) "reset clears runs" 0 s.Par.Stats.runs

let test_oracle_witness () =
  (* Divergences planted at two seeds; seed 3 reports its later step
     first, so the witness must pick the lowest step, not the first
     reported. *)
  let renders = Atomic.make 0 in
  let render v =
    Atomic.incr renders;
    Printf.sprintf "<%d>" v
  in
  let run ~planted jobs =
    snd
      (Oracle.run ~jobs ~seeds:10 ~equal:Int.equal ~render (fun ~seed ~report ->
           let steps = if seed = 3 then [ 7; 4; 0; 1 ] else [ 0; 1; 2; 3; 4; 5; 6; 7 ] in
           List.iter
             (fun step ->
               let diverges = planted && ((seed = 3 && (step = 7 || step = 4)) || (seed = 8 && step = 1)) in
               report step step (if diverges then -step else step))
             steps))
  in
  let check_planted jobs =
    let o = run ~planted:true jobs in
    let what = Printf.sprintf "jobs=%d" jobs in
    Alcotest.(check int) (what ^ " seeds") 10 o.Oracle.seeds;
    Alcotest.(check int) (what ^ " divergences") 3 o.Oracle.divergences;
    match o.Oracle.witness with
    | None -> Alcotest.failf "%s: no witness" what
    | Some w ->
        Alcotest.(check (pair int int)) (what ^ " witness seed, step") (3, 4) (w.Oracle.seed, w.Oracle.step);
        Alcotest.(check (pair string string)) (what ^ " renderings") ("<4>", "<-4>")
          (w.Oracle.reference, w.Oracle.variant);
        o
  in
  let o1 = check_planted 1 and o4 = check_planted 4 in
  Alcotest.(check bool) "identical across pool sizes" true (o1 = o4);
  Alcotest.(check string) "witness line under the broken verdict"
    "[BROKEN] x\n[witness] seed 3 step 4: reference <4> | variant <-4>"
    (Oracle.verdict o4 ~pass:"[ok]" ~fail:"[BROKEN]" "x");
  Atomic.set renders 0;
  List.iter
    (fun jobs ->
      let o = run ~planted:false jobs in
      Alcotest.(check int) "no divergences" 0 o.Oracle.divergences;
      Alcotest.(check bool) "no witness" true (o.Oracle.witness = None);
      Alcotest.(check string) "passing verdict unchanged" "[ok] x"
        (Oracle.verdict o ~pass:"[ok]" ~fail:"[BROKEN]" "x"))
    [ 1; 4 ];
  Alcotest.(check int) "render never called on a clean run" 0 (Atomic.get renders)

let test_e19_oracle_parity_across_pool_sizes () =
  (* The end-to-end contract: the E19 churn oracle — full kernel boots,
     ACL churn, cache flushes per seed — produces identical run stats at
     every pool size. *)
  let seq, seq_oracle = E19.parity_runs ~jobs:1 ~refs:120 () in
  let par, par_oracle = E19.parity_runs ~jobs:4 ~refs:120 () in
  Alcotest.(check int) "same number of runs" (List.length seq) (List.length par);
  Alcotest.(check int) "same divergences" seq_oracle.Oracle.divergences
    par_oracle.Oracle.divergences;
  Alcotest.(check bool) "same witness" true (seq_oracle.Oracle.witness = par_oracle.Oracle.witness);
  List.iteri
    (fun i ((a : E19.run_stats), (b : E19.run_stats)) ->
      Alcotest.(check int) (Printf.sprintf "seed %d refs" i) a.E19.refs b.E19.refs;
      Alcotest.(check int) (Printf.sprintf "seed %d edits" i) a.E19.edits b.E19.edits;
      Alcotest.(check int) (Printf.sprintf "seed %d flushes" i) a.E19.flushes b.E19.flushes;
      Alcotest.(check int) (Printf.sprintf "seed %d rebuilds" i) a.E19.rebuilds b.E19.rebuilds)
    (List.combine seq par)

let suite =
  [
    Alcotest.test_case "map preserves order" `Quick test_map_preserves_order;
    Alcotest.test_case "run_seeds" `Quick test_run_seeds;
    Alcotest.test_case "obs totals match sequential" `Quick test_obs_totals_match_sequential;
    Alcotest.test_case "nested map degrades inline" `Quick test_nested_map_degrades_inline;
    Alcotest.test_case "exception determinism" `Quick test_exception_determinism;
    Alcotest.test_case "stats accounting" `Quick test_stats_accounting;
    Alcotest.test_case "oracle witness: lowest seed, lowest step, any pool" `Quick
      test_oracle_witness;
    Alcotest.test_case "e19 oracle parity across pool sizes" `Quick
      test_e19_oracle_parity_across_pool_sizes;
  ]
