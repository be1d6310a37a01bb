(* The benchmark's own tests.  Run from the repository root:

     bash perfbench/run.sh --selftest

   - a tiny-size run of every workload, untraced and traced, reports
     every catalog metric with its unit, and BENCHMARK.json lists the
     same metrics with the same units;
   - the checker flags a deliberately corrupted expectation (a wrong
     read value, a wrong verdict, a wrong refusal tally, a changed audit
     signature);
   - the same seed gives an identical request stream and identical
     counts, and another seed a different stream;
   - each gate stream issues exactly its mix's share of every kind of
     request, whatever the seed;
   - two workloads run in one process each report their own heap
     peak. *)

open Perfbench

let failures = ref 0

let check name ok detail =
  if ok then Printf.printf "ok   %s\n%!" name
  else begin
    incr failures;
    Printf.printf "FAIL %s: %s\n%!" name detail
  end

let contains s sub =
  let n = String.length s and k = String.length sub in
  let rec go i = i + k <= n && (String.sub s i k = sub || go (i + 1)) in
  go 0

(* ----- Every metric, with its unit ----- *)

let test_metrics_reported () =
  List.iter
    (fun workload ->
      List.iter
        (fun traced ->
          let r = Bench.run ~size:Bench.Tiny ~workload ~seed:7 ~seconds:1 ~traced () in
          let catalog = if traced then Metrics.per_layer else Metrics.end_to_end in
          let name = Printf.sprintf "%s %s reports every metric" workload (if traced then "traced" else "untraced") in
          let names = List.map fst r.Bench.metrics in
          let want = List.map (fun m -> m.Metrics.name) catalog in
          check name (names = want && Bench.correct r)
            (Printf.sprintf "got [%s], correct=%b, errors=[%s]" (String.concat "; " names)
               (Bench.correct r) (String.concat "; " r.Bench.errors));
          let line = Bench.result_line r in
          check (name ^ " with units")
            (List.for_all
               (fun m -> contains line (Printf.sprintf "\"%s\": {\"value\": " m.Metrics.name)
                         && contains line (Printf.sprintf "\"unit\": \"%s\"" m.Metrics.unit_))
               catalog)
            line;
          check (name ^ " as finite numbers")
            (List.for_all (fun (_, v) -> Float.is_finite v) r.Bench.metrics)
            line)
        [ false; true ])
    Metrics.workloads

let test_benchmark_json () =
  match Bench.read_file "BENCHMARK.json" with
  | None -> check "BENCHMARK.json is readable from the repository root" false "not found"
  | Some json ->
      let missing =
        List.filter
          (fun m ->
            not (contains json (Printf.sprintf "\"name\": \"%s\", \"unit\": \"%s\", \"better\": \"%s\"" m.Metrics.name m.Metrics.unit_ m.Metrics.better)))
          (Metrics.end_to_end @ Metrics.per_layer)
      in
      check "BENCHMARK.json lists every catalog metric with its unit" (missing = [])
        (String.concat ", " (List.map (fun m -> m.Metrics.name) missing));
      let wrong =
        List.filter
          (fun w -> contains json (Printf.sprintf "\"name\": \"%s\"" w) <> List.mem w Metrics.listed)
          Metrics.workloads
      in
      check "BENCHMARK.json lists exactly the listed workloads" (wrong = []) (String.concat ", " wrong)

(* Each gate stream issues every kind of request in exactly its mix's
   share, whatever the seed; gate_churn's mix is E22's editor-compile
   gate profile. *)
let test_stream_mix () =
  let open Gate_wl in
  let classes =
    [
      ("reads", [ K_read ], function Read _ -> true | _ -> false);
      ("writes", [ K_write ], function Write _ -> true | _ -> false);
      ("set_acl", [ K_set_acl ], function Set_acl _ -> true | _ -> false);
      (* A delete with no scratch segment left becomes a create. *)
      ("scratch create/delete", [ K_create; K_delete ], function Create _ | Delete _ -> true | _ -> false);
      ("stripped gates", [ K_list; K_status ], function Stripped _ -> true | _ -> false);
    ]
  in
  List.iter
    (fun shape ->
      let total = List.fold_left (fun acc (_, w) -> acc + w) 0 shape.mix in
      let count seed f =
        Array.fold_left (fun acc op -> acc + Bool.to_int (f op)) 0 (generate shape ~seed).ops
      in
      List.iter
        (fun (name, ks, f) ->
          let weight = List.fold_left (fun acc (k, w) -> if List.mem k ks then acc + w else acc) 0 shape.mix in
          let want = shape.calls * weight / total and got = count 1 f in
          check
            (Printf.sprintf "%s issues its mix's share of %s" shape.name name)
            (abs (got - want) <= List.length shape.mix && count 2 f = got)
            (Printf.sprintf "%d (seed 2: %d), mix share %d" got (count 2 f) want))
        classes)
    [ hot; churn ]

(* Two workloads in one process: each reports its own heap peak, not
   the largest heap of a workload that ran before it. *)
let test_heap_peak_per_workload () =
  let heap workload =
    let r = Bench.run ~size:Bench.Tiny ~workload ~seed:7 ~seconds:1 ~traced:false () in
    List.assoc "heap_peak_mb" r.Bench.metrics
  in
  let alone = heap "gate_hot" in
  let heavy = heap "mc_explore" in
  let after = heap "gate_hot" in
  check "the first workload's heap is larger than the second's" (heavy > 1.5 *. alone)
    (Printf.sprintf "mc_explore %.1f MB, gate_hot %.1f MB" heavy alone);
  check "the second workload reports its own heap peak" (after < 1.2 *. alone)
    (Printf.sprintf "gate_hot alone %.1f MB, after mc_explore %.1f MB" alone after)

(* ----- The checker catches wrong answers ----- *)

let tiny_churn = { Gate_wl.churn with calls = 300 }

let first_index p a =
  let rec go i = if i >= Array.length a then None else if p a.(i) then Some i else go (i + 1) in
  go 0

let with_expect stream i e =
  let expect = Array.copy stream.Gate_wl.expect in
  expect.(i) <- e;
  { stream with Gate_wl.expect }

let test_checker_flags_corruption () =
  let stream = Gate_wl.generate tiny_churn ~seed:11 in
  let clean = Gate_wl.run_round stream in
  check "clean churn stream: no failures, tallies consistent"
    (clean.failed = 0 && Gate_wl.consistency stream clean = [])
    (Printf.sprintf "failed=%d errors=[%s]" clean.failed
       (String.concat "; " (Gate_wl.consistency stream clean)));
  (match first_index (function Gate_wl.Word _ -> true | _ -> false) stream.expect with
  | None -> check "stream has a read to corrupt" false "no Word expectation"
  | Some i ->
      let v = match stream.expect.(i) with Gate_wl.Word v -> v | _ -> 0 in
      let r = Gate_wl.run_round (with_expect stream i (Gate_wl.Word (v + 1))) in
      check "a corrupted read value is one failure" (r.failed = 1) (Printf.sprintf "failed=%d" r.failed));
  match first_index (fun e -> e = Gate_wl.Denied) stream.expect with
  | None -> check "stream has a refusal to corrupt" false "no Denied expectation"
  | Some i ->
      let corrupted = with_expect stream i Gate_wl.Done in
      let r = Gate_wl.run_round corrupted in
      check "a corrupted verdict is one failure" (r.failed = 1) (Printf.sprintf "failed=%d" r.failed);
      check "a corrupted verdict breaks the refusal tally"
        (Gate_wl.consistency corrupted r <> [])
        "obs gate.refusals matched a wrong expectation"

let test_timesharing_signature_check () =
  let spec = Ts_wl.spec ~seed:5 ~users:20 in
  let r = Ts_wl.run_round spec in
  let signature = r.Ts_wl.result.Multics_sched.Workload.r_signature in
  check "timesharing round completes every interaction" (Ts_wl.failures spec ~signature r = 0)
    (Printf.sprintf "%d failures" (Ts_wl.failures spec ~signature r));
  check "a changed audit signature fails the whole round"
    (Ts_wl.failures spec ~signature:(signature + 1) r = Ts_wl.expected_interactions spec)
    "signature mismatch not flagged"

(* ----- Determinism ----- *)

let test_same_seed () =
  let a = Gate_wl.generate tiny_churn ~seed:3 and b = Gate_wl.generate tiny_churn ~seed:3 in
  let c = Gate_wl.generate tiny_churn ~seed:4 in
  check "same seed, identical request stream" (a.ops = b.ops && a.expect = b.expect) "streams differ";
  check "another seed, another request stream" (a.ops <> c.ops) "streams equal";
  let ra = Gate_wl.run_round a and rb = Gate_wl.run_round b in
  let interesting (n, _) =
    List.mem n [ "gate.calls"; "gate.refusals"; "policy.checks"; "hw.checks"; "cache.policy.hits"; "cache.hw.assoc.hits" ]
  in
  check "same seed, identical counts"
    (List.filter interesting ra.counts = List.filter interesting rb.counts
    && ra.audit_depth = rb.audit_depth && ra.failed = rb.failed && ra.verdicts = rb.verdicts)
    "counts differ";
  check "same seed, identical replay traces"
    (Mc_wl.traces ~seed:3 ~n:5 ~depth:4 = Mc_wl.traces ~seed:3 ~n:5 ~depth:4)
    "traces differ";
  let spec = Ts_wl.spec ~seed:9 ~users:20 in
  let s1 = (Ts_wl.run_round spec).result and s2 = (Ts_wl.run_round spec).result in
  check "same seed, identical timesharing outcome"
    (s1.r_signature = s2.r_signature && s1.r_completed = s2.r_completed && s1.r_cycles = s2.r_cycles)
    "timesharing runs differ"

let () =
  Bench.pin_env ();
  test_benchmark_json ();
  test_checker_flags_corruption ();
  test_timesharing_signature_check ();
  test_same_seed ();
  test_stream_mix ();
  test_heap_peak_per_workload ();
  test_metrics_reported ();
  if !failures > 0 then begin
    Printf.printf "%d self-test failure(s)\n" !failures;
    exit 1
  end
  else print_endline "perfbench self-test: all passed"
