(* Orchestration: pin the environment, run one workload for the
   requested time, check every reply, and report.

   An untraced run ([~trace:false]) measures the end-to-end metrics
   with no span recording.  A traced run measures the workload
   untraced (no recorder active) for half its time and traced (spans
   on, stage probes on) for the other half, and reports the per-layer
   metrics and the tracing overhead.  Layers the workload does not reach from the
   benchmark's own calls are priced by small fixed passes run after it
   (a gate_churn round, a timesharing pair, a shallow exploration), so
   every traced run reports every per-layer metric. *)

module Workload = Multics_sched.Workload
module System = Multics_kernel.System
module Config = Multics_kernel.Config
module Samples = Stats.Samples

type size = Full | Tiny

type report = {
  workload : string;
  seed : int;
  traced : bool;
  attempted : int;
  failed : int;
  errors : string list;  (** tally or consistency violations *)
  metrics : (string * float) list;
  samples : (string * int) list;  (** sample counts behind the timings *)
  spans : Trace.t option;
}

let correct r = r.failed = 0 && r.errors = []

(* ----- Environment and provenance ----- *)

(* Every workload runs on one domain, one CPU and no fleet, whatever
   the caller's environment says. *)
let pinned_env = [ ("MULTICS_JOBS", "1"); ("MULTICS_NCPU", "1"); ("MULTICS_SITES", "0") ]

let pin_env () = List.iter (fun (k, v) -> Unix.putenv k v) pinned_env

let read_file path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> Some (String.trim (really_input_string ic (in_channel_length ic))))

(* The checked-out revision, read from [.git] without running git;
   "unknown" outside a git checkout. *)
let git_revision () =
  match read_file ".git/HEAD" with
  | None -> "unknown"
  | Some head when String.length head > 5 && String.sub head 0 5 = "ref: " -> (
      let ref_name = String.sub head 5 (String.length head - 5) in
      match read_file (".git/" ^ ref_name) with
      | Some rev -> rev
      | None -> (
          match read_file ".git/packed-refs" with
          | None -> "unknown"
          | Some packed -> (
              let suffix = " " ^ ref_name in
              let line =
                List.find_opt
                  (fun l ->
                    let n = String.length l and k = String.length suffix in
                    n > k && String.sub l (n - k) k = suffix)
                  (String.split_on_char '\n' packed)
              in
              match line with Some l -> List.hd (String.split_on_char ' ' l) | None -> "unknown")))
  | Some rev -> rev

let stamp ~workload ~seed ~seconds ~traced =
  Printf.sprintf
    "{\"workload\": \"%s\", \"seed\": %d, \"seconds\": %d, \"trace\": %d, \"git_revision\": \"%s\", \"nproc\": %d, \"ocaml\": \"%s\", \"env\": {%s}}"
    workload seed seconds (Bool.to_int traced) (git_revision ()) (Domain.recommended_domain_count ())
    Sys.ocaml_version
    (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "\"%s\": \"%s\"" k v) pinned_env))

(* ----- Helpers ----- *)

(* Run [f] at least once, then again until [seconds] have passed. *)
let for_seconds seconds f =
  let t0 = Clock.now_ns () in
  let rec go acc =
    let acc = f () :: acc in
    if Clock.seconds_since t0 >= seconds then List.rev acc else go acc
  in
  go []

let s_of_ns ns = float_of_int ns /. 1e9
let us_of_ns ns = ns /. 1e3
let median_ns xs = Stats.median (List.map float_of_int xs)
(* The largest major heap any round process of this workload reached
   ([run] resets the peak before each workload). *)
let heap_peak_mb () = float_of_int (!Isolate.heap_peak_words * (Sys.word_size / 8)) /. 1048576.0

(* The end-to-end set every workload reports.  Throughput is the
   round's fixed work over the median round wall time; each workload
   passes its latency quantiles as medians over rounds, so one slow
   round (a GC pause, a noisy neighbour) moves them little. *)
let e2e ~work_per_round ~p50_us ~p99_us ~walls_ns ~setups_ns =
  let wall_s = median_ns walls_ns /. 1e9 in
  [
    ("ops_per_s", float_of_int work_per_round /. wall_s);
    ("op_p50_us", p50_us);
    ("op_p99_us", p99_us);
    ("wall_s", wall_s);
    ("setup_s", median_ns setups_ns /. 1e9);
    ("heap_peak_mb", heap_peak_mb ());
  ]

(* The median over rounds of a per-round figure. *)
let over_rounds f rounds = Stats.median (List.map f rounds)

(* ----- gate_hot / gate_churn ----- *)

let gate_shape size base = match size with Full -> base | Tiny -> { base with Gate_wl.calls = 400 }

let gate_checks stream rounds =
  let n = Array.length stream.Gate_wl.ops in
  let attempted = n * List.length rounds in
  let failed = List.fold_left (fun acc r -> acc + r.Gate_wl.failed) 0 rounds in
  let errors = List.concat_map (Gate_wl.consistency stream) rounds in
  (attempted, failed, errors)

let gate_e2e stream rounds =
  ( e2e ~work_per_round:(Array.length stream.Gate_wl.ops)
      ~p50_us:(over_rounds (fun r -> us_of_ns r.Gate_wl.lat_p50_ns) rounds)
      ~p99_us:(over_rounds (fun r -> us_of_ns r.Gate_wl.lat_p99_ns) rounds)
      ~walls_ns:(List.map (fun r -> r.Gate_wl.wall_ns) rounds)
      ~setups_ns:(List.map (fun r -> r.Gate_wl.setup_ns) rounds),
    [ ("dispatches", Array.length stream.Gate_wl.ops * List.length rounds); ("rounds", List.length rounds) ] )

(* Per-layer metrics from traced rounds (each with its own probes). *)
let gate_layers traced =
  let rounds = List.map fst traced in
  let finite f = List.filter Float.is_finite (List.map f rounds) in
  let by_verdict name f =
    match finite f with [] -> [] | xs -> [ (name, Stats.median xs) ]
  in
  let stage (span, metric) =
    let all = Samples.create () in
    List.iter
      (fun (_, (p : Gate_wl.probes)) -> Samples.append ~into:all (Hashtbl.find p.samples span))
      traced;
    if Samples.is_empty all then [] else [ (metric, Samples.median all /. float_of_int Gate_wl.reps) ]
  in
  let length_ratio =
    Stats.median
      (List.map
         (fun (_, (p : Gate_wl.probes)) ->
           Samples.ratio_of_tenths (Hashtbl.find p.samples "core.audit_log.length"))
         traced)
  in
  let first, _ = List.hd traced in
  let c = first.Gate_wl.counts in
  let count name = float_of_int (Counters.get c name) in
  by_verdict "api.dispatch.granted_ns" (fun r -> r.Gate_wl.granted_p50_ns)
  @ by_verdict "api.dispatch.refused_ns" (fun r -> r.Gate_wl.refused_p50_ns)
  @ [
      ("api.dispatch.depth_ratio", over_rounds (fun r -> r.Gate_wl.depth_ratio) rounds);
      ("audit_log.length_depth_ratio", length_ratio);
    ]
  @ List.concat_map stage Gate_wl.stages
  @ [
      ("audit_log.depth", float_of_int first.Gate_wl.audit_depth);
      ("obs.gate.calls", count "gate.calls");
      ("obs.gate.refusals", count "gate.refusals");
      ("policy.checks", count "policy.checks");
      ("hw.checks", count "hw.checks");
      ("cache.avtab.hit_ratio", Counters.ratio c ~hits:"cache.policy.hits" ~misses:"cache.policy.misses");
      ("cache.assoc.hit_ratio", Counters.ratio c ~hits:"cache.hw.assoc.hits" ~misses:"cache.hw.assoc.misses");
    ]

let gate_round stream = Isolate.run (fun () -> Gate_wl.run_round stream)

let traced_gate_round stream =
  Isolate.run (fun () ->
      let probes = Gate_wl.new_probes () in
      (Gate_wl.run_round ~probes stream, probes))

(* [recorder] is [None] in an untraced run.  In a traced run only the
   second half records: the first half runs with no recorder active. *)
let run_gate ~size ~base ~seed ~seconds ~recorder =
  let stream = Gate_wl.generate (gate_shape size base) ~seed in
  match recorder with
  | None ->
      let rounds = for_seconds seconds (fun () -> gate_round stream) in
      let attempted, failed, errors = gate_checks stream rounds in
      let metrics, samples = gate_e2e stream rounds in
      (attempted, failed, errors, metrics, samples)
  | Some t ->
      let plain = for_seconds (seconds /. 2.) (fun () -> gate_round stream) in
      let traced =
        Trace.with_recorder t (fun () -> for_seconds (seconds /. 2.) (fun () -> traced_gate_round stream))
      in
      let attempted, failed, errors = gate_checks stream (plain @ List.map fst traced) in
      let overhead =
        median_ns (List.map (fun ((r : Gate_wl.round), _) -> r.wall_ns - r.probe_ns) traced)
        /. median_ns (List.map (fun (r : Gate_wl.round) -> r.wall_ns) plain)
      in
      ( attempted,
        failed,
        errors,
        ("trace.overhead_ratio", overhead) :: gate_layers traced,
        [ ("plain_rounds", List.length plain); ("traced_rounds", List.length traced) ] )

(* ----- timesharing ----- *)

let ts_users = function Full -> Ts_wl.users_full | Tiny -> 100

let ts_checks spec ~signature rounds =
  let want = Ts_wl.expected_interactions spec in
  ( want * List.length rounds,
    List.fold_left (fun acc r -> acc + Ts_wl.failures spec ~signature r) 0 rounds )

let ts_layers ~on ~off =
  let r = List.hd on in
  let c = r.Ts_wl.counts in
  let count name = float_of_int (Counters.get c name) in
  let res = r.Ts_wl.result in
  let wall rounds = median_ns (List.map (fun r -> r.Ts_wl.wall_ns) rounds) in
  [
    ("workload.gate_share", 1.0 -. (wall off /. wall on));
    ("sched.dispatches", count "sched.dispatches");
    ("sched.preemptions", count "sched.preemptions");
    ("vm.faults", count "vm.faults");
    ("vm.page_ins", count "vm.page_ins");
    ("sim.cycles_per_s", float_of_int res.Workload.r_cycles /. s_of_ns r.Ts_wl.wall_ns);
    ("audit_log.depth", float_of_int (res.Workload.r_audit_granted + res.Workload.r_audit_refused));
    ("obs.gate.calls", count "gate.calls");
    ("obs.gate.refusals", count "gate.refusals");
    ("policy.checks", count "policy.checks");
    ("hw.checks", count "hw.checks");
    ("cache.avtab.hit_ratio", Counters.ratio c ~hits:"cache.policy.hits" ~misses:"cache.policy.misses");
    ("cache.assoc.hit_ratio", Counters.ratio c ~hits:"cache.hw.assoc.hits" ~misses:"cache.hw.assoc.misses");
  ]

(* A traced on/off pair: the gate-calls-off run prices the share of
   wall time the audited gate traffic takes. *)
let ts_round spec = Isolate.run (fun () -> Ts_wl.run_round spec)

let ts_pair spec = (ts_round spec, ts_round { spec with Workload.gate_calls = false })

let run_timesharing ~size ~seed ~seconds ~recorder =
  let spec = Ts_wl.spec ~seed ~users:(ts_users size) in
  (* A round's latency sample is its wall time per completed
     interaction; the quantiles are taken over rounds. *)
  let rounds_e2e rounds =
    let per_interaction =
      List.map
        (fun r ->
          us_of_ns (float_of_int r.Ts_wl.wall_ns)
          /. float_of_int (max 1 r.Ts_wl.result.Workload.r_completed))
        rounds
    in
    ( e2e ~work_per_round:(Ts_wl.expected_interactions spec)
        ~p50_us:(Stats.quantile per_interaction 0.5)
        ~p99_us:(Stats.quantile per_interaction 0.99)
        ~walls_ns:(List.map (fun r -> r.Ts_wl.wall_ns) rounds)
        ~setups_ns:(List.concat_map (fun r -> r.Ts_wl.setup_ns) rounds),
      [ ("rounds", List.length rounds) ] )
  in
  match recorder with
  | None ->
      let rounds = for_seconds seconds (fun () -> ts_round spec) in
      let signature = (List.hd rounds).Ts_wl.result.Workload.r_signature in
      let attempted, failed = ts_checks spec ~signature rounds in
      let metrics, samples = rounds_e2e rounds in
      (attempted, failed, [], metrics, samples)
  | Some t ->
      let plain = for_seconds (seconds /. 2.) (fun () -> ts_round spec) in
      let pairs = Trace.with_recorder t (fun () -> for_seconds (seconds /. 2.) (fun () -> ts_pair spec)) in
      let on = List.map fst pairs and off = List.map snd pairs in
      let signature = (List.hd plain).Ts_wl.result.Workload.r_signature in
      let attempted, failed = ts_checks spec ~signature (plain @ on) in
      let overhead =
        median_ns (List.map (fun r -> r.Ts_wl.wall_ns) on)
        /. median_ns (List.map (fun r -> r.Ts_wl.wall_ns) plain)
      in
      ( attempted,
        failed,
        [],
        ("trace.overhead_ratio", overhead) :: ts_layers ~on ~off,
        [ ("plain_rounds", List.length plain); ("traced_pairs", List.length pairs) ] )

(* ----- mc_explore ----- *)

let mc_depth = function Full -> Mc_wl.depth_full | Tiny -> 2
let mc_replays = function Full -> Mc_wl.replays_full | Tiny -> 14

let mc_checks rounds =
  let reference = (List.hd rounds).Mc_wl.outcome in
  let attempted = List.fold_left (fun acc r -> acc + 1 + Array.length r.Mc_wl.replay_ns) 0 rounds in
  let failed =
    List.fold_left
      (fun acc (r : Mc_wl.round) ->
        let o = r.outcome in
        let bad_explore =
          o.Mc_wl.Mc.o_counterexamples <> []
          || o.o_states <> reference.Mc_wl.Mc.o_states
          || o.o_expansions <> reference.o_expansions
        in
        acc + Bool.to_int bad_explore + r.replay_violations)
      0 rounds
  in
  (attempted, failed)

let mc_layers ~create_us rounds =
  let o = (List.hd rounds).Mc_wl.outcome in
  let wall_s = median_ns (List.map (fun r -> r.Mc_wl.wall_ns) rounds) /. 1e9 in
  let expansions = float_of_int o.Mc_wl.Mc.o_expansions in
  [
    ("mc.states", float_of_int o.Mc_wl.Mc.o_states);
    ("mc.expansions", expansions);
    ("mc.replay_us", wall_s *. 1e6 /. expansions);
    ("mc.boot_share", expansions *. create_us /. 1e6 /. wall_s);
  ]

let run_mc ~size ~seed ~seconds ~recorder ~create_us =
  let depth = mc_depth size in
  let traces = Mc_wl.traces ~seed ~n:(mc_replays size) ~depth in
  let round () = Mc_wl.run_round ~depth traces in
  (* The replay-latency quantiles are taken over every replay of the
     run: a round's 196 replays give its p99 from two samples. *)
  let e2e_of rounds =
    let replays_us =
      List.concat_map
        (fun r -> Array.to_list (Array.map (fun ns -> us_of_ns (float_of_int ns)) r.Mc_wl.replay_ns))
        rounds
    in
    ( e2e ~work_per_round:(List.hd rounds).Mc_wl.outcome.Mc_wl.Mc.o_expansions
        ~p50_us:(Stats.quantile replays_us 0.5)
        ~p99_us:(Stats.quantile replays_us 0.99)
        ~walls_ns:(List.map (fun r -> r.Mc_wl.wall_ns) rounds)
        ~setups_ns:(List.concat_map (fun r -> r.Mc_wl.setup_ns) rounds),
      [ ("rounds", List.length rounds); ("replays", Array.length traces * List.length rounds) ] )
  in
  match recorder with
  | None ->
      let rounds = for_seconds seconds round in
      let attempted, failed = mc_checks rounds in
      let metrics, samples = e2e_of rounds in
      (attempted, failed, [], metrics, samples)
  | Some t ->
      let plain = for_seconds (seconds /. 2.) round in
      let traced = Trace.with_recorder t (fun () -> for_seconds (seconds /. 2.) round) in
      let attempted, failed = mc_checks (plain @ traced) in
      let overhead =
        median_ns (List.map (fun r -> r.Mc_wl.wall_ns) traced)
        /. median_ns (List.map (fun r -> r.Mc_wl.wall_ns) plain)
      in
      ( attempted,
        failed,
        [],
        ("trace.overhead_ratio", overhead) :: mc_layers ~create_us traced,
        [ ("plain_rounds", List.length plain); ("traced_rounds", List.length traced) ] )

(* ----- Boot price, and the complement passes of a traced run ----- *)

let create_us size =
  let n = match size with Full -> 50 | Tiny -> 5 in
  Isolate.run (fun () ->
      Stats.median
        (List.init n (fun _ ->
             let t0 = Clock.now_ns () in
             ignore
               (Trace.with_span ~name:"core.system.create" ~req:(-1) (fun () ->
                    System.create Config.kernel_6180));
             us_of_ns (float_of_int (Clock.now_ns () - t0)))))

type pass = { p_attempted : int; p_failed : int; p_errors : string list; p_metrics : (string * float) list }

(* Small fixed-size passes over the layers a workload does not reach
   from the benchmark's own calls. *)
let complements ~size ~seed ~create_us =
  let gate () =
    let calls = match size with Full -> 4_000 | Tiny -> 200 in
    let stream = Gate_wl.generate { Gate_wl.churn with calls } ~seed in
    let r = traced_gate_round stream in
    let attempted, failed, errors = gate_checks stream [ fst r ] in
    { p_attempted = attempted; p_failed = failed; p_errors = errors; p_metrics = gate_layers [ r ] }
  in
  let timesharing () =
    let spec = Ts_wl.spec ~seed ~users:(match size with Full -> 1_000 | Tiny -> 50) in
    let on, off = ts_pair spec in
    let attempted, failed = ts_checks spec ~signature:on.Ts_wl.result.Workload.r_signature [ on ] in
    { p_attempted = attempted; p_failed = failed; p_errors = []; p_metrics = ts_layers ~on:[ on ] ~off:[ off ] }
  in
  let mc () =
    let depth = match size with Full -> 3 | Tiny -> 2 in
    let traces = Mc_wl.traces ~seed ~n:14 ~depth in
    let r = Mc_wl.run_round ~depth traces in
    let attempted, failed = mc_checks [ r ] in
    { p_attempted = attempted; p_failed = failed; p_errors = []; p_metrics = mc_layers ~create_us [ r ] }
  in
  [ gate; timesharing; mc ]

(* ----- One workload ----- *)

let run ?(size = Full) ~workload ~seed ~seconds ~traced () =
  pin_env ();
  Multics_obs.Obs.set_enabled true;
  Isolate.heap_peak_words := 0;
  let seconds = float_of_int seconds in
  let recorder = if traced then Some (Trace.create ()) else None in
  (* The boot price and the complement passes are traced work. *)
  let recording f = match recorder with None -> f () | Some t -> Trace.with_recorder t f in
  let create_us = if traced then recording (fun () -> create_us size) else 0.0 in
  let attempted, failed, errors, metrics, samples =
    match workload with
    | "gate_hot" -> run_gate ~size ~base:Gate_wl.hot ~seed ~seconds ~recorder
    | "gate_churn" -> run_gate ~size ~base:Gate_wl.churn ~seed ~seconds ~recorder
    | "timesharing" -> run_timesharing ~size ~seed ~seconds ~recorder
    | "mc_explore" -> run_mc ~size ~seed ~seconds ~recorder ~create_us
    | w -> invalid_arg ("unknown workload " ^ w)
  in
  let attempted, failed, errors, metrics =
    if not traced then (attempted, failed, errors, metrics)
    else begin
      (* Fill the layers this workload did not reach, in catalog order. *)
      let have = ref (("system.create_us", create_us) :: metrics) in
      let attempted = ref attempted and failed = ref failed and errors = ref errors in
      List.iter
        (fun pass ->
          let missing () =
            List.exists (fun m -> not (List.mem_assoc m.Metrics.name !have)) Metrics.per_layer
          in
          if missing () then begin
            let p = recording pass in
            attempted := !attempted + p.p_attempted;
            failed := !failed + p.p_failed;
            errors := !errors @ p.p_errors;
            have := !have @ List.filter (fun (k, _) -> not (List.mem_assoc k !have)) p.p_metrics
          end)
        (complements ~size ~seed ~create_us);
      (!attempted, !failed, !errors, !have)
    end
  in
  let catalog = if traced then Metrics.per_layer else Metrics.end_to_end in
  let missing = List.filter (fun m -> not (List.mem_assoc m.Metrics.name metrics)) catalog in
  let errors = errors @ List.map (fun m -> "metric not measured: " ^ m.Metrics.name) missing in
  {
    workload;
    seed;
    traced;
    attempted;
    failed;
    errors;
    metrics =
      List.filter_map
        (fun m -> Option.map (fun v -> (m.Metrics.name, v)) (List.assoc_opt m.Metrics.name metrics))
        catalog;
    samples;
    spans = recorder;
  }

(* ----- Output ----- *)

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let metrics_json r =
  String.concat ", "
    (List.map
       (fun (name, v) ->
         Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (json_number v)
           (Metrics.find name).Metrics.unit_)
       r.metrics)

let result_line r =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" (correct r)
    r.attempted r.failed (metrics_json r)

let print_human r =
  Printf.printf "== %s (seed %d, %s)\n" r.workload r.seed (if r.traced then "traced" else "untraced");
  List.iter
    (fun (name, v) -> Printf.printf "  %-30s %16.6g %s\n" name v (Metrics.find name).Metrics.unit_)
    r.metrics;
  Printf.printf "  %-30s %16.6g ratio (%d of %d requests)\n" "failed_ratio"
    (float_of_int r.failed /. float_of_int (max 1 r.attempted))
    r.failed r.attempted;
  List.iter (fun (k, n) -> Printf.printf "  samples: %s = %d\n" k n) r.samples;
  List.iter (fun e -> Printf.printf "  CHECK FAILED: %s\n" e) r.errors

let out_dir = ".perfbench_out"

let ensure_out_dir () = if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755

(* Append the stamped record to the results log; a traced run also
   writes its spans. *)
let save r ~seconds =
  ensure_out_dir ();
  let header = stamp ~workload:r.workload ~seed:r.seed ~seconds ~traced:r.traced in
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 (Filename.concat out_dir "results.jsonl") in
  Printf.fprintf oc "{\"stamp\": %s, \"result\": %s}\n" header (result_line r);
  close_out oc;
  match r.spans with
  | None -> ()
  | Some t ->
      let path = Filename.concat out_dir (Printf.sprintf "spans-%s-seed%d.jsonl" r.workload r.seed) in
      Trace.write t ~path ~header;
      Printf.printf "  spans: %d recorded (%d dropped) -> %s\n" (Trace.length t) (Trace.dropped t) path;
      List.iter
        (fun (layer, ns) -> Printf.printf "  self time %-10s %12.3f ms\n" layer (float_of_int ns /. 1e6))
        (Trace.self_by_layer t)
