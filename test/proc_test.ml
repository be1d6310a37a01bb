(* Tests for Multics_proc: the event queue, the two-layer scheduler,
   IPC channels, dedicated virtual processors, and perturbation. *)

open Multics_proc

let make_sim ?(vps = 4) () = Sim.create ~cost:Multics_machine.Cost.h6180 ~virtual_processors:vps

let test_event_queue_order () =
  let q = Event_queue.create () in
  Event_queue.push q ~time:30 "c";
  Event_queue.push q ~time:10 "a";
  Event_queue.push q ~time:20 "b";
  Event_queue.push q ~time:10 "a2";
  let drain () =
    let rec loop acc =
      match Event_queue.pop q with None -> List.rev acc | Some (_, x) -> loop (x :: acc)
    in
    loop []
  in
  Alcotest.(check (list string)) "time order, ties FIFO" [ "a"; "a2"; "b"; "c" ] (drain ())

let test_event_queue_empty () =
  let q = Event_queue.create () in
  Alcotest.(check bool) "empty" true (Event_queue.is_empty q);
  Alcotest.(check (option int)) "no peek" None (Event_queue.peek_time q)

let test_single_process_runs () =
  let sim = make_sim () in
  let done_flag = ref false in
  let _pid =
    Sim.spawn sim ~name:"worker" (fun _ ->
        Sim.compute 100;
        done_flag := true)
  in
  Sim.run sim;
  Alcotest.(check bool) "ran to completion" true !done_flag;
  Alcotest.(check bool) "clock advanced" true (Sim.now sim >= 100)

let test_compute_accumulates_cycles () =
  let sim = make_sim () in
  let pid =
    Sim.spawn sim ~name:"worker" (fun _ ->
        Sim.compute 50;
        Sim.compute 70)
  in
  Sim.run sim;
  Alcotest.(check int) "cycles tracked" 120 (Sim.cycles_of sim pid)

let test_block_wakeup () =
  let sim = make_sim () in
  let chan = Sim.new_channel sim ~name:"data" in
  let got = ref (-1) in
  let _consumer =
    Sim.spawn sim ~name:"consumer" (fun _ ->
        Sim.block chan;
        got := Sim.now sim)
  in
  let _producer =
    Sim.spawn sim ~name:"producer" (fun _ ->
        Sim.compute 500;
        Sim.wakeup sim chan)
  in
  Sim.run sim;
  Alcotest.(check bool) "woken after producer computed" true (!got >= 500)

let test_counted_wakeups () =
  (* A wakeup sent before anyone blocks must satisfy the next block. *)
  let sim = make_sim () in
  let chan = Sim.new_channel sim ~name:"pending" in
  Sim.wakeup sim chan;
  Alcotest.(check int) "recorded pending" 1 (Sim.pending_wakeups chan);
  let passed = ref false in
  let _p =
    Sim.spawn sim ~name:"late-blocker" (fun _ ->
        Sim.block chan;
        passed := true)
  in
  Sim.run sim;
  Alcotest.(check bool) "block returned at once" true !passed;
  Alcotest.(check int) "pending consumed" 0 (Sim.pending_wakeups chan)

let test_fifo_wakeup_order () =
  let sim = make_sim ~vps:4 () in
  let chan = Sim.new_channel sim ~name:"queue" in
  let order = ref [] in
  let waiter name =
    ignore
      (Sim.spawn sim ~name (fun _ ->
           Sim.block chan;
           order := name :: !order))
  in
  waiter "first";
  waiter "second";
  waiter "third";
  Sim.at sim ~delay:10 (fun () -> Sim.wakeup sim chan);
  Sim.at sim ~delay:20 (fun () -> Sim.wakeup sim chan);
  Sim.at sim ~delay:30 (fun () -> Sim.wakeup sim chan);
  Sim.run sim;
  Alcotest.(check (list string)) "FIFO" [ "first"; "second"; "third" ] (List.rev !order)

let test_broadcast () =
  let sim = make_sim ~vps:4 () in
  let chan = Sim.new_channel sim ~name:"all" in
  let woken = ref 0 in
  for i = 1 to 3 do
    ignore
      (Sim.spawn sim
         ~name:(Printf.sprintf "w%d" i)
         (fun _ ->
           Sim.block chan;
           incr woken))
  done;
  (* Fire well after every waiter has been dispatched and blocked
     (dispatch itself costs a process switch). *)
  Sim.at sim ~delay:5_000 (fun () -> Sim.broadcast sim chan);
  Sim.run sim;
  Alcotest.(check int) "all woken" 3 !woken;
  Alcotest.(check int) "broadcast leaves no pending" 0 (Sim.pending_wakeups chan)

let test_vp_limit_serializes () =
  (* With one shared VP, two compute-bound processes cannot overlap:
     total elapsed time is at least the sum of their compute times. *)
  let sim = make_sim ~vps:1 () in
  ignore (Sim.spawn sim ~name:"a" (fun _ -> Sim.compute 1000));
  ignore (Sim.spawn sim ~name:"b" (fun _ -> Sim.compute 1000));
  Sim.run sim;
  Alcotest.(check bool) "serialized" true (Sim.now sim >= 2000)

let test_vps_allow_overlap () =
  let sim = make_sim ~vps:2 () in
  ignore (Sim.spawn sim ~name:"a" (fun _ -> Sim.compute 1000));
  ignore (Sim.spawn sim ~name:"b" (fun _ -> Sim.compute 1000));
  Sim.run sim;
  let switch = (Sim.cost_model sim).Multics_machine.Cost.process_switch in
  Alcotest.(check bool) "overlapped" true (Sim.now sim < 2000 + (2 * switch))

let test_dedicated_vp_reserved () =
  (* A dedicated kernel process must be schedulable even when ordinary
     processes saturate the shared VP pool. *)
  let sim = make_sim ~vps:2 () in
  let chan = Sim.new_channel sim ~name:"kick" in
  let served = ref 0 in
  ignore
    (Sim.spawn sim ~dedicated:true ~ring:Multics_machine.Ring.kernel ~name:"core-freer"
       (fun _ ->
         for _ = 1 to 3 do
           Sim.block chan;
           incr served;
           Sim.compute 10
         done));
  (* One shared VP remains; occupy it with a long computation. *)
  ignore (Sim.spawn sim ~name:"hog" (fun _ -> Sim.compute 100_000));
  Sim.at sim ~delay:100 (fun () -> Sim.wakeup sim chan);
  Sim.at sim ~delay:200 (fun () -> Sim.wakeup sim chan);
  Sim.at sim ~delay:300 (fun () -> Sim.wakeup sim chan);
  Sim.run sim;
  Alcotest.(check int) "kernel process served while hog ran" 3 !served

let test_spawn_dedicated_exhaustion () =
  let sim = make_sim ~vps:1 () in
  ignore (Sim.spawn sim ~dedicated:true ~name:"d1" (fun _ -> ()));
  Alcotest.(check bool) "second dedication fails" true
    (try
       ignore (Sim.spawn sim ~dedicated:true ~name:"d2" (fun _ -> ()));
       false
     with Invalid_argument _ -> true)

let test_exit_channel () =
  let sim = make_sim () in
  let observed = ref false in
  let worker = Sim.spawn sim ~name:"short" (fun _ -> Sim.compute 10) in
  ignore
    (Sim.spawn sim ~name:"watcher" (fun _ ->
         Sim.block (Sim.exit_channel sim worker);
         observed := true));
  Sim.run sim;
  Alcotest.(check bool) "exit observed" true !observed;
  Alcotest.(check bool) "terminated" true (Sim.state_of sim worker = Sim.Terminated)

let test_process_fault_contained () =
  let sim = make_sim () in
  let bad = Sim.spawn sim ~name:"crasher" (fun _ -> failwith "boom") in
  let ok = Sim.spawn sim ~name:"survivor" (fun _ -> Sim.compute 10) in
  Sim.run sim;
  Alcotest.(check bool) "failure recorded" true (Sim.failure_of sim bad <> None);
  Alcotest.(check bool) "other process unaffected" true (Sim.failure_of sim ok = None)

let test_perturbation () =
  let sim = make_sim () in
  let pid =
    Sim.spawn sim ~name:"victim" (fun _ ->
        Sim.compute 100;
        Sim.compute 100)
  in
  (* Inject stolen cycles while the victim is mid-computation. *)
  Sim.at sim ~delay:50 (fun () -> Sim.perturb sim pid 500);
  Sim.run sim;
  Alcotest.(check int) "perturbation counted" 1 (Sim.perturbations_of sim pid);
  Alcotest.(check int) "stolen cycles charged" 700 (Sim.cycles_of sim pid);
  Alcotest.(check bool) "completion delayed" true (Sim.now sim >= 700)

let test_deadlock_detection () =
  let sim = make_sim () in
  let chan = Sim.new_channel sim ~name:"never" in
  let stuck = Sim.spawn sim ~name:"stuck" (fun _ -> Sim.block chan) in
  Sim.run sim;
  Alcotest.(check (list int)) "blocked process reported" [ stuck ] (Sim.blocked_pids sim);
  Alcotest.(check bool) "quiescent" true (Sim.quiescent sim)

let test_run_until () =
  let sim = make_sim () in
  let steps = ref 0 in
  ignore
    (Sim.spawn sim ~name:"ticker" (fun _ ->
         for _ = 1 to 10 do
           Sim.compute 100;
           incr steps
         done));
  (* The ticker is dispatched at t = process_switch (900) and completes
     a step every 100 cycles after that. *)
  Sim.run_until sim ~time:1_350;
  let mid = !steps in
  Alcotest.(check bool) "partial progress" true (mid > 0 && mid < 10);
  Alcotest.(check int) "clock at boundary" 1_350 (Sim.now sim);
  Sim.run sim;
  Alcotest.(check int) "completed" 10 !steps

let test_determinism () =
  let trace_of () =
    let sim = make_sim ~vps:2 () in
    let chan = Sim.new_channel sim ~name:"c" in
    let log = ref [] in
    ignore
      (Sim.spawn sim ~name:"a" (fun _ ->
           Sim.compute 30;
           Sim.wakeup sim chan;
           log := ("a", Sim.now sim) :: !log));
    ignore
      (Sim.spawn sim ~name:"b" (fun _ ->
           Sim.block chan;
           Sim.compute 20;
           log := ("b", Sim.now sim) :: !log));
    ignore
      (Sim.spawn sim ~name:"c" (fun _ ->
           Sim.compute 25;
           log := ("c", Sim.now sim) :: !log));
    Sim.run sim;
    List.rev !log
  in
  Alcotest.(check (list (pair string int))) "identical traces" (trace_of ()) (trace_of ())

(* ----- Tracing and the process table -----

   A scripted run that passes every traced transition: spawns, a block,
   a delivered and a pending wakeup, two preemptions (a FIFO controller
   with a 100-cycle quantum against a 250-cycle compute), a fault and
   the exits.  [probe] runs at each of those points. *)

let scripted_run ?(probe = ignore) ~trace () =
  let sim = make_sim ~vps:1 () in
  let ready = Queue.create () in
  Sim.set_scheduler sim
    (Some
       {
         Sim.sched_name = "fifo-q100";
         sched_enqueue = (fun pid -> Queue.push pid ready);
         sched_select = (fun ~vp:_ -> Queue.take_opt ready);
         sched_quantum = (fun _ -> 100);
         sched_quantum_expired = (fun _ ~preempted:_ -> ());
         sched_blocked = ignore;
         sched_retired = ignore;
         sched_backlog = (fun () -> Queue.length ready);
       });
  Sim.set_trace sim trace;
  let data = Sim.new_channel sim ~name:"data" in
  let idle = Sim.new_channel sim ~name:"idle" in
  ignore
    (Sim.spawn sim ~name:"waiter" (fun _ ->
         probe sim;
         Sim.block data;
         probe sim;
         Sim.compute 10));
  probe sim;
  ignore
    (Sim.spawn sim ~name:"cruncher" (fun _ ->
         Sim.compute 250;
         probe sim;
         Sim.wakeup sim data;
         probe sim));
  ignore
    (Sim.spawn sim ~name:"crasher" (fun _ ->
         probe sim;
         failwith "boom"));
  Sim.at sim ~delay:50 (fun () ->
      Sim.wakeup sim idle;
      probe sim);
  Sim.run sim;
  probe sim;
  sim

let scripted_trace =
  [
    (0, "spawn waiter (pid 1)");
    (0, "spawn cruncher (pid 2)");
    (0, "spawn crasher (pid 3)");
    (50, "wakeup idle (pending)");
    (900, "waiter blocks on data");
    (1900, "preempt cruncher (150 cycles owed)");
    (2800, "fault in crasher: Failure(\"boom\")");
    (2800, "exit crasher");
    (3800, "preempt cruncher (50 cycles owed)");
    (4750, "wakeup data -> waiter");
    (4750, "exit cruncher");
    (5660, "exit waiter");
  ]

let scripted_counters =
  [
    ("dispatches", 6);
    ("preemptions", 2);
    ("process_faults", 1);
    ("quantum_expiries", 2);
    ("spawns", 3);
    ("terminations", 3);
    ("wakeups_delivered", 1);
    ("wakeups_pending", 1);
  ]

(* A [%a] printer that counts its calls: tracing off must never reach
   it, whatever the simulator is doing around the call. *)
let counting_probe () =
  let calls = ref 0 in
  let pp ppf () =
    incr calls;
    Format.pp_print_string ppf "probe"
  in
  (calls, fun sim -> Sim.tracef sim "%a" pp ())

let test_trace_off_is_one_branch () =
  let calls, probe = counting_probe () in
  let sim = scripted_run ~probe ~trace:false () in
  Alcotest.(check int) "printer never called" 0 !calls;
  Alcotest.(check int) "no lines" 0 (List.length (Sim.trace_lines sim));
  Alcotest.(check (list (pair string int)))
    "the run passed every traced transition" scripted_counters
    (Multics_util.Stats.Counters.to_alist (Sim.counters sim))

let test_trace_on_lines () =
  let calls, probe = counting_probe () in
  let sim = scripted_run ~probe ~trace:true () in
  Alcotest.(check int) "printer called at every probe" 8 !calls;
  let lines = Sim.trace_lines sim in
  Alcotest.(check int) "probe lines recorded" 8
    (List.length (List.filter (fun (_, l) -> l = "probe") lines));
  Alcotest.(check (list (pair int string)))
    "simulator lines" scripted_trace
    (List.filter (fun (_, l) -> l <> "probe") lines)

let test_counters_rendered () =
  let sim = scripted_run ~trace:false () in
  let c = Sim.counters sim in
  Alcotest.(check (list (pair string int)))
    "names and values" scripted_counters (Multics_util.Stats.Counters.to_alist c);
  let fresh = Sim.counters (make_sim ()) in
  Alcotest.(check (list (pair string int)))
    "untouched tallies absent" [] (Multics_util.Stats.Counters.to_alist fresh);
  List.iter
    (fun (name, _) ->
      Alcotest.(check int) (name ^ " reads 0") 0 (Multics_util.Stats.Counters.get fresh name))
    scripted_counters

let test_process_table_contract () =
  let sim = make_sim ~vps:2 () in
  let c = Sim.new_channel sim ~name:"c" in
  let k1 = Sim.spawn sim ~dedicated:true ~name:"k1" (fun _ -> Sim.block c) in
  let s2 = Sim.spawn sim ~name:"s2" (fun _ -> Sim.block c) in
  (* No VP left to dedicate: the spawn fails but consumes pid 3. *)
  Alcotest.(check bool) "dedication refused" true
    (try
       ignore (Sim.spawn sim ~dedicated:true ~name:"k3" (fun _ -> ()));
       false
     with Invalid_argument _ -> true);
  let s4 = Sim.spawn sim ~name:"s4" (fun _ -> Sim.compute 5) in
  let s5 = Sim.spawn sim ~name:"s5" (fun _ -> Sim.block c) in
  let s6 = Sim.spawn sim ~name:"s6" (fun _ -> Sim.block c) in
  Sim.run sim;
  Alcotest.(check (list int)) "pids minted in order" [ 1; 2; 4; 5; 6 ] [ k1; s2; s4; s5; s6 ];
  Alcotest.(check (list int)) "processes ascending" [ 1; 2; 4; 5; 6 ] (Sim.processes sim);
  Alcotest.(check (list int)) "blocked ascending" [ 1; 2; 5; 6 ] (Sim.blocked_pids sim);
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  List.iter
    (fun pid ->
      Alcotest.(check bool) (Printf.sprintf "name_of %d" pid) true
        (raises (fun () -> Sim.name_of sim pid));
      Alcotest.(check bool) (Printf.sprintf "state_of %d" pid) true
        (raises (fun () -> Sim.state_of sim pid)))
    [ 0; -1; 3; 7 ];
  Alcotest.(check string) "a live pid still resolves" "s6" (Sim.name_of sim s6)

(* Property: with k shared VPs and n identical compute-bound processes,
   the makespan never beats the work bound (n*work)/k. *)
let makespan_prop =
  let gen = QCheck.Gen.(pair (int_range 1 4) (int_range 1 12)) in
  QCheck.Test.make ~name:"makespan respects VP capacity" ~count:50 (QCheck.make gen)
    (fun (vps, n) ->
      let sim = Sim.create ~cost:Multics_machine.Cost.h6180 ~virtual_processors:vps in
      for i = 1 to n do
        ignore (Sim.spawn sim ~name:(Printf.sprintf "p%d" i) (fun _ -> Sim.compute 1000))
      done;
      Sim.run sim;
      let lower_bound = 1000 * ((n + vps - 1) / vps) in
      Sim.now sim >= lower_bound)

let suite =
  [
    ("event queue order", `Quick, test_event_queue_order);
    ("event queue empty", `Quick, test_event_queue_empty);
    ("single process", `Quick, test_single_process_runs);
    ("compute accumulates", `Quick, test_compute_accumulates_cycles);
    ("block/wakeup", `Quick, test_block_wakeup);
    ("counted wakeups", `Quick, test_counted_wakeups);
    ("fifo wakeup order", `Quick, test_fifo_wakeup_order);
    ("broadcast", `Quick, test_broadcast);
    ("one VP serializes", `Quick, test_vp_limit_serializes);
    ("two VPs overlap", `Quick, test_vps_allow_overlap);
    ("dedicated VP reserved", `Quick, test_dedicated_vp_reserved);
    ("dedicated exhaustion", `Quick, test_spawn_dedicated_exhaustion);
    ("exit channel", `Quick, test_exit_channel);
    ("process fault contained", `Quick, test_process_fault_contained);
    ("perturbation", `Quick, test_perturbation);
    ("deadlock detection", `Quick, test_deadlock_detection);
    ("run_until", `Quick, test_run_until);
    ("determinism", `Quick, test_determinism);
    ("trace off is one branch", `Quick, test_trace_off_is_one_branch);
    ("trace on lines", `Quick, test_trace_on_lines);
    ("counters rendered", `Quick, test_counters_rendered);
    ("process table contract", `Quick, test_process_table_contract);
    QCheck_alcotest.to_alcotest makespan_prop;
  ]
