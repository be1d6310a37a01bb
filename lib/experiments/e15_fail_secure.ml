(* E15 — fail-secure under deterministic fault injection.

   The paper's engineering argument for a certifiable kernel rests on
   the system failing CLOSED: whatever goes wrong inside the kernel —
   parity errors, device transients, aborted gate calls, crashed
   processes — the worst outcome for security is a refusal, never a
   grant; and after a crash the salvager restores a hierarchy every
   descriptor of which agrees with the access records.

   Two legs, both driven by seeded fault plans (lib/fault):

   - the GATE leg runs a randomized two-user workload through the
     typed dispatch API under a random gate.deny/gate.abort plan,
     checks every granted content access against the recomputed
     policy (invariant 1), then salvages and checks every surviving
     descriptor against the reference monitor plus the standing
     attack probe (invariant 2);

   - the VM leg runs page-fault traffic plus the backup daemon under
     storage/tape/crash faults and checks that page conservation and
     the vulnerable-page accounting survive.

   The injected/denied/salvaged totals come from the lib/obs global
   registry, the same counters the shell's [stats] command reads. *)

open Multics_access
open Multics_fs
open Multics_kernel
open Multics_mm
open Multics_proc
open Multics_vm
module Call = Api.Call
module Fault = Multics_fault.Fault
module Prng = Multics_util.Prng
module Obs = Multics_obs.Obs

let id = "E15"

let title = "Fail-secure: randomized workloads under seeded fault plans"

let paper_claim =
  "a security kernel must fail closed: no internal fault may produce an access the \
   reference monitor would refuse, and after a crash the salvager restores a hierarchy \
   consistent with the access records"

(* ----- Gate leg ----- *)

type gate_outcome = {
  seed : int;
  plan_spec : string;
  ops : int;
  granted : int;
  refused : int;
  injected : int;
  journaled : int;  (** gate aborts recorded for the salvager *)
  violations : int;  (** invariant 1: granted accesses policy would refuse *)
  probe_leaks : int;  (** the standing attack probe succeeded mid-faults *)
  report : Salvager.report;
  post_salvage_bad : int;  (** invariant 2: descriptors disagreeing with policy *)
  post_salvage_probe_leaks : int;
}

let fail_secure (o : gate_outcome) =
  o.violations = 0 && o.probe_leaks = 0 && o.post_salvage_bad = 0
  && o.post_salvage_probe_leaks = 0
  && o.report.Salvager.quota_ok

(* A random plan always attacks the gate layer; the other sites ride
   along when the coin lands that way (they are exercised fully by the
   VM leg). *)
let random_gate_plan ~seed =
  let prng = Prng.create_labeled ~seed ~label:"e15.plan" in
  let sched () =
    match Prng.int prng 3 with
    | 0 -> Fault.Nth (1 + Prng.int prng 12)
    | 1 -> Fault.Every (2 + Prng.int prng 6)
    | _ -> Fault.Probability { num = 1; den = 3 + Prng.int prng 6 }
  in
  let rules =
    [ (Fault.Gate_abort, sched ()) ]
    @ (if Prng.bool prng then [ (Fault.Gate_deny, sched ()) ] else [])
    @ if Prng.bool prng then [ (Fault.Device_transient, sched ()) ] else []
  in
  Fault.Plan.make ~seed rules

let reply what = function
  | Ok reply -> reply
  | Error e -> failwith (Printf.sprintf "E15 %s: %s" what (Api.error_to_string e))

let expect_done what response = match reply what response with
  | Call.Done -> ()
  | _ -> failwith (Printf.sprintf "E15 %s: unexpected reply shape" what)

let expect_segno what response = match reply what response with
  | Call.Segno segno -> segno
  | _ -> failwith (Printf.sprintf "E15 %s: unexpected reply shape" what)

let boot () =
  let system = System.create Config.kernel_6180 in
  ignore
    (System.add_account system ~person:"Alice" ~project:"Dev" ~password:"pw"
       ~clearance:Label.unclassified);
  ignore
    (System.add_account system ~person:"Bob" ~project:"Dev" ~password:"pw"
       ~clearance:Label.unclassified);
  let login person =
    match System.login system ~person ~project:"Dev" ~password:"pw" with
    | Ok handle -> handle
    | Error e -> failwith (System.login_error_to_string e)
  in
  let alice = login "Alice" in
  let bob = login "Bob" in
  (system, alice, bob)

let home_segno system handle =
  match System.proc system handle with
  | Some p -> System.install_known system p ~uid:p.System.working_dir
  | None -> failwith "E15: handle vanished"

(* The standing attack probe: Bob tries to read Alice's private
   segment.  Policy refuses him fault-free (owner-only ACL), so ANY
   success, under any fault plan, is a fail-open leak. *)
let probe_leaks_once system ~bob ~alice_home_uid =
  let dir_segno =
    match System.proc system bob with
    | Some p -> System.install_known system p ~uid:alice_home_uid
    | None -> failwith "E15: bob vanished"
  in
  match Call.dispatch system ~handle:bob (Call.Initiate { dir_segno; name = "private" }) with
  | Error _ -> false
  | Ok (Call.Segno segno) -> (
      match Call.dispatch system ~handle:bob (Call.Read_word { segno; offset = 0 }) with
      | Ok _ -> true
      | Error _ -> false)
  | Ok _ -> false

(* Invariant 1 oracle: a granted content access is re-validated
   against the policy recomputed from ACL x label x brackets — not
   against the cached SDW the grant came from. *)
let oracle_refuses system handle segno ~write =
  match System.proc system handle with
  | None -> true
  | Some p -> (
      match Kst.uid_of_segno p.System.kst segno with
      | Error _ -> true
      | Ok uid ->
          let m =
            Hierarchy.effective_mode (System.hierarchy system) ~subject:(System.subject_of p)
              ~uid
          in
          not (if write then m.Multics_machine.Mode.write else m.Multics_machine.Mode.read))

let owner_only person = Acl.of_strings [ (Printf.sprintf "%s.Dev.*" person, "rew") ]

let run_gate_pair ?(ops = 40) ~seed () =
  let system, alice, bob = boot () in
  let alice_home = home_segno system alice in
  let bob_home = home_segno system bob in
  let alice_home_uid =
    match System.proc system alice with
    | Some p -> p.System.working_dir
    | None -> failwith "E15: alice vanished"
  in
  (* Fault-free setup: the probe target exists before any plan runs. *)
  let secret =
    expect_segno "create private"
      (Call.dispatch system ~handle:alice
         (Call.Create_segment
            {
              dir_segno = alice_home;
              name = "private";
              acl = owner_only "Alice";
              label = Label.unclassified;
              brackets = None;
            }))
  in
  expect_done "seed private"
    (Call.dispatch system ~handle:alice (Call.Write_word { segno = secret; offset = 0; value = 1975 }));
  assert (not (probe_leaks_once system ~bob ~alice_home_uid));
  (* Install the plan through the gate itself (round-trips the spec). *)
  let plan = random_gate_plan ~seed in
  let plan_spec = Fault.Plan.to_string plan in
  expect_done "install plan"
    (Call.dispatch system ~handle:alice (Call.Set_fault_plan { seed; spec = plan_spec }));
  let prng = Prng.create_labeled ~seed ~label:"e15.workload" in
  let created = ref [] in
  (* (owner handle, home segno of owner, name, segno) *)
  let granted = ref 0 and refused = ref 0 and violations = ref 0 and probe_leaks = ref 0 in
  let note = function Ok _ -> incr granted | Error _ -> incr refused in
  for i = 1 to ops do
    match Prng.int prng 6 with
    | 0 ->
        let owner, home, person =
          if Prng.bool prng then (alice, alice_home, "Alice") else (bob, bob_home, "Bob")
        in
        let name = Printf.sprintf "s%d" i in
        let acl =
          if Prng.bool prng then owner_only person
          else Acl.add_string (owner_only person) ~pattern:"*.Dev.*" ~mode:"r"
        in
        let result =
          Call.dispatch system ~handle:owner
            (Call.Create_segment
               { dir_segno = home; name; acl; label = Label.unclassified; brackets = None })
        in
        note result;
        (match result with
        | Ok (Call.Segno segno) -> created := (owner, home, name, segno) :: !created
        | Ok _ | Error _ -> ())
    | 1 -> (
        match !created with
        | [] -> ()
        | segs ->
            let owner, _, _, segno = Prng.choose prng segs in
            let result =
              Call.dispatch system ~handle:owner
                (Call.Write_word { segno; offset = Prng.int prng 4; value = i })
            in
            note result;
            if Result.is_ok result && oracle_refuses system owner segno ~write:true then
              incr violations)
    | 2 -> (
        match !created with
        | [] -> ()
        | segs ->
            let owner, _, _, segno = Prng.choose prng segs in
            let result =
              Call.dispatch system ~handle:owner
                (Call.Read_word { segno; offset = Prng.int prng 4 })
            in
            note result;
            if Result.is_ok result && oracle_refuses system owner segno ~write:false then
              incr violations)
    | 3 -> if probe_leaks_once system ~bob ~alice_home_uid then incr probe_leaks
    | 4 -> (
        match !created with
        | [] -> ()
        | segs ->
            let owner, _, _, segno = Prng.choose prng segs in
            let person = if owner = alice then "Alice" else "Bob" in
            let acl =
              if Prng.bool prng then owner_only person
              else Acl.add_string (owner_only person) ~pattern:"*.Dev.*" ~mode:"r"
            in
            note (Call.dispatch system ~handle:owner (Call.Set_acl { segno; acl })))
    | _ -> (
        match !created with
        | [] -> ()
        | segs ->
            let ((owner, home, name, _segno) as seg) = Prng.choose prng segs in
            let result =
              Call.dispatch system ~handle:owner (Call.Delete_entry { dir_segno = home; name })
            in
            note result;
            if Result.is_ok result then created := List.filter (fun s -> s <> seg) !created)
  done;
  let injected =
    match System.faults system with Some inj -> Fault.Injector.injected inj | None -> 0
  in
  let journaled = List.length (System.crash_journal system) in
  (* Crash over: clear the plan, then salvage — the invariant-2 sweep
     must hold without fault noise masking a bad descriptor. *)
  expect_done "clear plan" (Call.dispatch system ~handle:alice Call.Clear_faults);
  let report =
    match reply "salvage" (Call.dispatch system ~handle:alice Call.Salvage) with
    | Call.Salvaged report -> report
    | _ -> failwith "E15 salvage: unexpected reply shape"
  in
  let post_salvage_bad = Salvager.descriptor_disagreements system in
  let post_salvage_probe_leaks =
    if probe_leaks_once system ~bob ~alice_home_uid then 1 else 0
  in
  {
    seed;
    plan_spec;
    ops;
    granted = !granted;
    refused = !refused;
    injected;
    journaled;
    violations = !violations;
    probe_leaks = !probe_leaks;
    report;
    post_salvage_bad;
    post_salvage_probe_leaks;
  }

(* ----- VM leg ----- *)

type vm_outcome = {
  vm_seed : int;
  vm_injected : int;
  vm_retries : int;
  vm_giveups : int;
  tape_errors : int;
  vulnerable : int;
  crashed_procs : int;
  conservation_ok : bool;
}

let run_vm_pair ~seed () =
  let sim = Sim.create ~cost:Multics_machine.Cost.h6180 ~virtual_processors:4 in
  let mem = Memory.create ~cost:Multics_machine.Cost.h6180 ~core:4 ~bulk:8 ~disk:64 in
  let inj =
    Fault.Injector.create
      (Fault.Plan.make ~seed
         [
           (Fault.Page_read, Fault.Every 3);
           (Fault.Page_write, Fault.Nth 2);
           (Fault.Evict, Fault.Every 4);
           (Fault.Backup_tape, Fault.Probability { num = 1; den = 3 });
           (Fault.Proc_crash, Fault.Nth 70);
         ])
  in
  Sim.set_faults sim (Some inj);
  let pc = Page_control.create ~faults:inj sim ~mem ~discipline:Page_control.Sequential in
  let backup = Backup.start_exn ~faults:inj ~period:40_000 ~sweeps:3 sim ~mem in
  let prng = Prng.create_labeled ~seed ~label:"e15.vm" in
  for w = 0 to 1 do
    ignore
      (Sim.spawn sim
         ~name:(Printf.sprintf "e15.worker%d" w)
         (fun pid ->
           for i = 1 to 60 do
             let page = Page_id.make ~seg_uid:(100 + w) ~page_no:(Prng.int prng 6) in
             ignore (Page_control.reference ~write:(i mod 2 = 0) pc ~pid ~page)
           done))
  done;
  Sim.run sim;
  let crashed =
    List.length
      (List.filter
         (fun pid ->
           match Sim.failure_of sim pid with
           | Some text ->
               (* substring match: the exception renders module-qualified *)
               let needle = "Process_crashed" in
               let rec find i =
                 i + String.length needle <= String.length text
                 && (String.sub text i (String.length needle) = needle || find (i + 1))
               in
               find 0
           | None -> false)
         (Sim.processes sim))
  in
  {
    vm_seed = seed;
    vm_injected = Fault.Injector.injected inj;
    vm_retries = Fault.Injector.retries inj;
    vm_giveups = Fault.Injector.giveups inj;
    tape_errors = Backup.tape_errors backup;
    vulnerable = List.length (Backup.vulnerable_pages backup);
    crashed_procs = crashed;
    conservation_ok = Memory.check_conservation mem;
  }

(* ----- Rendering ----- *)

let gate_seeds = [ 11; 23; 37; 41; 59; 67; 73; 89 ]

let vm_seeds = [ 5; 17 ]

let gate_table outcomes =
  let open Multics_util.Table in
  let t =
    create
      ~title:(Printf.sprintf "%s: %s (gate leg)" id title)
      ~columns:
        [
          ("seed", Right);
          ("plan", Left);
          ("granted", Right);
          ("refused", Right);
          ("injected", Right);
          ("journaled", Right);
          ("rolled back", Right);
          ("repaired", Right);
          ("fail-secure", Left);
        ]
  in
  List.iter
    (fun o ->
      add_row t
        [
          string_of_int o.seed;
          o.plan_spec;
          string_of_int o.granted;
          string_of_int o.refused;
          string_of_int o.injected;
          string_of_int o.journaled;
          string_of_int o.report.Salvager.rolled_back;
          string_of_int o.report.Salvager.descriptors_repaired;
          (if fail_secure o then "yes" else "NO — FAILED OPEN");
        ])
    outcomes;
  t

let vm_table outcomes =
  let open Multics_util.Table in
  let t =
    create ~title:(Printf.sprintf "%s: storage/tape/crash faults (VM leg)" id)
      ~columns:
        [
          ("seed", Right);
          ("injected", Right);
          ("retries", Right);
          ("giveups", Right);
          ("tape errors", Right);
          ("vulnerable", Right);
          ("crashed procs", Right);
          ("conservation", Left);
        ]
  in
  List.iter
    (fun o ->
      add_row t
        [
          string_of_int o.vm_seed;
          string_of_int o.vm_injected;
          string_of_int o.vm_retries;
          string_of_int o.vm_giveups;
          string_of_int o.tape_errors;
          string_of_int o.vulnerable;
          string_of_int o.crashed_procs;
          (if o.conservation_ok then "ok" else "VIOLATED");
        ])
    outcomes;
  t

let obs_counts () =
  let get = Obs.Snapshot.counter (Obs.Snapshot.capture ()) in
  [
    ("fault.checks", get "fault.checks");
    ("fault.injected", get "fault.injected");
    ("fault.retries", get "fault.retries");
    ("fault.giveups", get "fault.giveups");
    ("gate.refusals", get "gate.refusals");
    ("salvage.runs", get "salvage.runs");
    ("salvage.rolled_back", get "salvage.rolled_back");
    ("salvage.dangling_dropped", get "salvage.dangling_dropped");
    ("salvage.descriptors_repaired", get "salvage.descriptors_repaired");
    ("backup.tape_errors", get "backup.tape_errors");
  ]

let obs_table () =
  let open Multics_util.Table in
  let t =
    create ~title:(Printf.sprintf "%s: lib/obs totals for this run" id)
      ~columns:[ ("counter", Left); ("value", Right) ]
  in
  List.iter (fun (name, v) -> add_row t [ name; string_of_int v ]) (obs_counts ());
  t

let render () =
  let gates = Multics_par.Par.map (fun seed -> run_gate_pair ~seed ()) gate_seeds in
  let vms = Multics_par.Par.map (fun seed -> run_vm_pair ~seed ()) vm_seeds in
  let all_secure = List.for_all fail_secure gates in
  let verdict =
    Printf.sprintf "verdict: %d/%d seeded gate runs fail-secure%s"
      (List.length (List.filter fail_secure gates))
      (List.length gates)
      (if all_secure then " — the kernel never failed open" else " — FAIL-OPEN DETECTED")
  in
  String.concat "\n"
    [
      Multics_util.Table.render (gate_table gates);
      "";
      Multics_util.Table.render (vm_table vms);
      "";
      Multics_util.Table.render (obs_table ());
      "";
      verdict;
    ]
