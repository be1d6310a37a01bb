(* A fixed script that reaches every [Api.Call.request] arm, admitted
   and refused (injected faults, a stripped gate and a missing process
   included), and renders the audit trail it leaves.  The trail test
   pins the rendering to test/trail_golden.expected, so a change to how
   records are stored cannot change a line of what they read as. *)

open Multics_access
open Multics_kernel
module Call = Api.Call

let run config =
  let sys = System.create config in
  List.iter
    (fun person ->
      ignore
        (System.add_account sys ~person ~project:"Dev" ~password:"pw"
           ~clearance:Label.unclassified))
    [ "Alice"; "Bob" ];
  let login person =
    match System.login sys ~person ~project:"Dev" ~password:"pw" with
    | Ok h -> h
    | Error e -> failwith (System.login_error_to_string e)
  in
  ignore (System.login sys ~person:"Alice" ~project:"Dev" ~password:"wrong");
  let alice = login "Alice" and bob = login "Bob" in
  let call ?(handle = alice) req = Call.dispatch sys ~handle req in
  let run ?handle req = ignore (call ?handle req) in
  let segno_of ?handle req =
    match call ?handle req with Ok (Call.Segno n) -> n | _ -> 999
  in
  let resolve handle path =
    match User_env.resolve_path sys ~handle ~path with Ok n -> n | Error _ -> 999
  in
  let home = resolve alice ">udd>Dev>Alice" in
  let acl = Acl.of_strings [ ("Alice.Dev.*", "rw"); ("Bob.Dev.*", "r") ] in
  let label = Label.unclassified in
  (* directory control *)
  run (Call.Initiate { dir_segno = home; name = "nope" });
  let data =
    segno_of (Call.Create_segment { dir_segno = home; name = "data"; acl; label; brackets = None })
  in
  run (Call.Create_segment { dir_segno = home; name = "data"; acl; label; brackets = None });
  run (Call.Create_directory { dir_segno = home; name = "sub"; acl; label });
  run (Call.Initiate { dir_segno = home; name = "data" });
  run (Call.Status_entry { dir_segno = home; name = "data" });
  run (Call.Status_entry { dir_segno = home; name = "zz" });
  run (Call.List_directory { dir_segno = home });
  run (Call.List_directory { dir_segno = 999 });
  run (Call.Rename_entry { dir_segno = home; name = "sub"; new_name = "sub2" });
  run (Call.Rename_entry { dir_segno = home; name = "missing"; new_name = "x" });
  run (Call.Set_acl { segno = data; acl });
  run (Call.Set_acl { segno = 999; acl });
  run (Call.Set_brackets { segno = data; brackets = Multics_machine.Brackets.user_data });
  run (Call.Set_brackets { segno = data; brackets = Multics_machine.Brackets.kernel_private });
  run (Call.Set_gate_bound { segno = data; gate_bound = 0 });
  run (Call.Set_quota { segno = home; quota = Some 100 });
  run (Call.Set_quota { segno = 999; quota = None });
  (* content references *)
  run (Call.Write_word { segno = data; offset = 5; value = 42 });
  run (Call.Read_word { segno = data; offset = 5 });
  run (Call.Read_word { segno = 999; offset = 0 });
  let bob_home = resolve bob ">udd>Dev>Alice" in
  let bob_data = segno_of ~handle:bob (Call.Initiate { dir_segno = bob_home; name = "data" }) in
  run ~handle:bob (Call.Read_word { segno = bob_data; offset = 5 });
  run ~handle:bob (Call.Write_word { segno = bob_data; offset = 5; value = 1 });
  (* naming *)
  let path = ">udd>Dev>Alice>data" in
  run (Call.Initiate_by_path { path });
  run (Call.Initiate_by_path { path = ">udd>Dev>Alice>nope" });
  run (Call.Create_segment_by_path { path = ">udd>Dev>Alice>p1"; acl; label; brackets = None });
  run (Call.Create_directory_by_path { path = ">udd>Dev>Alice>pd"; acl; label });
  run (Call.Delete_by_path { path = ">udd>Dev>Alice>p1" });
  run (Call.Set_acl_by_path { path; acl });
  run (Call.Set_brackets_by_path { path; brackets = Multics_machine.Brackets.user_data });
  run (Call.Resolve_path { path = ">udd>Dev>Alice" });
  run (Call.Terminate_by_path { path = ">udd>Dev>Alice>pd" });
  run (Call.Rnt_bind { name = "d"; segno = data });
  run (Call.Rnt_lookup { name = "d" });
  run (Call.Rnt_lookup { name = "nope" });
  run (Call.List_reference_names { segno = data });
  run (Call.Rnt_unbind { name = "d" });
  run Call.Get_working_dir;
  run (Call.Set_working_dir { dir_segno = home });
  run Call.Initiate_count;
  (* linker *)
  run (Call.Snap_link { segno = data; link_index = 0 });
  run (Call.List_links { segno = data });
  run (Call.Set_search_rules { dir_segnos = [ home ] });
  run (Call.Set_search_rules { dir_segnos = [ 999 ] });
  run Call.Get_search_rules;
  (* protected subsystems *)
  run (Call.Enter_subsystem { segno = data; entry_offset = 0; name = "sub" });
  run Call.Exit_subsystem;
  let hierarchy = System.hierarchy sys and admin = System.initializer_subject in
  (match
     Multics_fs.Hierarchy.create_segment
       ~brackets:(Multics_machine.Brackets.make ~r1:2 ~r2:2 ~r3:5)
       hierarchy ~subject:admin ~dir:(System.lib_dir sys) ~name:"mail"
       ~acl:(Acl.of_strings [ ("*.*.*", "re"); ("Initializer.*.*", "rew") ])
       ~label
   with
  | Ok uid ->
      ignore (Multics_fs.Hierarchy.set_gate_bound hierarchy ~subject:admin ~uid ~gate_bound:3)
  | Error _ -> ());
  let mail = resolve alice ">sl1>mail" in
  run (Call.Enter_subsystem { segno = mail; entry_offset = 1; name = "mail" });
  run (Call.Read_word { segno = data; offset = 5 });
  run Call.Exit_subsystem;
  (* IPC *)
  let channel = match call Call.Create_channel with Ok (Call.Channel c) -> c | _ -> 999 in
  run (Call.Send_wakeup { channel });
  run (Call.Block { channel });
  run (Call.Block { channel });
  run (Call.Send_wakeup { channel = 999 });
  (* external I/O *)
  let device = Multics_io.Device.Terminal in
  run (Call.Attach_device { device });
  run (Call.Device_write { device; message = 7 });
  run (Call.Device_read { device });
  run (Call.Detach_device { device });
  run (Call.Detach_device { device });
  run (Call.Device_read { device = Multics_io.Device.Tape });
  (* process management *)
  let child = match call Call.Create_process with Ok (Call.Process c) -> c | _ -> 999 in
  run Call.Proc_info;
  run Call.List_processes;
  run (Call.Operator_message { message = "hello" });
  let fresh = match call ~handle:child Call.New_proc with Ok (Call.Process c) -> c | _ -> 999 in
  run (Call.Destroy_process { target = fresh });
  run (Call.Destroy_process { target = 12345 });
  run ~handle:12345 Call.Proc_info;
  (* fault injection and salvage *)
  run (Call.Set_fault_plan { seed = 1; spec = "gate.deny=every:1" });
  run (Call.Read_word { segno = data; offset = 5 });
  run Call.Fault_status;
  run Call.Clear_faults;
  run (Call.Set_fault_plan { seed = 1; spec = "no.such.site=every:1" });
  run (Call.Set_fault_plan { seed = 1; spec = "gate.abort=every:1" });
  run (Call.Create_segment { dir_segno = home; name = "torn"; acl; label; brackets = None });
  run Call.Clear_faults;
  run Call.Salvage;
  (* caches, scheduler, plant *)
  run (Call.Probe_access { segno = data; requested = Multics_machine.Mode.r });
  run (Call.Probe_access { segno = 999; requested = Multics_machine.Mode.rw });
  run Call.Cache_status;
  run Call.Cache_clear;
  run Call.Sched_status;
  run (Call.Sched_tune { param = "cap"; value = 3 });
  run Call.Smp_status;
  (* a specialisation that strips everything but read_word *)
  System.set_gate_mask sys (Some (System.gate_mask_make ~name:"reads" ~gates:[ "read_word" ]));
  run (Call.List_directory { dir_segno = home });
  run (Call.Read_word { segno = data; offset = 5 });
  System.set_gate_mask sys None;
  (* teardown *)
  run (Call.Terminate { segno = data });
  run (Call.Terminate { segno = data });
  run (Call.Delete_entry { dir_segno = home; name = "data" });
  run (Call.Delete_entry { dir_segno = home; name = "data" });
  ignore (System.logout sys ~handle:bob);
  List.map (Fmt.str "%a" Audit_log.pp_record) (Audit_log.records (System.audit sys))

let configs = [ Config.baseline_645; Config.kernel_6180 ]

(* The rendered trails, each under a ["== <config>"] header line. *)
let render () =
  List.concat_map (fun config -> ("== " ^ config.Config.name) :: run config) configs

(* ----- The gate table and the specialisation mask ----- *)

let unknown_gates = [ ""; "READ_WORD"; "read_word "; "subsystem_entry"; "fault_control"; "nope" ]

(* Every gate name of every stage configuration, sorted. *)
let stage_gate_names () =
  List.concat_map (fun c -> List.map (fun e -> e.Gate.gate_name) (Gate.catalog c)) Config.stages
  |> List.sort_uniq String.compare

(* Masks over a configuration's catalog: every [k]-th gate, plus two
   names that are no configuration's gates. *)
let masks config =
  let names = List.map (fun e -> e.Gate.gate_name) (Gate.catalog config) in
  List.map
    (fun k ->
      ( Printf.sprintf "every-%d" k,
        List.filteri (fun i _ -> i mod k = 0) names @ [ "nope"; "subsystem_entry" ] ))
    [ 1; 2; 3; 5; 64 ]

(* What a configuration's gate table and masks answer, one line per
   question: the catalog in order, [find] for every stage gate name
   and unknown name, and per mask its gate list, the specialisation
   status line and [gate_admitted] for every name. *)
let gate_fingerprint config =
  let names = stage_gate_names () @ unknown_gates in
  let entry = function
    | None -> "-"
    | Some e ->
        Printf.sprintf "%s/%s/%d" e.Gate.gate_name e.Gate.subsystem
          (Multics_machine.Ring.to_int e.Gate.call_top)
  in
  let sys = System.create config in
  let mask_lines (name, gates) =
    System.set_gate_mask sys (Some (System.gate_mask_make ~name ~gates));
    let m = Option.get (System.gate_mask sys) in
    [
      String.concat "," (System.gate_mask_gates m);
      Multics_spec.Spec.Specialisation.status sys;
      String.concat ""
        (List.map (fun gate -> if System.gate_admitted sys ~gate then "1" else "0") names);
    ]
  in
  (String.concat "," (List.map (fun e -> entry (Some e)) (Gate.catalog config))
  :: List.map (fun gate_name -> gate_name ^ "=" ^ entry (Gate.find config ~gate_name)) names)
  @ List.concat_map mask_lines (masks config)
