(* The content-reference path at its edges.

   Three directed regressions, one per bug the raw dispatch path used
   to hide (owner rw segment in a home directory with quota
   [Some max_int], kernel_6180):
   - a read past the segment bound returned [Word 0];
   - a write at 2^40 charged 2^34 + 1 pages before the bounds check,
     refused with a misleading [Not_a_segment] and broke the quota
     invariant;
   - a write at [max_int] overflowed the page count.

   Then the single mediation path: directed regressions for the calls
   that used to leave the path unaudited (the by-path attribute edits
   under user-ring naming, and a caller handle that names no process),
   and a QCheck property over hostile streams of every request
   constructor from live, unknown and logged-out callers: whatever the
   ints and names, [dispatch] never raises, writes exactly one audit
   record of the call, moves the gate-call tallies exactly as that
   record says (one call of its operation and of its configuration, a
   refusal exactly when it is one, the configuration's price in
   cycles), and leaves the quota invariant holding.  After every call,
   refusals included, the compiled AV table agrees with fresh policy
   for every segment any live process knows, so the generated ACL,
   bracket, delete, salvage and cache-clear streams exercise the one
   revocation path: the per-object epochs.  A second leg runs each
   stream on twin kernels, one under a 2-CPU plant, and holds every
   reply and audit record equal: the per-CPU associative memories may
   answer a reference, never change its answer. *)

open Multics_access
open Multics_kernel
module Hierarchy = Multics_fs.Hierarchy
module Obs = Multics_obs.Obs

let ok what = function Ok v -> v | Error e -> Alcotest.fail (what ^ ": " ^ Api.error_to_string e)

(* Alice, her home under an effectively unlimited quota cell, and an
   owner-rw segment in it. *)
let boot ?(config = Config.kernel_6180) () =
  let system = System.create config in
  ignore
    (System.add_account system ~person:"Alice" ~project:"Dev" ~password:"pw"
       ~clearance:Label.unclassified);
  let alice =
    match System.login system ~person:"Alice" ~project:"Dev" ~password:"pw" with
    | Ok handle -> handle
    | Error e -> Alcotest.fail (System.login_error_to_string e)
  in
  let home =
    match User_env.resolve_path system ~handle:alice ~path:">udd>Dev>Alice" with
    | Ok segno -> segno
    | Error e -> Alcotest.fail (User_env.error_to_string e)
  in
  ok "quota" (Gate_calls.set_quota system ~handle:alice ~segno:home ~quota:(Some max_int));
  let seg =
    ok "segment"
      (Gate_calls.create_segment system ~handle:alice ~dir_segno:home ~name:"data"
         ~acl:(Acl.of_strings [ ("Alice.Dev.*", "rw") ])
         ~label:Label.unclassified)
  in
  (system, alice, home, seg)

let quota_holds system = Hierarchy.check_quota_invariant (System.hierarchy system)

let expect_out_of_bounds what offset = function
  | Error (Api.Fs (Hierarchy.Out_of_bounds o)) when o = offset -> ()
  | Error e -> Alcotest.failf "%s: refused with %s" what (Api.error_to_string e)
  | Ok _ -> Alcotest.failf "%s: admitted" what

let test_read_past_bound () =
  let system, alice, _, seg = boot () in
  List.iter
    (fun offset ->
      expect_out_of_bounds
        (Printf.sprintf "read at %d" offset)
        offset
        (Gate_calls.read_word system ~handle:alice ~segno:seg ~offset))
    [ Hierarchy.max_segment_words; max_int ];
  Alcotest.(check int) "last in-bound word reads" 0
    (ok "read" (Gate_calls.read_word system ~handle:alice ~segno:seg
                  ~offset:(Hierarchy.max_segment_words - 1)))

let test_huge_write_charges_nothing () =
  let system, alice, home, seg = boot () in
  let charged () =
    let hierarchy = System.hierarchy system in
    match System.proc system alice with
    | None -> Alcotest.fail "no proc"
    | Some p -> (
        match Multics_fs.Kst.uid_of_segno p.System.kst home with
        | Ok uid -> Hierarchy.pages_charged_of hierarchy uid
        | Error _ -> Alcotest.fail "home not known")
  in
  let before = charged () in
  expect_out_of_bounds "write at 2^40" (1 lsl 40)
    (Gate_calls.write_word system ~handle:alice ~segno:seg ~offset:(1 lsl 40) ~value:1);
  Alcotest.(check (option int)) "no pages charged" before (charged ());
  Alcotest.(check bool) "quota invariant holds" true (quota_holds system)

let test_max_int_write () =
  let system, alice, _, seg = boot () in
  expect_out_of_bounds "write at max_int" max_int
    (Gate_calls.write_word system ~handle:alice ~segno:seg ~offset:max_int ~value:1);
  Alcotest.(check bool) "quota invariant holds" true (quota_holds system)

(* ----- Calls that used to bypass the audit ----- *)

(* Dispatch one request and return its response with the records it
   added and the counters it moved. *)
let traced system ~handle request =
  let audit = System.audit system in
  let logged = Audit_log.logged audit and before = Obs.Snapshot.capture () in
  let response = Api.Call.dispatch system ~handle request in
  let moved = Obs.Snapshot.diff ~before ~after:(Obs.Snapshot.capture ()) in
  (response, Audit_log.tail audit (Audit_log.logged audit - logged), moved)

let gate_calls moved = Obs.Snapshot.counter moved "gate.calls"

(* The gate-call tallies one call moved agree with its audit record:
   one call of its operation and of the configuration, a refusal of
   both exactly when the record is one, and the configuration's
   cross-ring round-trip price in cycles. *)
let tallies_match system (call : Audit_log.record) moved =
  let config = System.config system and n = Obs.Snapshot.counter moved in
  let refused = match call.verdict with Audit_log.Granted -> 0 | _ -> 1 in
  n "gate.calls" = 1
  && n ("gate." ^ call.operation ^ ".calls") = 1
  && n ("gate." ^ call.operation ^ ".refusals") = refused
  && n "gate.refusals" = refused
  && n ("config." ^ config.Config.name ^ ".gate.calls") = 1
  && n "gate.cycles"
     = Multics_machine.Cost.round_trip_call_cost (Config.cost config) ~cross_ring:true

let show_moved moved =
  List.filter_map
    (fun (name, n) -> if n = 0 then None else Some (Printf.sprintf "%s=%d" name n))
    moved.Obs.Snapshot.counters
  |> String.concat " "

let expect_one_record what ~subject ~ring ~operation ~target ~cause (response, records, moved) =
  (match response with
  | Error e when e = cause -> ()
  | Error e -> Alcotest.failf "%s: refused with %s" what (Api.error_to_string e)
  | Ok _ -> Alcotest.failf "%s: admitted" what);
  Alcotest.(check int) (what ^ ": gate.calls") 1 (gate_calls moved);
  match records with
  | [ r ] ->
      Alcotest.(check (list string))
        (what ^ ": record")
        [ subject; string_of_int ring; operation; target; "REFUSED: " ^ Api.error_to_string cause ]
        [
          r.Audit_log.subject;
          string_of_int r.Audit_log.ring;
          r.Audit_log.operation;
          r.Audit_log.target;
          (match r.Audit_log.verdict with
          | Audit_log.Refused why -> "REFUSED: " ^ why
          | Audit_log.Granted | Audit_log.Refused_by _ -> "granted");
        ]
  | records -> Alcotest.failf "%s: %d audit records" what (List.length records)

let test_by_path_refusals_audited () =
  let system, alice, _, _ = boot () in
  let path = ">udd>Dev>Alice>data" in
  expect_one_record "set_acl_by_path" ~subject:"Alice.Dev.a" ~ring:4 ~operation:"set_acl"
    ~target:path ~cause:(Api.Gate_absent "set_acl_by_path")
    (traced system ~handle:alice
       (Api.Call.Set_acl_by_path { path; acl = Acl.of_strings [ ("*.*.*", "rw") ] }));
  expect_one_record "set_brackets_by_path" ~subject:"Alice.Dev.a" ~ring:4 ~operation:"set_brackets"
    ~target:path ~cause:(Api.Gate_absent "set_brackets_by_path")
    (traced system ~handle:alice
       (Api.Call.Set_brackets_by_path { path; brackets = Multics_machine.Brackets.user_data }))

let test_unknown_caller_audited () =
  let system, alice, _, _ = boot () in
  Alcotest.(check string) "operation name" "subsystem_entry:proc_info"
    (Api.Call.operation_name system Api.Call.Proc_info);
  expect_one_record "handle 12345" ~subject:"anonymous.anonymous.a" ~ring:7
    ~operation:"subsystem_entry:proc_info" ~target:"self" ~cause:(Api.No_such_process 12345)
    (traced system ~handle:12345 Api.Call.Proc_info);
  ignore (System.logout system ~handle:alice);
  expect_one_record "logged-out caller" ~subject:"anonymous.anonymous.a" ~ring:7
    ~operation:"read_word" ~target:"1|0" ~cause:(Api.No_such_process alice)
    (traced system ~handle:alice (Api.Call.Read_word { segno = 1; offset = 0 }))

(* An empty path used to raise [Invalid_argument] while being split
   into its directory and entry name. *)
let test_empty_path_refuses () =
  let system, alice, _, _ = boot ~config:Config.baseline_645 () in
  let acl = Acl.of_strings [ ("Alice.Dev.*", "rw") ] and label = Label.unclassified in
  List.iter
    (fun request ->
      let name = Api.Call.operation_name system request in
      match traced system ~handle:alice request with
      | Error _, [ _ ], moved when gate_calls moved = 1 -> ()
      | Ok _, _, _ -> Alcotest.failf "%s of \"\" admitted" name
      | Error _, records, moved ->
          Alcotest.failf "%s of \"\": %d records, %d gate.calls" name (List.length records)
            (gate_calls moved))
    [
      Api.Call.Delete_by_path { path = "" };
      Api.Call.Create_segment_by_path { path = ""; acl; label; brackets = None };
      Api.Call.Create_directory_by_path { path = ""; acl; label };
    ]

(* ----- The hostile-dispatch property ----- *)

let configs = [ Config.kernel_6180; Config.baseline_645 ]
let booted = List.map (fun config -> boot ~config ()) configs

let hostile_int =
  QCheck.Gen.(
    oneof
      [
        oneofl
          [ min_int; max_int; 1 lsl 40; -1; 0; 1; Hierarchy.max_segment_words - 1;
            Hierarchy.max_segment_words ];
        int;
        small_nat;
      ])

(* Segment numbers: the caller's real home and segment two times in
   three, so hostile offsets and values reach the content path; else a
   known segno moved by a multiple of 4096, with bit 32 set, or negated
   (the segnos a CAM key that kept fewer bits would confuse with a
   known one), or a hostile int. *)
let hostile_segno =
  let known = List.concat_map (fun (_, _, home, seg) -> [ home; seg ]) booted in
  QCheck.Gen.(
    frequency
      [
        (6, oneofl known);
        (1, hostile_int);
        ( 2,
          map3
            (fun segno k alias ->
              match alias with
              | `Shift -> segno + (k * 4096)
              | `Bit32 -> segno lor (1 lsl 32)
              | `Negate -> -segno)
            (oneofl known)
            (oneofl [ -2; -1; 1; 2 ])
            (oneofl [ `Shift; `Shift; `Bit32; `Negate ]) );
      ])

let hostile_name =
  QCheck.Gen.(
    oneof
      [
        oneofl [ "data"; ""; ">"; "a>b"; ">udd>Dev>Alice"; ">udd>Dev>Alice>data"; String.make 10_000 'x' ];
        string_size ~gen:printable (int_range 0 12);
      ])

let fault_spec =
  QCheck.Gen.(
    oneof
      [
        oneofl
          [ "gate.deny=every:2"; "gate.abort=every:1"; "io.device=every:1"; "cache.flush=every:2" ];
        hostile_name;
      ])

(* Who calls: the live caller, a handle that never named a process, or
   one whose process has logged out.  A [Destroy_process] may target
   the caller itself or a real sibling, resolved when the call runs. *)
type caller = Live | Unknown of int | Ended
type spec = Request of Api.Call.request | Destroy_self | Destroy_sibling

let hostile_caller =
  QCheck.Gen.(
    frequency
      [
        (8, return Live);
        (1, map (fun h -> Unknown h) (oneofl [ 12345; -1; 0; min_int; max_int ]));
        (1, return Ended);
      ])

(* One generator per [Api.Call.request] constructor. *)
let hostile_spec =
  let open QCheck.Gen in
  (* ACLs that keep, narrow and withdraw Alice's access, so generated
     edits revoke what earlier calls cached. *)
  let acl =
    oneofl
      (List.map Acl.of_strings
         [ [ ("Alice.Dev.*", "rw") ]; [ ("Alice.Dev.*", "r") ]; [ ("Initializer.*.*", "rew") ] ])
  and label = Label.unclassified in
  let brackets = oneofl Multics_machine.Brackets.[ user_data; kernel_private ] in
  let device = oneofl Multics_io.Device.all in
  let segno = hostile_segno and n = hostile_int and name = hostile_name in
  let req g = map (fun r -> Request r) g and const r = return (Request r) in
  oneof
    [
      req (map2 (fun dir_segno name -> Api.Call.Initiate { dir_segno; name }) segno name);
      req (map (fun segno -> Api.Call.Terminate { segno }) segno);
      req
        (map3
           (fun dir_segno name acl ->
             Api.Call.Create_segment { dir_segno; name; acl; label; brackets = None })
           segno name acl);
      req
        (map3
           (fun dir_segno name acl -> Api.Call.Create_directory { dir_segno; name; acl; label })
           segno name acl);
      req (map2 (fun dir_segno name -> Api.Call.Delete_entry { dir_segno; name }) segno name);
      req
        (map3
           (fun dir_segno name new_name -> Api.Call.Rename_entry { dir_segno; name; new_name })
           segno name name);
      req (map (fun dir_segno -> Api.Call.List_directory { dir_segno }) segno);
      req (map2 (fun dir_segno name -> Api.Call.Status_entry { dir_segno; name }) segno name);
      req (map2 (fun segno acl -> Api.Call.Set_acl { segno; acl }) segno acl);
      req (map2 (fun segno brackets -> Api.Call.Set_brackets { segno; brackets }) segno brackets);
      req (map2 (fun segno gate_bound -> Api.Call.Set_gate_bound { segno; gate_bound }) segno n);
      req (map2 (fun segno quota -> Api.Call.Set_quota { segno; quota }) segno (opt n));
      req (map2 (fun segno offset -> Api.Call.Read_word { segno; offset }) segno n);
      req (map3 (fun segno offset value -> Api.Call.Write_word { segno; offset; value }) segno n n);
      req (map (fun path -> Api.Call.Initiate_by_path { path }) name);
      req
        (map2
           (fun path acl -> Api.Call.Create_segment_by_path { path; acl; label; brackets = None })
           name acl);
      req (map2 (fun path acl -> Api.Call.Create_directory_by_path { path; acl; label }) name acl);
      req (map (fun path -> Api.Call.Delete_by_path { path }) name);
      req (map2 (fun path acl -> Api.Call.Set_acl_by_path { path; acl }) name acl);
      req (map2 (fun path brackets -> Api.Call.Set_brackets_by_path { path; brackets }) name brackets);
      req (map (fun path -> Api.Call.Resolve_path { path }) name);
      req (map (fun path -> Api.Call.Terminate_by_path { path }) name);
      req (map2 (fun name segno -> Api.Call.Rnt_bind { name; segno }) name segno);
      req (map (fun name -> Api.Call.Rnt_lookup { name }) name);
      req (map (fun name -> Api.Call.Rnt_unbind { name }) name);
      req (map (fun segno -> Api.Call.List_reference_names { segno }) segno);
      const Api.Call.Get_working_dir;
      req (map (fun dir_segno -> Api.Call.Set_working_dir { dir_segno }) segno);
      const Api.Call.Initiate_count;
      req (map2 (fun segno link_index -> Api.Call.Snap_link { segno; link_index }) segno n);
      req (map (fun segno -> Api.Call.List_links { segno }) segno);
      req
        (map (fun dir_segnos -> Api.Call.Set_search_rules { dir_segnos }) (list_size (int_range 0 4) segno));
      const Api.Call.Get_search_rules;
      req
        (map3
           (fun segno entry_offset name -> Api.Call.Enter_subsystem { segno; entry_offset; name })
           segno n name);
      const Api.Call.Exit_subsystem;
      const Api.Call.Create_channel;
      req (map (fun channel -> Api.Call.Send_wakeup { channel }) n);
      req (map (fun channel -> Api.Call.Block { channel }) n);
      req (map (fun device -> Api.Call.Attach_device { device }) device);
      req (map (fun device -> Api.Call.Detach_device { device }) device);
      req (map2 (fun device message -> Api.Call.Device_write { device; message }) device n);
      req (map (fun device -> Api.Call.Device_read { device }) device);
      const Api.Call.Create_process;
      oneof
        [
          req (map (fun target -> Api.Call.Destroy_process { target }) n);
          return Destroy_self;
          return Destroy_sibling;
        ];
      const Api.Call.New_proc;
      const Api.Call.Proc_info;
      const Api.Call.List_processes;
      req (map (fun message -> Api.Call.Operator_message { message }) name);
      req (map2 (fun seed spec -> Api.Call.Set_fault_plan { seed; spec }) n fault_spec);
      const Api.Call.Fault_status;
      const Api.Call.Clear_faults;
      const Api.Call.Salvage;
      req
        (map2
           (fun segno requested -> Api.Call.Probe_access { segno; requested })
           segno
           (oneofl Multics_machine.Mode.[ r; rw; rew ]));
      const Api.Call.Cache_status;
      const Api.Call.Cache_clear;
      const Api.Call.Sched_status;
      req (map2 (fun param value -> Api.Call.Sched_tune { param; value }) name n);
      const Api.Call.Smp_status;
    ]

(* The records one call may add: those of the processes it ended
   ([logout]), the salvager's own report for [Salvage], then exactly
   one record of the call itself, last, under [operation_name] and the
   caller's subject (anonymous when the handle names no process). *)
let call_record_ok ~request ~name ~subject ~ended records =
  let extra (r : Audit_log.record) =
    r.operation = "logout"
    || (request = Api.Call.Salvage && r.operation = "salvage"
       && r.subject = Principal.to_string Principal.system_daemon)
  in
  match List.rev records with
  | [] -> false
  | (call : Audit_log.record) :: rest ->
      call.operation = name && call.subject = subject && List.for_all extra rest
      && List.length (List.filter (fun (r : Audit_log.record) -> r.operation = "logout") rest)
         = List.length ended

(* Compiled AV table = fresh policy: for every live process, every
   segment number in its KST and each of r, w, rw, the cached
   [check_access] verdict equals [check_access_fresh].  The first
   disagreement, rendered, or [None]. *)
let av_divergence system =
  let hierarchy = System.hierarchy system in
  List.find_map
    (fun handle ->
      match System.proc system handle with
      | None -> None
      | Some p ->
          let subject = System.subject_of p in
          List.find_map
            (fun segno ->
              match Multics_fs.Kst.uid_of_segno p.System.kst segno with
              | Error _ -> None
              | Ok uid ->
                  List.find_map
                    (fun requested ->
                      let cached = Hierarchy.check_access hierarchy ~subject ~uid ~requested in
                      let fresh = Hierarchy.check_access_fresh hierarchy ~subject ~uid ~requested in
                      if cached = fresh then None
                      else
                        let show = Fmt.(str "%a" (option ~none:(any "dangling") Policy.pp_verdict)) in
                        Some
                          (Fmt.str "handle %d segno %d %a: cached %s, fresh %s" handle segno
                             Multics_machine.Mode.pp requested (show cached) (show fresh)))
                    Multics_machine.Mode.[ r; w; rw ])
            (Multics_fs.Kst.known_segnos p.System.kst))
    (System.handles system)

(* One hostile stream's stepper on one kernel: resolves each step's
   caller and request against that kernel (the live caller, a sibling,
   an ended handle), dispatches it traced, and keeps a live caller
   logged in.  A step's outcome is [Error] when dispatch raised. *)
let stepper system alice =
  let current = ref alice and ended = ref [] in
  let relogin () =
    match System.handles system with
    | h :: _ -> h
    | [] -> (
        match System.login system ~person:"Alice" ~project:"Dev" ~password:"pw" with
        | Ok h -> h
        | Error e -> QCheck.Test.fail_report (System.login_error_to_string e))
  in
  let sibling () =
    match List.filter (( <> ) !current) (System.sibling_handles system ~handle:!current) with
    | h :: _ -> h
    | [] -> Option.value ~default:(-1) (System.clone_process system ~handle:!current)
  in
  let ended_handle () =
    match !ended with
    | h :: _ -> h
    | [] -> (
        match System.clone_process system ~handle:!current with
        | Some h ->
            ignore (System.logout system ~handle:h);
            ended := [ h ];
            h
        | None -> -1)
  in
  fun (caller, spec) ->
    let request =
      match spec with
      | Request r -> r
      | Destroy_self -> Api.Call.Destroy_process { target = !current }
      | Destroy_sibling -> Api.Call.Destroy_process { target = sibling () }
    in
    let handle = match caller with Live -> !current | Unknown h -> h | Ended -> ended_handle () in
    let name = Api.Call.operation_name system request in
    let before = System.handles system in
    match traced system ~handle request with
    | exception e -> Error (Printf.sprintf "%s from %d raised %s" name handle (Printexc.to_string e))
    | response, records, moved ->
        let gone = List.filter (fun h -> System.proc system h = None) before in
        ended := gone @ !ended;
        if System.proc system !current = None then current := relogin ();
        Ok (request, handle, name, gone, response, records, moved)

let run_case (config, steps) =
  let system, alice, _, _ = boot ~config () in
  let step = stepper system alice in
  List.for_all
    (fun (caller, spec) ->
      let subject =
        if caller = Live then "Alice.Dev.a" else "anonymous.anonymous.a"
      in
      match step (caller, spec) with
      | Error raised -> QCheck.Test.fail_report raised
      | Ok (request, handle, name, gone, _, records, moved) ->
          let divergence = av_divergence system in
          let tallied =
            match List.rev records with call :: _ -> tallies_match system call moved | [] -> false
          in
          (call_record_ok ~request ~name ~subject ~ended:gone records && tallied
          && quota_holds system && divergence = None)
          || QCheck.Test.fail_reportf
               "%s from %d (%s): records [%s], moved [%s], quota %b, AV parity: %s" name handle
               config.Config.name
               (String.concat "; " (List.map (Fmt.str "%a" Audit_log.pp_record) records))
               (show_moved moved) (quota_holds system)
               (Option.value divergence ~default:"holds"))
    steps

let hostile_dispatch =
  QCheck.Test.make
    ~name:"hostile dispatch: total, audited once, metered once, quota holds, AV parity"
    ~count:200
    (QCheck.make
       QCheck.Gen.(
         pair (oneofl configs) (list_size (int_range 1 25) (pair hostile_caller hostile_spec))))
    run_case

(* ----- The plant leg -----

   Twin kernels run the same hostile stream, one with a 2-CPU plant
   attached (the calls alternating between its CPUs) and one without.
   The plant may change which associative memory answers a reference,
   never what the kernel answers: every reply and every audit record
   must match.  The status calls are left out: [Smp_status] reports
   the plant itself (and is refused without one), [Cache_status] the
   cache counters both twins share. *)
let compared = function Api.Call.Smp_status | Api.Call.Cache_status -> false | _ -> true

let run_plant_case (config, steps) =
  let plain, plain_alice, _, _ = boot ~config () in
  let planted, planted_alice, _, _ = boot ~config () in
  let plant = Multics_smp.Smp.create ~ncpus:2 ~cost:(Config.cost config) () in
  System.attach_plant planted (Some plant);
  let plain_step = stepper plain plain_alice and planted_step = stepper planted planted_alice in
  List.for_all
    (fun (i, step) ->
      Multics_smp.Smp.set_current plant (i mod 2);
      match (plain_step step, planted_step step) with
      | Error raised, _ | _, Error raised -> QCheck.Test.fail_report raised
      | Ok (request, _, _, _, _, _, _), _ when not (compared request) -> true
      | ( Ok (_, handle, name, _, plain_response, plain_records, _),
          Ok (_, _, _, _, planted_response, planted_records, _) ) ->
          let show records =
            String.concat "; " (List.map (Fmt.str "%a" Audit_log.pp_record) records)
          in
          (plain_response = planted_response && plain_records = planted_records)
          || QCheck.Test.fail_reportf "%s from %d (%s): no plant [%s] %s, 2-CPU plant [%s] %s" name
               handle config.Config.name (show plain_records)
               (Result.fold ~ok:(fun _ -> "ok") ~error:Api.error_to_string plain_response)
               (show planted_records)
               (Result.fold ~ok:(fun _ -> "ok") ~error:Api.error_to_string planted_response))
    (List.mapi (fun i step -> (i, step)) steps)

(* Half the plant leg's calls are content references, the calls the
   CPUs' associative memories answer. *)
let content_spec =
  let open QCheck.Gen in
  let segno = hostile_segno and n = hostile_int in
  map
    (fun r -> Request r)
    (oneof
       [
         map2 (fun segno offset -> Api.Call.Read_word { segno; offset }) segno n;
         map3 (fun segno offset value -> Api.Call.Write_word { segno; offset; value }) segno n n;
         map2
           (fun segno entry_offset -> Api.Call.Enter_subsystem { segno; entry_offset; name = "s" })
           segno n;
       ])

let hostile_plant =
  QCheck.Test.make ~name:"hostile dispatch: a 2-CPU plant changes no reply or record" ~count:200
    (QCheck.make
       QCheck.Gen.(
         pair (oneofl configs)
           (list_size (int_range 1 25)
              (pair hostile_caller (frequency [ (1, hostile_spec); (1, content_spec) ])))))
    run_plant_case

let suite =
  [
    Alcotest.test_case "read past the segment bound refuses" `Quick test_read_past_bound;
    Alcotest.test_case "write at 2^40 charges no quota" `Quick test_huge_write_charges_nothing;
    Alcotest.test_case "write at max_int refuses without overflow" `Quick test_max_int_write;
    Alcotest.test_case "by-path attribute edits are audited refusals" `Quick
      test_by_path_refusals_audited;
    Alcotest.test_case "an unknown caller is an audited refusal" `Quick test_unknown_caller_audited;
    Alcotest.test_case "an empty by-path name refuses" `Quick test_empty_path_refuses;
    QCheck_alcotest.to_alcotest hostile_dispatch;
    QCheck_alcotest.to_alcotest hostile_plant;
  ]
