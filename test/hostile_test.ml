(* The content-reference path at its edges.

   Three directed regressions, one per bug the raw dispatch path used
   to hide (owner rw segment in a home directory with quota
   [Some max_int], kernel_6180):
   - a read past the segment bound returned [Word 0];
   - a write at 2^40 charged 2^34 + 1 pages before the bounds check,
     refused with a misleading [Not_a_segment] and broke the quota
     invariant;
   - a write at [max_int] overflowed the page count.

   Then a QCheck property over hostile request streams: whatever the
   ints and names, [dispatch] never raises, writes exactly one audit
   record and one [gate.calls] tick per call, and leaves the quota
   invariant holding. *)

open Multics_access
open Multics_kernel
module Hierarchy = Multics_fs.Hierarchy
module Obs = Multics_obs.Obs

let ok what = function Ok v -> v | Error e -> Alcotest.fail (what ^ ": " ^ Api.error_to_string e)

(* Alice, her home under an effectively unlimited quota cell, and an
   owner-rw segment in it. *)
let boot () =
  let system = System.create Config.kernel_6180 in
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

(* ----- The hostile-dispatch property ----- *)

let _, alice_handle, home_segno, seg_segno = boot ()

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
   three, so hostile offsets and values reach the content path. *)
let hostile_segno = QCheck.Gen.(frequency [ (2, oneofl [ home_segno; seg_segno ]); (1, hostile_int) ])

let hostile_name =
  QCheck.Gen.(
    oneof
      [
        oneofl [ "data"; ""; ">"; "a>b"; ">udd>Dev>Alice"; ">udd>Dev>Alice>data"; String.make 10_000 'x' ];
        string_size ~gen:printable (int_range 0 12);
      ])

let hostile_request =
  let open QCheck.Gen in
  let acl = Acl.of_strings [ ("Alice.Dev.*", "rw") ] and label = Label.unclassified in
  let segno = hostile_segno and n = hostile_int and name = hostile_name in
  oneof
    [
      map2 (fun segno offset -> Api.Call.Read_word { segno; offset }) segno n;
      map3 (fun segno offset value -> Api.Call.Write_word { segno; offset; value }) segno n n;
      map2 (fun dir_segno name -> Api.Call.Initiate { dir_segno; name }) segno name;
      map (fun segno -> Api.Call.Terminate { segno }) segno;
      map2
        (fun dir_segno name ->
          Api.Call.Create_segment { dir_segno; name; acl; label; brackets = None })
        segno name;
      map2 (fun dir_segno name -> Api.Call.Create_directory { dir_segno; name; acl; label }) segno name;
      map2 (fun dir_segno name -> Api.Call.Delete_entry { dir_segno; name }) segno name;
      map3
        (fun dir_segno name new_name -> Api.Call.Rename_entry { dir_segno; name; new_name })
        segno name name;
      map (fun dir_segno -> Api.Call.List_directory { dir_segno }) segno;
      map2 (fun dir_segno name -> Api.Call.Status_entry { dir_segno; name }) segno name;
      map2 (fun segno gate_bound -> Api.Call.Set_gate_bound { segno; gate_bound }) segno n;
      map2 (fun segno quota -> Api.Call.Set_quota { segno; quota }) segno (opt n);
      map (fun segno -> Api.Call.Set_acl { segno; acl }) segno;
      map (fun path -> Api.Call.Resolve_path { path }) name;
      map (fun path -> Api.Call.Initiate_by_path { path }) name;
      map (fun channel -> Api.Call.Send_wakeup { channel }) n;
      map (fun channel -> Api.Call.Block { channel }) n;
      return Api.Call.Create_channel;
      (* Never the caller's own process (no caller would be left to
         audit the next call), and no Create_process: destroying a real
         sibling also audits its logout, a second record. *)
      map
        (fun target ->
          Api.Call.Destroy_process { target = (if target = alice_handle then -1 else target) })
        n;
      map2 (fun segno link_index -> Api.Call.Snap_link { segno; link_index }) segno n;
      map (fun segno -> Api.Call.List_links { segno }) segno;
      map2 (fun name segno -> Api.Call.Rnt_bind { name; segno }) name segno;
      map (fun dir_segnos -> Api.Call.Set_search_rules { dir_segnos }) (list_size (int_range 0 4) segno);
      map (fun dir_segno -> Api.Call.Set_working_dir { dir_segno }) segno;
      map (fun segno -> Api.Call.Probe_access { segno; requested = Multics_machine.Mode.rw }) segno;
      map2 (fun param value -> Api.Call.Sched_tune { param; value }) name n;
      map (fun message -> Api.Call.Operator_message { message }) name;
      map3
        (fun segno entry_offset name -> Api.Call.Enter_subsystem { segno; entry_offset; name })
        segno n name;
    ]

let gate_calls () = Obs.Counter.get (Obs.Registry.counter (Obs.Registry.global ()) "gate.calls")

let hostile_dispatch =
  QCheck.Test.make ~name:"hostile dispatch: total, audited once, metered once, quota holds"
    ~count:200
    (QCheck.make QCheck.Gen.(list_size (int_range 1 25) hostile_request))
    (fun requests ->
      let system, alice, _, _ = boot () in
      let audit = System.audit system in
      List.for_all
        (fun request ->
          let logged = Multics_kernel.Audit_log.logged audit and calls = gate_calls () in
          match Api.Call.dispatch system ~handle:alice request with
          | exception e ->
              QCheck.Test.fail_reportf "%s raised %s"
                (Api.Call.operation_name system request)
                (Printexc.to_string e)
          | _ ->
              let logged = Multics_kernel.Audit_log.logged audit - logged
              and calls = gate_calls () - calls in
              logged = 1 && calls = 1 && quota_holds system
              || QCheck.Test.fail_reportf "%s: %d audit records, %d gate.calls, quota %b"
                   (Api.Call.operation_name system request)
                   logged calls (quota_holds system))
        requests)

let suite =
  [
    Alcotest.test_case "read past the segment bound refuses" `Quick test_read_past_bound;
    Alcotest.test_case "write at 2^40 charges no quota" `Quick test_huge_write_charges_nothing;
    Alcotest.test_case "write at max_int refuses without overflow" `Quick test_max_int_write;
    QCheck_alcotest.to_alcotest hostile_dispatch;
  ]
