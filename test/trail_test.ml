(* The audit trail's ring and the compiled gate table: equivalence with
   what the list-backed trail, the list-scanned catalog and the
   hashtable mask answered, and exact accounting past the ring's
   capacity. *)

open Multics_access
open Multics_kernel
module Obs = Multics_obs.Obs

let subject =
  Policy.subject ~principal:(Principal.of_string "A.B.c") ~clearance:Label.unclassified
    ~ring:Multics_machine.Ring.user ()

let render records = List.map (Fmt.str "%a" Audit_log.pp_record) records

(* ----- The rendered trail of every request arm, pinned ----- *)

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with l -> go (l :: acc) | exception End_of_file -> List.rev acc
  in
  let lines = go [] in
  close_in ic;
  lines

let test_golden_trail () =
  let expected = read_lines "trail_golden.expected" in
  let got = Trail_script.render () in
  List.iteri
    (fun i (want, line) ->
      if want <> line then Alcotest.failf "line %d: %S, expected %S" (i + 1) line want)
    (List.combine expected (List.filteri (fun i _ -> i < List.length expected) got));
  Alcotest.(check int) "line count" (List.length expected) (List.length got)

(* ----- Typed records, rendered when read ----- *)

let test_typed_records () =
  let t = Audit_log.create () in
  let log ?at ?target verdict = Audit_log.log ?at ?target t ~subject ~operation:"op" ~verdict in
  log ~target:"plain" Audit_log.Granted;
  log ~at:(Audit_log.Name "named") (Audit_log.Refused "no");
  log ~at:(Audit_log.Segno 7) Audit_log.Granted;
  log ~at:(Audit_log.Offset (7, 3)) (Audit_log.Refused_by (string_of_int, 42));
  log ~at:(Audit_log.Link (7, 2)) Audit_log.Granted;
  log Audit_log.Granted;
  Alcotest.(check (list string)) "rendered"
    [
      "#0 A.B.c (ring 4) op plain -> granted";
      "#1 A.B.c (ring 4) op named -> REFUSED: no";
      "#2 A.B.c (ring 4) op 7 -> granted";
      "#3 A.B.c (ring 4) op 7|3 -> REFUSED: 42";
      "#4 A.B.c (ring 4) op 7#2 -> granted";
      "#5 A.B.c (ring 4) op  -> granted";
    ]
    (render (Audit_log.records t));
  Alcotest.(check (list string)) "tail reads the newest"
    [ "#4 A.B.c (ring 4) op 7#2 -> granted"; "#5 A.B.c (ring 4) op  -> granted" ]
    (render (Audit_log.tail t 2));
  Alcotest.(check int) "tail past the length" 6 (List.length (Audit_log.tail t 100));
  Alcotest.(check int) "refused total" 2 (Audit_log.refused t);
  Alcotest.(check int) "refusal views" 2 (List.length (Audit_log.refusals t));
  List.iter
    (fun r ->
      match r.Audit_log.verdict with
      | Audit_log.Refused_by _ -> Alcotest.fail "a record view carries an unrendered cause"
      | Audit_log.Granted | Audit_log.Refused _ -> ())
    (Audit_log.records t)

(* Below capacity, every retained record reads back in order, across
   the trail's storage growth steps. *)
let test_growth_keeps_records () =
  let t = Audit_log.create () in
  let n = 50_000 in
  for i = 0 to n - 1 do
    Audit_log.log t ~at:(Audit_log.Segno i) ~subject ~operation:"op" ~verdict:Audit_log.Granted
  done;
  Alcotest.(check int) "length" n (Audit_log.length t);
  List.iteri
    (fun i r ->
      if r.Audit_log.seq <> i || r.Audit_log.target <> string_of_int i then
        Alcotest.failf "record %d reads back as #%d %s" i r.Audit_log.seq r.Audit_log.target)
    (Audit_log.records t)

(* ----- The ring at and past capacity ----- *)

let dropped_counter () =
  let counters = (Obs.Snapshot.capture ()).Obs.Snapshot.counters in
  Option.value ~default:0 (List.assoc_opt "audit.dropped" counters)

let test_ring_wraps () =
  let t = Audit_log.create () in
  let cap = Audit_log.capacity in
  let extra = 5_000 in
  let dropped_before = dropped_counter () in
  (* Record [i] targets segment [i]; every 7th is refused. *)
  for i = 0 to cap + extra - 1 do
    Audit_log.log t ~at:(Audit_log.Segno i) ~subject ~operation:"op"
      ~verdict:
        (if i mod 7 = 0 then Audit_log.Refused_by (string_of_int, i) else Audit_log.Granted)
  done;
  Alcotest.(check int) "retained" cap (Audit_log.length t);
  Alcotest.(check int) "logged" (cap + extra) (Audit_log.logged t);
  Alcotest.(check int) "dropped" extra (Audit_log.dropped t);
  Alcotest.(check int) "refused" (((cap + extra - 1) / 7) + 1) (Audit_log.refused t);
  Alcotest.(check int) "audit.dropped counter" extra (dropped_counter () - dropped_before);
  (* The newest [extra + 10] records straddle the ring's wrap point:
     still oldest first, seq continuous, each with its own target. *)
  let window = extra + 10 in
  List.iteri
    (fun j r ->
      let seq = cap + extra - window + j in
      Alcotest.(check int) "seq" seq r.Audit_log.seq;
      Alcotest.(check string) "target" (string_of_int seq) r.Audit_log.target;
      Alcotest.(check bool) "verdict" (seq mod 7 = 0)
        (r.Audit_log.verdict = Audit_log.Refused (string_of_int seq)))
    (Audit_log.tail t window);
  (* A disabled trail records nothing and counts nothing. *)
  Audit_log.set_enabled t false;
  Audit_log.log t ~target:"off" ~subject ~operation:"op" ~verdict:Audit_log.Granted;
  Alcotest.(check (list int)) "disabled"
    [ cap; cap + extra; extra ]
    [ Audit_log.length t; Audit_log.logged t; Audit_log.dropped t ];
  Audit_log.set_enabled t true;
  Audit_log.log t ~target:"on" ~subject ~operation:"op" ~verdict:Audit_log.Granted;
  Alcotest.(check (list string)) "seq continues"
    [ Printf.sprintf "#%d A.B.c (ring 4) op on -> granted" (cap + extra) ]
    (render (Audit_log.tail t 1))

(* Gate crossings keep being counted once the ring is full: a program
   run on a trail padded to just under capacity makes the same kernel
   entries, grants and refusals as on an empty one. *)
let test_accounting_past_capacity () =
  let run ~pad =
    let session = Session.boot Config.kernel_6180 in
    let system = Session.system session in
    ignore
      (System.add_account system ~person:"Alice" ~project:"Dev" ~password:"pw"
         ~clearance:Label.unclassified);
    let alice =
      match System.login system ~person:"Alice" ~project:"Dev" ~password:"pw" with
      | Ok h -> h
      | Error e -> Alcotest.fail (System.login_error_to_string e)
    in
    let audit = System.audit system in
    for i = 1 to pad do
      Audit_log.log audit ~at:(Audit_log.Segno i) ~subject ~operation:"pad"
        ~verdict:Audit_log.Granted
    done;
    let logged0 = Audit_log.logged audit and refused0 = Audit_log.refused audit in
    let program =
      Program.make ~name:"overflow"
        [
          Program.Create_segment
            {
              path = ">udd>Dev>Alice>t";
              acl = Acl.of_strings [ ("Alice.Dev.*", "rw") ];
              label = Label.unclassified;
              slot = "t";
            };
          Program.Repeat
            ( 60,
              [
                Program.Write_word { seg = "t"; offset = 0; value = Program.Const 5 };
                Program.Read_word { seg = "t"; offset = 0; slot = "v" };
              ] );
          Program.Set_acl { seg = "t"; acl = Acl.of_strings [] };
          Program.Read_word { seg = "t"; offset = 0; slot = "v" };
        ]
    in
    ignore (Session.run_user session ~handle:alice program);
    Session.run session;
    let logged = Audit_log.logged audit - logged0 in
    let refused = Audit_log.refused audit - refused0 in
    (Session.kernel_entries session, logged - refused, refused, audit)
  in
  let entries, granted, refused, _ = run ~pad:0 in
  let dropped_before = dropped_counter () in
  let entries', granted', refused', audit = run ~pad:(Audit_log.capacity - 40) in
  Alcotest.(check bool) "the program crossed the capacity" true (Audit_log.dropped audit > 0);
  Alcotest.(check bool) "the program made kernel entries and one refusal" true
    (entries > 100 && refused = 1);
  Alcotest.(check int) "kernel entries" entries entries';
  Alcotest.(check int) "granted" granted granted';
  Alcotest.(check int) "refused" refused refused';
  Alcotest.(check int) "audit.dropped counter" (Audit_log.dropped audit)
    (dropped_counter () - dropped_before);
  Alcotest.(check int) "retained" Audit_log.capacity (Audit_log.length audit)

(* ----- Stored targets are capped ----- *)

let test_target_cap () =
  let system = System.create Config.kernel_6180 in
  ignore
    (System.add_account system ~person:"Alice" ~project:"Dev" ~password:"pw"
       ~clearance:Label.unclassified);
  let handle =
    match System.login system ~person:"Alice" ~project:"Dev" ~password:"pw" with
    | Ok h -> h
    | Error e -> Alcotest.fail (System.login_error_to_string e)
  in
  let home =
    match User_env.resolve_path system ~handle ~path:">udd>Dev>Alice" with
    | Ok segno -> segno
    | Error e -> Alcotest.fail (User_env.error_to_string e)
  in
  let name = String.make 10_000 'x' in
  ignore
    (Api.Call.dispatch system ~handle
       (Api.Call.Create_segment
          {
            dir_segno = home;
            name;
            acl = Acl.of_strings [ ("Alice.Dev.*", "rw") ];
            label = Label.unclassified;
            brackets = None;
          }));
  match Audit_log.tail (System.audit system) 1 with
  | [ r ] ->
      Alcotest.(check string) "operation" "create_segment" r.Audit_log.operation;
      Alcotest.(check string) "capped target"
        (String.make Audit_log.max_target 'x'
        ^ Printf.sprintf "...[%d more bytes]" (10_000 - Audit_log.max_target))
        r.Audit_log.target
  | _ -> Alcotest.fail "expected one record"

(* ----- The compiled gate table and the bitset mask ----- *)

(* What the parent list-scanned catalog and hashtable mask answered,
   as digests of [Trail_script.gate_fingerprint]. *)
let pinned_fingerprints =
  [
    ("645-baseline", "7ecbc9694d20104386bbfc611abe2b49");
    ("6180-hardware-rings", "7ecbc9694d20104386bbfc611abe2b49");
    ("linker-removed", "cc1dc5dca72db8840968b9865f470b12");
    ("naming-removed", "88cfce3d92b47380363e024302a75112");
    ("network-io", "27fc53eb823520f843e9b00fee664f0e");
    ("parallel-kernel-processes", "27fc53eb823520f843e9b00fee664f0e");
    ("security-kernel", "8c34b6ac5674ca08aa2e07d5828b2115");
  ]

let test_gate_fingerprints () =
  List.iter
    (fun config ->
      let digest =
        Digest.to_hex (Digest.string (String.concat "\n" (Trail_script.gate_fingerprint config)))
      in
      Alcotest.(check string) config.Config.name
        (List.assoc config.Config.name pinned_fingerprints)
        digest)
    Config.stages

let test_find_matches_scan () =
  let names = Trail_script.stage_gate_names () @ Trail_script.unknown_gates in
  List.iter
    (fun config ->
      let catalog = Gate.catalog config in
      List.iter
        (fun gate_name ->
          let scanned = List.find_opt (fun e -> e.Gate.gate_name = gate_name) catalog in
          if Gate.find config ~gate_name <> scanned then
            Alcotest.failf "%s: find %S disagrees with the catalog scan" config.Config.name
              gate_name;
          match Gate.id gate_name with
          | Some id ->
              if Gate.lookup (Gate.table config) id <> scanned then
                Alcotest.failf "%s: lookup %S disagrees" config.Config.name gate_name
          | None ->
              if scanned <> None then Alcotest.failf "catalog gate %S has no id" gate_name)
        names)
    Config.stages

let test_mask_matches_hashtable () =
  let names = Trail_script.stage_gate_names () @ Trail_script.unknown_gates in
  List.iter
    (fun config ->
      let sys = System.create config in
      List.iter
        (fun (name, gates) ->
          let reference = Hashtbl.create 64 in
          List.iter (fun g -> Hashtbl.replace reference g ()) gates;
          let mask = System.gate_mask_make ~name ~gates in
          Alcotest.(check (list string)) "gates"
            (List.sort_uniq String.compare gates)
            (System.gate_mask_gates mask);
          System.set_gate_mask sys (Some mask);
          List.iter
            (fun gate ->
              let want = Hashtbl.mem reference gate in
              if System.gate_admitted sys ~gate <> want then
                Alcotest.failf "%s admits %S" name gate;
              match Gate.id gate with
              | Some id when System.gate_admitted_id sys id <> want ->
                  Alcotest.failf "%s admits id of %S" name gate
              | Some _ | None -> ())
            names)
        (Trail_script.masks config))
    Config.stages

let suite =
  [
    ("trail of every request arm is byte-identical", `Quick, test_golden_trail);
    ("typed records render when read", `Quick, test_typed_records);
    ("growth keeps every record", `Quick, test_growth_keeps_records);
    ("ring wraps in order and counts drops", `Slow, test_ring_wraps);
    ("gate accounting is exact past capacity", `Slow, test_accounting_past_capacity);
    ("stored targets are capped", `Quick, test_target_cap);
    ("gate table and masks answer as before", `Quick, test_gate_fingerprints);
    ("gate find matches the catalog scan", `Quick, test_find_matches_scan);
    ("bitset mask matches the hashtable mask", `Quick, test_mask_matches_hashtable);
  ]
