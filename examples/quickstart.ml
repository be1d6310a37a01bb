(* Quickstart: boot the security kernel, create users, share a segment
   under an ACL, and watch the reference monitor rule.

     dune exec examples/quickstart.exe
*)

open Multics_access
open Multics_kernel
module Call = Api.Call

let step fmt = Printf.printf ("\n== " ^^ fmt ^^ "\n")

let show_api what = function
  | Ok _ -> Printf.printf "   %-42s granted\n" what
  | Error e -> Printf.printf "   %-42s REFUSED: %s\n" what (Api.error_to_string e)

let expect what = function
  | Ok v -> v
  | Error e -> failwith (Printf.sprintf "%s: %s" what e)

let () =
  step "boot the engineered security kernel (%s)" Config.kernel_6180.Config.name;
  let system = System.create Config.kernel_6180 in
  Printf.printf "   gates exposed by this kernel: %d (baseline supervisor had %d)\n"
    (Gate.count Config.kernel_6180) (Gate.count Config.baseline_645);
  Printf.printf "   privileged statements run at boot: %d (bootstrap would run %d)\n"
    (System.init_report system).Init.privileged_total
    (Init.run Config.baseline_645).Init.privileged_total;

  step "register two users and log them in";
  ignore
    (System.add_account system ~person:"Schroeder" ~project:"CSR" ~password:"mac-80"
       ~clearance:(Label.make Label.Secret [ "crypto" ]));
  ignore
    (System.add_account system ~person:"Saltzer" ~project:"CSR" ~password:"protection"
       ~clearance:Label.unclassified);
  (* Schroeder's clearance is Secret{crypto}, but this session runs at
     the Unclassified level so he can create and edit Unclassified
     material (the *-property forbids writing below one's level). *)
  let mike =
    expect "login Schroeder"
      (Result.map_error System.login_error_to_string
         (System.login system ~level:Label.unclassified ~person:"Schroeder" ~project:"CSR"
            ~password:"mac-80"))
  in
  let jerry =
    expect "login Saltzer"
      (Result.map_error System.login_error_to_string
         (System.login system ~person:"Saltzer" ~project:"CSR" ~password:"protection"))
  in
  Printf.printf "   Schroeder.CSR logged in (process %d), session level Unclassified\n" mike;
  Printf.printf "   Saltzer.CSR logged in (process %d), clearance Unclassified\n" jerry;

  step "Schroeder creates a draft and shares it read-only with the project";
  let draft =
    expect "create draft"
      (Result.map_error User_env.error_to_string
         (User_env.create_segment_at system ~handle:mike ~path:">udd>CSR>Schroeder>rfc80"
            ~acl:(Acl.of_strings [ ("Schroeder.CSR.*", "rw"); ("*.CSR.*", "r") ])
            ~label:Label.unclassified))
  in
  show_api "Schroeder writes word 0 of the draft"
    (Call.dispatch system ~handle:mike (Call.Write_word { segno = draft; offset = 0; value = 80 }));

  step "Saltzer reads the shared draft through his own address space";
  (* Saltzer walks the tree with initiate calls — naming is user-ring
     business in this kernel. *)
  let draft_for_jerry =
    expect "resolve"
      (Result.map_error User_env.error_to_string
         (User_env.resolve_path system ~handle:jerry ~path:">udd>CSR>Schroeder>rfc80"))
  in
  (match Call.dispatch system ~handle:jerry (Call.Read_word { segno = draft_for_jerry; offset = 0 }) with
  | Ok (Call.Word v) -> Printf.printf "   Saltzer reads word 0: %d\n" v
  | Ok _ -> assert false
  | Error e -> Printf.printf "   read failed: %s\n" (Api.error_to_string e));
  show_api "Saltzer tries to MODIFY the draft"
    (Call.dispatch system ~handle:jerry
       (Call.Write_word { segno = draft_for_jerry; offset = 0; value = 0 }));

  step "the lattice rules independently of ACLs";
  (* A second Schroeder session, this time at his full clearance. *)
  let mike_high =
    expect "login Schroeder (high)"
      (Result.map_error System.login_error_to_string
         (System.login system ~person:"Schroeder" ~project:"CSR" ~password:"mac-80"))
  in
  let classified =
    expect "create classified note"
      (Result.map_error User_env.error_to_string
         (User_env.create_segment_at system ~handle:mike_high
            ~path:">udd>CSR>Schroeder>codeword"
            ~acl:(Acl.of_strings [ ("*.*.*", "rw") ]) (* generous ACL on purpose *)
            ~label:(Label.make Label.Secret [ "crypto" ])))
  in
  show_api "Schroeder (Secret{crypto} session) writes it"
    (Call.dispatch system ~handle:mike_high
       (Call.Write_word { segno = classified; offset = 0; value = 1 }));
  let classified_for_jerry =
    expect "resolve classified"
      (Result.map_error User_env.error_to_string
         (User_env.resolve_path system ~handle:jerry ~path:">udd>CSR>Schroeder>codeword"))
  in
  show_api "Saltzer (Unclassified) tries to read it"
    (Call.dispatch system ~handle:jerry
       (Call.Read_word { segno = classified_for_jerry; offset = 0 }));

  step "removed mechanisms answer as absent gates";
  show_api "calling the removed kernel resolver"
    (Call.dispatch system ~handle:jerry (Call.Resolve_path { path = ">udd" }));

  step "the audit trail saw everything";
  let audit = System.audit system in
  Printf.printf "   %d mediated operations, %d refusals:\n" (Audit_log.length audit)
    (Audit_log.refused audit);
  List.iter
    (fun r -> Printf.printf "     %s\n" (Fmt.str "%a" Audit_log.pp_record r))
    (Audit_log.refusals audit);
  print_newline ()
