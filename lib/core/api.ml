(* The kernel's gate-call interface.

   Every supervisor entry point from the {!Gate} catalog is reached
   one way: build a {!Call.request} and hand it to {!Call.dispatch} —
   THE single audited, metered entry point.

   One per-request match ([Call.route]) decides, once, what a request
   runs as: the operation (a catalog gate, or a hardware gate call or
   operator action), the audit target and the body.  [operation_name]
   reads the operation from it, and [Call.dispatch] runs every route
   through the one mediation wrapper:

   1. the caller's process must exist (an unknown handle is refused
      and audited under an anonymous subject);
   2. a supervisor gate must exist in the running configuration (a
      removed mechanism's gates are simply absent — the caller must
      use the user-ring library instead), and an installed
      specialisation mask must admit it (a stripped gate refuses with
      the same [Gate_absent] before any kernel state is touched);
   3. the caller's ring must be within the gate's call bracket;
   4. the body applies the reference monitor (ACL x lattice at
      descriptor construction, SDW checks at reference).

   The wrapper then writes exactly one audit record and one tick of
   the domain's gate-call tally (the operation's call, its refusal if
   refused, the configuration's call), whatever the outcome.

   Content references ([read_word]/[write_word]) deliberately check
   the SDW installed at initiate time rather than re-deriving policy,
   because that is what the hardware does — and it is why a flawed
   kernel linker that installs a too-permissive descriptor yields a
   real, exploitable unauthorized access (experiment E11). *)

open Multics_access
open Multics_fs
open Multics_link
open Multics_machine
module Obs = Multics_obs.Obs

type error =
  | Fs of Hierarchy.error
  | Kst_error of Kst.error
  | Rnt_error of Rnt.error
  | Gate_absent of string
  | Gate_ring_denied of { gate : string; ring : int }
  | Hardware_denied of Hardware.denial
  | Link_failed of Linker.outcome
  | No_such_process of int
  | No_such_channel of int
  | Device_not_attached of string
  | Not_in_subsystem
  | Not_authorized of string
  | Fault_injected of { site : string; operation : string }
  | Bad_fault_plan of string
  | No_scheduler
  | Bad_tune of string
  | No_smp_plant
  | Site_fenced of { site : int }
  | Site_unreachable of { site : int }

(* The canonical human rendering; [error_to_string] is just
   [Fmt.str "%a" pp]. *)
let pp ppf = function
  | Fs e -> Fmt.pf ppf "fs: %s" (Hierarchy.error_to_string e)
  | Kst_error e -> Fmt.pf ppf "kst: %s" (Kst.error_to_string e)
  | Rnt_error e -> Fmt.pf ppf "rnt: %s" (Rnt.error_to_string e)
  | Gate_absent gate -> Fmt.pf ppf "gate %s is not part of this kernel" gate
  | Gate_ring_denied { gate; ring } ->
      Fmt.pf ppf "gate %s may not be called from ring %d" gate ring
  | Hardware_denied d -> Fmt.pf ppf "hardware: %s" (Hardware.denial_to_string d)
  | Link_failed outcome -> Fmt.pf ppf "link: %s" (Linker.outcome_to_string outcome)
  | No_such_process handle -> Fmt.pf ppf "no process %d" handle
  | No_such_channel id -> Fmt.pf ppf "no event channel %d" id
  | Device_not_attached device -> Fmt.pf ppf "device %s not attached" device
  | Not_in_subsystem -> Fmt.string ppf "not executing in a protected subsystem"
  | Not_authorized what -> Fmt.pf ppf "not authorized: %s" what
  | Fault_injected { site; operation } ->
      Fmt.pf ppf "injected fault at %s aborted %s" site operation
  | Bad_fault_plan detail -> Fmt.pf ppf "bad fault plan: %s" detail
  | No_scheduler -> Fmt.string ppf "no traffic controller is registered"
  | Bad_tune detail -> Fmt.pf ppf "bad scheduler tuning: %s" detail
  | No_smp_plant -> Fmt.string ppf "no multiprocessor plant is attached"
  | Site_fenced { site } ->
      Fmt.pf ppf "site %d is fenced pending salvage-and-resync; refusing rather than risk a stale decision" site
  | Site_unreachable { site } ->
      Fmt.pf ppf "site %d is unreachable (connects unacknowledged past the retry budget)" site

let error_to_string e = Fmt.str "%a" pp e

let ( let* ) r f = Result.bind r f

let fs_result r = Result.map_error (fun e -> Fs e) r
let kst_result r = Result.map_error (fun e -> Kst_error e) r
let rnt_result r = Result.map_error (fun e -> Rnt_error e) r

(* ----- Reply payload records ----- *)

type entry_status = {
  status_name : string;
  status_kind : Hierarchy.kind;
  status_label : Label.t;
  status_pages : int;
}

type link_status = {
  link_target_seg : string;
  link_target_entry : string;
  link_snapped : bool;
}

type process_info = {
  info_principal : string;
  info_ring : int;
  info_level : Label.t;
  info_known_segments : int;
  info_login_ring : int;
}

(* An operation a call is mediated under: its name, whether it is a
   supervisor gate (checked against the catalog, the mask and the ring
   bracket; its dense id is [None] for a name no catalog has) or a
   hardware gate call / operator action (the body alone decides), and
   its dense op id, which indexes the gate-call tally. *)
type kind = Supervisor of Gate.id option | Hardware

type op = { op_name : string; op_kind : kind; op_id : int }

(* Every operation dispatch can mediate under, made once at module
   initialisation: a call resolves its operation and its tally slots
   with no string building and no registry lookup. *)
module Op = struct
  let names = ref [] (* newest first; its length is the next op id *)

  let make op_kind name =
    let op_id = List.length !names in
    names := name :: !names;
    { op_name = name; op_kind; op_id }

  let gate name = make (Supervisor (Gate.id name)) name
  let action name = make Hardware name

  let initiate = gate "initiate" and terminate = gate "terminate"
  and create_segment = gate "create_segment" and create_directory = gate "create_directory"
  and delete_entry = gate "delete_entry" and rename_entry = gate "rename_entry"
  and list_directory = gate "list_directory" and status_entry = gate "status_entry"
  and set_acl = gate "set_acl" and set_brackets = gate "set_brackets"
  and set_gate_bound = gate "set_gate_bound" and set_quota = gate "set_quota"
  and read_word = gate "read_word" and write_word = gate "write_word"

  let initiate_by_path = gate "initiate_by_path"
  and create_segment_by_path = gate "create_segment_by_path"
  and create_directory_by_path = gate "create_directory_by_path"
  and delete_by_path = gate "delete_by_path" and resolve_path = gate "resolve_path"
  and terminate_by_path = gate "terminate_by_path" and rnt_bind = gate "rnt_bind"
  and rnt_lookup = gate "rnt_lookup" and rnt_unbind = gate "rnt_unbind"
  and list_reference_names = gate "list_reference_names"
  and get_working_dir = gate "get_working_dir" and set_working_dir = gate "set_working_dir"
  and initiate_count = gate "initiate_count"

  let snap_link = gate "snap_link" and list_links = gate "list_links"
  and set_search_rules = gate "set_search_rules" and get_search_rules = gate "get_search_rules"
  and create_channel = gate "create_channel" and send_wakeup = gate "send_wakeup"
  and block = gate "block"

  let subsystem_entry = action "subsystem_entry" and subsystem_exit = action "subsystem_exit"
  and fault_control = action "fault_control" and fault_status = action "fault_status"
  and fault_clear = action "fault_clear" and salvage = action "salvage"
  and probe_access = action "probe_access" and cache_status = action "cache_status"
  and cache_clear = action "cache_clear" and sched_status = action "sched_status"
  and sched_tune = action "sched_tune" and smp_status = action "smp_status"

  (* Which gates serve a device depends on the configuration: per-device
     drivers each have their own; under network-only I/O every external
     device reaches the system through the network attachment. *)
  type io = { attach : op; io : op; detach : op }

  let io_gates prefix =
    { attach = gate (prefix ^ "_attach"); io = gate (prefix ^ "_io"); detach = gate (prefix ^ "_detach") }

  let drivers = List.map (fun d -> (d, io_gates (Multics_io.Device.name d))) Multics_io.Device.all
  let network = io_gates "net"

  let io system device =
    match (System.config system).Config.io with
    | Config.Device_drivers -> List.assq device drivers
    | Config.Network_only -> network

  (* Process management is a set of supervisor gates under privileged
     login and of subsystem entries under unified login. *)
  let login name =
    let supervisor = gate name and unified = action ("subsystem_entry:" ^ name) in
    fun system ->
      if Option.is_some (Gate.find (System.config system) ~gate_name:name) then supervisor
      else unified

  let create_process = login "create_process" and destroy_process = login "destroy_process"
  and new_proc = login "new_proc" and proc_info = login "proc_info"
  and list_processes = login "list_processes" and operator_message = login "operator_message"
end

(* ----- Metering: one gate-call tally per domain -----

   Each mediated call is counted once: at [2 * op_id], at
   [2 * op_id + 1] if refused, and at [config_base] + its
   configuration's id.  Every [gate.*] and [config.<name>.gate.*]
   reading is derived from the array at capture (rows of one name sum),
   cycles priced at the configuration's cross-ring round trip — the
   accounting {!Session} applies, so snapshots and the E13 table agree. *)

let op_rows =
  List.rev_map (fun name -> ("gate." ^ name ^ ".calls", "gate." ^ name ^ ".refusals")) !Op.names

let config_base = 2 * List.length op_rows

type tally = { mutable counts : int array }

let readings t =
  let count i = if i < Array.length t.counts then t.counts.(i) else 0 in
  let per_op id (calls, refusals) =
    let c = count (2 * id) and r = count ((2 * id) + 1) in
    [ (calls, c); ("gate.calls", c); (refusals, r); ("gate.refusals", r) ]
  and per_config (id, name, price) =
    let c = count (config_base + (id : Gate.config_id :> int)) in
    let cycles = c * price in
    [
      ("config." ^ name ^ ".gate.calls", c);
      ("config." ^ name ^ ".gate.cycles", cycles);
      ("gate.cycles", cycles);
    ]
  in
  List.concat (List.mapi per_op op_rows) @ List.concat_map per_config (Gate.priced_configs ())
  |> List.filter (fun (_, n) -> n > 0)

let tally =
  Obs.Local.derived
    (fun () -> { counts = Array.make (config_base + 8) 0 })
    ~read:readings
    ~reset:(fun t -> Array.fill t.counts 0 (Array.length t.counts) 0)

let count_call system op ~refused =
  let t = tally () in
  let c = config_base + (System.config_id system :> int) in
  if c >= Array.length t.counts then begin
    let grown = Array.make (2 * c) 0 in
    Array.blit t.counts 0 grown 0 (Array.length t.counts);
    t.counts <- grown
  end;
  let counts = t.counts and i = 2 * op.op_id in
  counts.(i) <- counts.(i) + 1;
  if refused then counts.(i + 1) <- counts.(i + 1) + 1;
  counts.(c) <- counts.(c) + 1

(* The end of every call: one audit record (the error itself stored,
   rendered only when the trail is read), then one tally tick. *)
let settle system op at ~subject result =
  Audit_log.log ~at (System.audit system) ~subject ~operation:op.op_name
    ~verdict:
      (match result with
      | Ok _ -> Audit_log.Granted
      | Error e -> Audit_log.Refused_by (error_to_string, e));
  if Obs.enabled () then count_call system op ~refused:(Result.is_error result);
  result

(* The subject a call from an unknown process handle is audited under:
   unauthenticated, at the outermost ring — as [System.login] records a
   failed attempt. *)
let anonymous =
  Policy.subject
    ~principal:(Principal.interactive ~person:"anonymous" ~project:"anonymous")
    ~clearance:Label.unclassified ~ring:Ring.outermost ()

(* ----- The gate discipline ----- *)

(* A supervisor gate must be present in the configuration and admitted
   by the specialisation mask (a stripped entry refuses exactly like a
   removed mechanism's — [Gate_absent], no kernel state touched), and
   the caller's ring must be within its call bracket.  A by-path
   attribute edit additionally needs naming in the kernel.

   Fault injection hooks in on the refusing side only: an injected
   [Gate_deny] turns the call away before the body runs, and the
   mutating bodies consult [Gate_abort] after their hierarchy update
   (see [abort_after_mutation]).  Neither can widen what the reference
   monitor granted.  Hardware gate calls and operator actions are not
   supervisor entries: only their body decides. *)
let admit system (p : System.proc) ~by_path op =
  let absent () = Error (Gate_absent op.op_name) in
  match op.op_kind with
  | Hardware -> Ok ()
  | Supervisor _ when by_path && (System.config system).Config.naming = Rnt.In_user_ring ->
      Error (Gate_absent (op.op_name ^ "_by_path"))
  | Supervisor None -> absent ()
  | Supervisor (Some id) -> (
      match Gate.lookup (Gate.table (System.config system)) id with
      | None -> absent ()
      | Some _ when not (System.gate_admitted_id system id) -> absent ()
      | Some entry when Ring.to_int p.System.ring > Ring.to_int entry.Gate.call_top ->
          Error (Gate_ring_denied { gate = op.op_name; ring = Ring.to_int p.System.ring })
      | Some _ ->
          if System.fault_fires system Multics_fault.Fault.Gate_deny then
            Error (Fault_injected { site = "gate.deny"; operation = op.op_name })
          else Ok ())

(* Consulted by the mutating bodies right after their hierarchy update
   succeeded: an injected abort records what the kernel knew in the
   crash journal and fails the call — the caller never learns the
   object exists, and the salvager later rolls the orphan back. *)
let abort_after_mutation system (p : System.proc) op ~dir ~entry_name =
  if System.fault_fires system Multics_fault.Fault.Gate_abort then begin
    System.journal_crash system ~handle:p.System.handle ~operation:op.op_name ~dir ~entry_name ();
    Error (Fault_injected { site = "gate.abort"; operation = op.op_name })
  end
  else Ok ()

(* Device transients: each fired fault costs one backoff period on the
   system clock (doubled per retry); three consecutive failures give
   the operation up with a typed refusal. *)
let device_transient_attempts = 3

let device_transient_guard system ~device ~operation =
  match System.faults system with
  | None -> Ok ()
  | Some inj ->
      let site = Multics_fault.Fault.Device_transient in
      let base = Multics_io.Device.service_cycles device in
      let rec attempt i =
        if not (Multics_fault.Fault.Injector.fire inj site) then Ok ()
        else begin
          Clock.advance (System.clock system) (base * (1 lsl (i - 1)));
          if i >= device_transient_attempts then begin
            Multics_fault.Fault.Injector.count_giveup inj site;
            Error (Fault_injected { site = Multics_fault.Fault.site_name site; operation })
          end
          else begin
            Multics_fault.Fault.Injector.count_retry inj site;
            attempt (i + 1)
          end
        end
      in
      attempt 1

let uid_of_segno (p : System.proc) segno = kst_result (Kst.uid_of_segno p.System.kst segno)

(* ----- Shared helpers for gate bodies ----- *)

(* Every content reference goes through the process's associative
   memory: a hit reuses the cached SDW, a miss fetches it from the KST
   (the simulated descriptor-segment walk) and installs it.  The KST's
   descriptor-change hook invalidates the entry on setfaults,
   terminate, and salvage, so a revoked descriptor can never be
   re-checked from the CAM.  Under a multiprocessor plant the
   reference runs through the current CPU's own associative memory
   first — kept coherent by the connect protocol, so the routing can
   change which cache answers, never what it answers. *)
let check_sdw system (p : System.proc) ~segno ~operation =
  let fetch () = Kst.sdw_of p.System.kst segno in
  let decision =
    match System.plant system with
    | Some plant ->
        Multics_smp.Smp.check_sdw plant ~handle:p.System.handle ~segno ~assoc:p.System.assoc
          ~fetch ~ring:p.System.ring ~operation
    | None -> Hardware.check_via_assoc p.System.assoc ~segno ~fetch ~ring:p.System.ring ~operation
  in
  match decision with
  | None -> Error (Kst_error (Kst.Unknown_segno segno))
  | Some (Hardware.Granted grant) -> Ok grant
  | Some (Hardware.Denied denial) -> Error (Hardware_denied denial)

let parent_path path =
  let n = String.length path in
  match String.rindex_opt path '>' with
  | None | Some 0 -> (">", if n = 0 then "" else String.sub path 1 (n - 1))
  | Some i -> (String.sub path 0 i, String.sub path (i + 1) (n - i - 1))

(* The historical escalation: when the flawed ring-0 linker snaps a
   link it found with supervisor authority, it also installs a
   supervisor-grade descriptor for the target — the user ends up with
   read/write access the reference monitor never granted. *)
let install_after_flawed_snap (p : System.proc) ~target =
  let segno, _ = Kst.make_known p.System.kst ~uid:target in
  let sdw = Sdw.make ~mode:Mode.rew ~brackets:Multics_machine.Brackets.user_data () in
  ignore (Kst.set_sdw p.System.kst segno sdw);
  segno

let buffer_for_config system () =
  match (System.config system).Config.buffer with
  | Config.Circular_ring capacity ->
      Multics_io.Network.Circular (Multics_io.Circular_buffer.create ~capacity)
  | Config.Infinite_vm -> Multics_io.Network.Infinite (Multics_io.Infinite_buffer.create ())

(* ----- The typed gate-call surface ----- *)

module Call = struct
  type request =
    (* directory control *)
    | Initiate of { dir_segno : int; name : string }
    | Terminate of { segno : int }
    | Create_segment of {
        dir_segno : int;
        name : string;
        acl : Acl.t;
        label : Label.t;
        brackets : Brackets.t option;
      }
    | Create_directory of { dir_segno : int; name : string; acl : Acl.t; label : Label.t }
    | Delete_entry of { dir_segno : int; name : string }
    | Rename_entry of { dir_segno : int; name : string; new_name : string }
    | List_directory of { dir_segno : int }
    | Status_entry of { dir_segno : int; name : string }
    | Set_acl of { segno : int; acl : Acl.t }
    | Set_brackets of { segno : int; brackets : Brackets.t }
    | Set_gate_bound of { segno : int; gate_bound : int }
    | Set_quota of { segno : int; quota : int option }
    (* content references *)
    | Read_word of { segno : int; offset : int }
    | Write_word of { segno : int; offset : int; value : int }
    (* naming (kernel-resident naming only) *)
    | Initiate_by_path of { path : string }
    | Create_segment_by_path of {
        path : string;
        acl : Acl.t;
        label : Label.t;
        brackets : Brackets.t option;
      }
    | Create_directory_by_path of { path : string; acl : Acl.t; label : Label.t }
    | Delete_by_path of { path : string }
    | Set_acl_by_path of { path : string; acl : Acl.t }
    | Set_brackets_by_path of { path : string; brackets : Brackets.t }
    | Resolve_path of { path : string }
    | Terminate_by_path of { path : string }
    | Rnt_bind of { name : string; segno : int }
    | Rnt_lookup of { name : string }
    | Rnt_unbind of { name : string }
    | List_reference_names of { segno : int }
    | Get_working_dir
    | Set_working_dir of { dir_segno : int }
    | Initiate_count
    (* linker (kernel-resident linker only) *)
    | Snap_link of { segno : int; link_index : int }
    | List_links of { segno : int }
    | Set_search_rules of { dir_segnos : int list }
    | Get_search_rules
    (* protected subsystems (hardware gate calls) *)
    | Enter_subsystem of { segno : int; entry_offset : int; name : string }
    | Exit_subsystem
    (* IPC *)
    | Create_channel
    | Send_wakeup of { channel : int }
    | Block of { channel : int }
    (* external I/O *)
    | Attach_device of { device : Multics_io.Device.kind }
    | Detach_device of { device : Multics_io.Device.kind }
    | Device_write of { device : Multics_io.Device.kind; message : int }
    | Device_read of { device : Multics_io.Device.kind }
    (* process management *)
    | Create_process
    | Destroy_process of { target : int }
    | New_proc
    | Proc_info
    | List_processes
    | Operator_message of { message : string }
    (* fault injection and salvage (operator/hardware surface) *)
    | Set_fault_plan of { seed : int; spec : string }
    | Fault_status
    | Clear_faults
    | Salvage
    (* cache inspection and control (operator/hardware surface) *)
    | Probe_access of { segno : int; requested : Mode.t }
    | Cache_status
    | Cache_clear
    (* traffic controller (operator/hardware surface) *)
    | Sched_status
    | Sched_tune of { param : string; value : int }
    (* multiprocessor plant (operator/hardware surface) *)
    | Smp_status

  type reply =
    | Done
    | Segno of int
    | Word of int
    | Message of int option
    | Names of string list
    | Status of entry_status
    | Links of link_status list
    | Snapped of { segno : int; offset : int }
    | Entered of Ring.t
    | Channel of int
    | Consumed of bool
    | Process of int
    | Processes of int list
    | Info of process_info
    | Fault_report of { plan : string; counts : (string * int) list }
    | Salvaged of Salvager.report
    | Probed of Policy.verdict
    | Cache_report of { policy : (string * int) list; assoc : (string * int) list }
    | Sched_report of { policy : string; counters : (string * int) list }
    | Smp_report of {
        ncpus : int;
        plant : (string * int) list;  (** plant-wide readings, sorted *)
        cpus : (int * (string * int) list) list;  (** per-CPU readings *)
      }

  type response = (reply, error) result

  (* What a request runs as: the operation it is mediated, audited and
     metered under, the audit target, whether it is a by-path attribute
     edit (which needs naming in the kernel), and the body. *)
  type route = {
    op : op;
    at : Audit_log.target;
    by_path : bool;
    body : System.proc -> Policy.subject -> response;
  }

  let on ?(by_path = false) op at body = { op; at; by_path; body }
  let named name = Audit_log.Name name

  (* THE per-request match: the only place a request is mapped to its
     operation. *)
  let route system : request -> route = function
    (* ----- Directory control ----- *)
    | Initiate { dir_segno; name } ->
        on Op.initiate (named name) (fun p subject ->
            let* dir = uid_of_segno p dir_segno in
            let* uid =
              fs_result (Hierarchy.lookup (System.hierarchy system) ~subject ~dir ~name)
            in
            Ok (Segno (System.install_known system p ~uid)))
    | Terminate { segno } ->
        on Op.terminate (Audit_log.Segno segno) (fun p _subject ->
            let* () = kst_result (Kst.terminate p.System.kst segno) in
            Ok Done)
    | Create_segment { dir_segno; name; acl; label; brackets } ->
        let op = Op.create_segment in
        on op (named name) (fun p subject ->
            let* dir = uid_of_segno p dir_segno in
            let* uid =
              fs_result
                (Hierarchy.create_segment ?brackets (System.hierarchy system) ~subject ~dir
                   ~name ~acl ~label)
            in
            let* () = abort_after_mutation system p op ~dir ~entry_name:name in
            Ok (Segno (System.install_known system p ~uid)))
    | Create_directory { dir_segno; name; acl; label } ->
        let op = Op.create_directory in
        on op (named name) (fun p subject ->
            let* dir = uid_of_segno p dir_segno in
            let* uid =
              fs_result
                (Hierarchy.create_directory (System.hierarchy system) ~subject ~dir ~name ~acl
                   ~label)
            in
            let* () = abort_after_mutation system p op ~dir ~entry_name:name in
            Ok (Segno (System.install_known system p ~uid)))
    | Delete_entry { dir_segno; name } ->
        on Op.delete_entry (named name) (fun p subject ->
            let* dir = uid_of_segno p dir_segno in
            let* _uid =
              fs_result (Hierarchy.delete_entry (System.hierarchy system) ~subject ~dir ~name)
            in
            Ok Done)
    | Rename_entry { dir_segno; name; new_name } ->
        on Op.rename_entry (named name) (fun p subject ->
            let* dir = uid_of_segno p dir_segno in
            let* _uid =
              fs_result
                (Hierarchy.rename_entry (System.hierarchy system) ~subject ~dir ~name ~new_name)
            in
            Ok Done)
    | List_directory { dir_segno } ->
        on Op.list_directory (Audit_log.Segno dir_segno) (fun p subject ->
            let* dir = uid_of_segno p dir_segno in
            let* entries =
              fs_result (Hierarchy.list_entries (System.hierarchy system) ~subject ~dir)
            in
            Ok (Names (List.map (fun (name, _uid) -> name) entries)))
    | Status_entry { dir_segno; name } ->
        on Op.status_entry (named name) (fun p subject ->
            let* dir = uid_of_segno p dir_segno in
            let hierarchy = System.hierarchy system in
            let* uid = fs_result (Hierarchy.lookup hierarchy ~subject ~dir ~name) in
            match (Hierarchy.kind_of hierarchy uid, Hierarchy.label_of hierarchy uid) with
            | Some status_kind, Some status_label ->
                Ok
                  (Status
                     {
                       status_name = name;
                       status_kind;
                       status_label;
                       status_pages =
                         Option.value ~default:0 (Hierarchy.page_count_of hierarchy uid);
                     })
            | _, _ -> Error (Fs (Hierarchy.No_entry name)))
    (* Attribute changes finish with "setfaults": every cached
       descriptor for the object is recomputed, so a revoked grant
       cannot survive in any process's SDW. *)
    | Set_acl { segno; acl } ->
        on Op.set_acl (Audit_log.Segno segno) (fun p subject ->
            let* uid = uid_of_segno p segno in
            let* () = fs_result (Hierarchy.set_acl (System.hierarchy system) ~subject ~uid ~acl) in
            System.setfaults system ~uid;
            Ok Done)
    | Set_brackets { segno; brackets } ->
        on Op.set_brackets (Audit_log.Segno segno) (fun p subject ->
            let* uid = uid_of_segno p segno in
            let* () =
              fs_result (Hierarchy.set_brackets (System.hierarchy system) ~subject ~uid ~brackets)
            in
            System.setfaults system ~uid;
            Ok Done)
    | Set_gate_bound { segno; gate_bound } ->
        on Op.set_gate_bound (Audit_log.Segno segno) (fun p subject ->
            let* uid = uid_of_segno p segno in
            let* () =
              fs_result
                (Hierarchy.set_gate_bound (System.hierarchy system) ~subject ~uid ~gate_bound)
            in
            System.setfaults system ~uid;
            Ok Done)
    | Set_quota { segno; quota } ->
        on Op.set_quota (Audit_log.Segno segno) (fun p subject ->
            let* uid = uid_of_segno p segno in
            let* () = fs_result (Hierarchy.set_quota (System.hierarchy system) ~subject ~uid ~quota) in
            Ok Done)
    (* ----- Content references (SDW-checked, as the hardware does) ----- *)
    | Read_word { segno; offset } ->
        on Op.read_word (Audit_log.Offset (segno, offset)) (fun p _subject ->
            let* _grant = check_sdw system p ~segno ~operation:Hardware.Read in
            let* uid = uid_of_segno p segno in
            let* value = fs_result (Hierarchy.raw_read_word (System.hierarchy system) ~uid ~offset) in
            Ok (Word value))
    | Write_word { segno; offset; value } ->
        on Op.write_word (Audit_log.Offset (segno, offset)) (fun p _subject ->
            let* _grant = check_sdw system p ~segno ~operation:Hardware.Write in
            let* uid = uid_of_segno p segno in
            (* Segment control charges the quota cell for any growth
               before the page materializes, whichever path the write
               came by. *)
            let* () =
              fs_result (Hierarchy.raw_write_word (System.hierarchy system) ~uid ~offset ~value)
            in
            Ok Done)
    (* ----- Naming gates (present only while naming is in the kernel) ----- *)
    | Initiate_by_path { path } ->
        on Op.initiate_by_path (named path) (fun p subject ->
            let* uid = fs_result (Hierarchy.resolve (System.hierarchy system) ~subject ~path) in
            let segno = System.install_known system p ~uid in
            let* () = kst_result (Kst.record_pathname p.System.kst segno path) in
            Ok (Segno segno))
    | Create_segment_by_path { path; acl; label; brackets } ->
        let op = Op.create_segment_by_path in
        on op (named path) (fun p subject ->
            let dir_path, name = parent_path path in
            let hierarchy = System.hierarchy system in
            let* dir = fs_result (Hierarchy.resolve hierarchy ~subject ~path:dir_path) in
            let* uid =
              fs_result (Hierarchy.create_segment ?brackets hierarchy ~subject ~dir ~name ~acl ~label)
            in
            let* () = abort_after_mutation system p op ~dir ~entry_name:name in
            let segno = System.install_known system p ~uid in
            let* () = kst_result (Kst.record_pathname p.System.kst segno path) in
            Ok (Segno segno))
    | Create_directory_by_path { path; acl; label } ->
        let op = Op.create_directory_by_path in
        on op (named path) (fun p subject ->
            let dir_path, name = parent_path path in
            let hierarchy = System.hierarchy system in
            let* dir = fs_result (Hierarchy.resolve hierarchy ~subject ~path:dir_path) in
            let* uid =
              fs_result (Hierarchy.create_directory hierarchy ~subject ~dir ~name ~acl ~label)
            in
            let* () = abort_after_mutation system p op ~dir ~entry_name:name in
            Ok (Segno (System.install_known system p ~uid)))
    | Delete_by_path { path } ->
        on Op.delete_by_path (named path) (fun _p subject ->
            let dir_path, name = parent_path path in
            let hierarchy = System.hierarchy system in
            let* dir = fs_result (Hierarchy.resolve hierarchy ~subject ~path:dir_path) in
            let* _uid = fs_result (Hierarchy.delete_entry hierarchy ~subject ~dir ~name) in
            Ok Done)
    (* Path-addressed attribute edits: the same supervisor entries as
       [Set_acl]/[Set_brackets] (same gates, same audit operation),
       reached by tree name instead of a process-local segment number.
       The kernel resolves the name itself, so — like every other
       by-path entry — these exist only while naming lives in the
       kernel ([admit] refuses them with [Gate_absent "<x>_by_path"]
       otherwise); post-removal callers compose resolution in the user
       ring (User_env, or a distribution layer such as Site) and call
       the segment-number gate.  Both forms finish with the same
       "setfaults" revocation step. *)
    | Set_acl_by_path { path; acl } ->
        on ~by_path:true Op.set_acl (named path) (fun _p subject ->
            let hierarchy = System.hierarchy system in
            let* uid = fs_result (Hierarchy.resolve hierarchy ~subject ~path) in
            let* () = fs_result (Hierarchy.set_acl hierarchy ~subject ~uid ~acl) in
            System.setfaults system ~uid;
            Ok Done)
    | Set_brackets_by_path { path; brackets } ->
        on ~by_path:true Op.set_brackets (named path) (fun _p subject ->
            let hierarchy = System.hierarchy system in
            let* uid = fs_result (Hierarchy.resolve hierarchy ~subject ~path) in
            let* () = fs_result (Hierarchy.set_brackets hierarchy ~subject ~uid ~brackets) in
            System.setfaults system ~uid;
            Ok Done)
    | Resolve_path { path } ->
        on Op.resolve_path (named path) (fun p subject ->
            let* uid = fs_result (Hierarchy.resolve (System.hierarchy system) ~subject ~path) in
            Ok (Segno (System.install_known system p ~uid)))
    | Terminate_by_path { path } ->
        on Op.terminate_by_path (named path) (fun p subject ->
            let* uid = fs_result (Hierarchy.resolve (System.hierarchy system) ~subject ~path) in
            match Kst.segno_of_uid p.System.kst ~uid with
            | Some segno ->
                let* () = kst_result (Kst.terminate p.System.kst segno) in
                Ok Done
            | None -> Error (Kst_error (Kst.Unknown_segno 0)))
    | Rnt_bind { name; segno } ->
        on Op.rnt_bind (named name) (fun p _subject ->
            let* () = rnt_result (Rnt.bind p.System.rnt ~name ~segno) in
            Ok Done)
    | Rnt_lookup { name } ->
        on Op.rnt_lookup (named name) (fun p _subject ->
            let* segno = rnt_result (Rnt.lookup p.System.rnt ~name) in
            Ok (Segno segno))
    | Rnt_unbind { name } ->
        on Op.rnt_unbind (named name) (fun p _subject ->
            let* () = rnt_result (Rnt.unbind p.System.rnt ~name) in
            Ok Done)
    | List_reference_names { segno } ->
        on Op.list_reference_names (Audit_log.Segno segno) (fun p _subject ->
            Ok (Names (Rnt.names_for_segno p.System.rnt ~segno)))
    | Get_working_dir ->
        on Op.get_working_dir (named "wd") (fun p _subject ->
            Ok (Segno (System.install_known system p ~uid:p.System.working_dir)))
    | Set_working_dir { dir_segno } ->
        on Op.set_working_dir (Audit_log.Segno dir_segno) (fun p _subject ->
            let* uid = uid_of_segno p dir_segno in
            p.System.working_dir <- uid;
            Ok Done)
    | Initiate_count ->
        on Op.initiate_count (named "kst") (fun p _subject ->
            Ok (Word (Kst.entry_count p.System.kst)))
    (* ----- Linker gates (present only while the linker is in the kernel) ----- *)
    | Snap_link { segno; link_index } ->
        on Op.snap_link (Audit_log.Link (segno, link_index)) (fun p subject ->
            let* from_uid = uid_of_segno p segno in
            let linker = System.linker system in
            match
              Linker.resolve_link linker ~subject ~rules:p.System.rules ~from_uid ~link_index
            with
            | Linker.Snapped { target; offset; _ } | Linker.Already_snapped { target; offset } ->
                let target_segno =
                  if Linker.has_flaw linker Linker.Supervisor_authority_walk then
                    install_after_flawed_snap p ~target
                  else System.install_known system p ~uid:target
                in
                Ok (Snapped { segno = target_segno; offset })
            | other -> Error (Link_failed other))
    | List_links { segno } ->
        on Op.list_links (Audit_log.Segno segno) (fun p _subject ->
            let* uid = uid_of_segno p segno in
            match Object_seg.Store.get (System.store system) ~uid with
            | None -> Ok (Links [])
            | Some obj ->
                Ok
                  (Links
                     (List.init (Object_seg.link_count obj) (fun i ->
                          match Object_seg.link obj i with
                          | Some l ->
                              {
                                link_target_seg = l.Object_seg.target_seg;
                                link_target_entry = l.Object_seg.target_entry;
                                link_snapped = l.Object_seg.snapped <> None;
                              }
                          | None ->
                              {
                                link_target_seg = "?";
                                link_target_entry = "?";
                                link_snapped = false;
                              }))))
    | Set_search_rules { dir_segnos } ->
        on Op.set_search_rules (named "rules") (fun p _subject ->
            let rec collect acc = function
              | [] -> Ok (List.rev acc)
              | segno :: rest ->
                  let* uid = uid_of_segno p segno in
                  collect ((string_of_int segno, uid) :: acc) rest
            in
            let* dirs = collect [] dir_segnos in
            p.System.rules <- Search_rules.of_dirs dirs;
            Ok Done)
    | Get_search_rules ->
        on Op.get_search_rules (named "rules") (fun p _subject ->
            Ok (Names (Search_rules.rule_names p.System.rules)))
    (* ----- Protected subsystem entry -----

       On the 6180 entering a protected subsystem is a hardware gate
       call, not a supervisor entry, so it is available in every
       configuration; only its SDW decides whether the crossing is
       legal.  (Under the unified-login configuration the same
       mechanism also performs login.)  The call is still audited. *)
    | Enter_subsystem { segno; entry_offset; name } ->
        on Op.subsystem_entry (named name) (fun p _subject ->
            let* grant = check_sdw system p ~segno ~operation:(Hardware.Call entry_offset) in
            match grant with
            | Hardware.Gate_entry target_ring ->
                p.System.subsystem_stack <- (name, p.System.ring) :: p.System.subsystem_stack;
                p.System.ring <- target_ring;
                Ok (Entered target_ring)
            | Hardware.Access_ok ->
                (* Same-ring call: no protection boundary crossed. *)
                Ok (Entered p.System.ring))
    | Exit_subsystem ->
        on Op.subsystem_exit (named "(return)") (fun p _subject ->
            match p.System.subsystem_stack with
            | [] -> Error Not_in_subsystem
            | (_name, restore_ring) :: rest ->
                p.System.subsystem_stack <- rest;
                p.System.ring <- restore_ring;
                Ok (Entered restore_ring))
    (* ----- IPC gates ----- *)
    | Create_channel ->
        on Op.create_channel (named "channel") (fun _p _subject ->
            Ok (Channel (System.new_ipc_channel system)))
    | Send_wakeup { channel } ->
        on Op.send_wakeup (named (string_of_int channel)) (fun _p _subject ->
            match System.ipc_channel system channel with
            | None -> Error (No_such_channel channel)
            | Some pending ->
                incr pending;
                Ok Done)
    | Block { channel } ->
        on Op.block (named (string_of_int channel)) (fun _p _subject ->
            match System.ipc_channel system channel with
            | None -> Error (No_such_channel channel)
            | Some pending ->
                if !pending > 0 then begin
                  decr pending;
                  Ok (Consumed true)
                end
                else Ok (Consumed false))
    (* ----- External I/O gates ----- *)
    | Attach_device { device } ->
        let dev = Multics_io.Device.name device in
        on (Op.io system device).attach (named dev) (fun _p _subject ->
            let buffers = System.io_buffers system in
            if not (Hashtbl.mem buffers dev) then
              Hashtbl.replace buffers dev (buffer_for_config system ());
            Ok Done)
    | Detach_device { device } ->
        let dev = Multics_io.Device.name device in
        on (Op.io system device).detach (named dev) (fun _p _subject ->
            if Hashtbl.mem (System.io_buffers system) dev then begin
              Hashtbl.remove (System.io_buffers system) dev;
              Ok Done
            end
            else Error (Device_not_attached dev))
    | Device_write { device; message } ->
        let dev = Multics_io.Device.name device in
        on (Op.io system device).io (named dev) (fun _p _subject ->
            let* () = device_transient_guard system ~device ~operation:"device_write" in
            match Hashtbl.find_opt (System.io_buffers system) dev with
            | None -> Error (Device_not_attached dev)
            | Some (Multics_io.Network.Circular buffer) ->
                Multics_io.Circular_buffer.write buffer message;
                Ok Done
            | Some (Multics_io.Network.Infinite buffer) ->
                Multics_io.Infinite_buffer.write buffer message;
                Ok Done)
    | Device_read { device } ->
        let dev = Multics_io.Device.name device in
        on (Op.io system device).io (named dev) (fun _p _subject ->
            let* () = device_transient_guard system ~device ~operation:"device_read" in
            match Hashtbl.find_opt (System.io_buffers system) dev with
            | None -> Error (Device_not_attached dev)
            | Some (Multics_io.Network.Circular buffer) ->
                Ok (Message (Multics_io.Circular_buffer.read buffer))
            | Some (Multics_io.Network.Infinite buffer) ->
                Ok (Message (Multics_io.Infinite_buffer.read buffer)))
    (* ----- Process-management gates ----- *)
    | Create_process ->
        on (Op.create_process system) (named "child") (fun p _subject ->
            match System.clone_process system ~handle:p.System.handle with
            | Some child -> Ok (Process child)
            | None -> Error (No_such_process p.System.handle))
    | Destroy_process { target } ->
        on (Op.destroy_process system) (named (string_of_int target)) (fun p _subject ->
            if List.mem target (System.sibling_handles system ~handle:p.System.handle) then
              if System.logout system ~handle:target then Ok Done
              else Error (No_such_process target)
            else Error (Not_authorized "destroy_process: not your process"))
    | New_proc ->
        on (Op.new_proc system) (named "self") (fun p _subject ->
            match System.clone_process system ~handle:p.System.handle with
            | Some fresh ->
                ignore (System.logout system ~handle:p.System.handle);
                Ok (Process fresh)
            | None -> Error (No_such_process p.System.handle))
    | Proc_info ->
        on (Op.proc_info system) (named "self") (fun p _subject ->
            Ok
              (Info
                 {
                   info_principal = Principal.to_string p.System.principal;
                   info_ring = Ring.to_int p.System.ring;
                   info_level = p.System.clearance;
                   info_known_segments = Kst.entry_count p.System.kst;
                   info_login_ring = Ring.to_int p.System.login_ring;
                 }))
    | List_processes ->
        on (Op.list_processes system) (named "siblings") (fun p _subject ->
            Ok (Processes (System.sibling_handles system ~handle:p.System.handle)))
    | Operator_message { message } ->
        on (Op.operator_message system) (named message) (fun _p _subject -> Ok Done)
    (* ----- Fault injection and salvage -----

       Operator actions, present in every configuration (like the
       hardware gate calls), still audited and metered.  Installing a
       plan can only make the system slower or more refusing; salvage
       can only remove state or re-derive descriptors — so neither
       needs a supervisor gate of its own to stay fail-secure. *)
    | Set_fault_plan { seed; spec } ->
        on Op.fault_control (named spec) (fun _p _subject ->
            match Multics_fault.Fault.Plan.parse ~seed spec with
            | Error detail -> Error (Bad_fault_plan detail)
            | Ok plan ->
                System.set_faults system
                  (if Multics_fault.Fault.Plan.is_empty plan then None
                   else Some (Multics_fault.Fault.Injector.create plan));
                Ok Done)
    | Fault_status ->
        on Op.fault_status (named "faults") (fun _p _subject ->
            match System.faults system with
            | None -> Ok (Fault_report { plan = "none"; counts = [] })
            | Some inj ->
                Ok
                  (Fault_report
                     {
                       plan = Multics_fault.Fault.Plan.to_string (Multics_fault.Fault.Injector.plan inj);
                       counts = Multics_fault.Fault.Injector.counts inj;
                     }))
    | Clear_faults ->
        on Op.fault_clear (named "faults") (fun _p _subject ->
            System.set_faults system None;
            Ok Done)
    | Salvage ->
        on Op.salvage (named "hierarchy") (fun _p _subject -> Ok (Salvaged (Salvager.run system)))
    (* ----- Cache inspection and control -----

       Operator surface, like fault control.  Probing runs the cached
       decision path for real (the AVC counters move exactly as a
       reference would move them); clearing every cache is the
       operator's revocation hammer — it can only make the next
       reference slower, never change a verdict. *)
    | Probe_access { segno; requested } ->
        on Op.probe_access
          (named (Printf.sprintf "%d?%s" segno (Mode.to_string requested)))
          (fun p subject ->
            let* uid = uid_of_segno p segno in
            match Hierarchy.check_access (System.hierarchy system) ~subject ~uid ~requested with
            | Some verdict -> Ok (Probed verdict)
            | None -> Error (Fs (Hierarchy.No_entry (string_of_int segno))))
    | Cache_status ->
        on Op.cache_status (named "caches") (fun p _subject ->
            Ok
              (Cache_report
                 {
                   policy = Hierarchy.cache_stats (System.hierarchy system);
                   assoc =
                     ("size", Hardware.Assoc.size p.System.assoc)
                     :: Hardware.Assoc.counters p.System.assoc;
                 }))
    | Cache_clear ->
        on Op.cache_clear (named "caches") (fun _p _subject ->
            System.invalidate_caches system;
            Ok Done)
    (* ----- Traffic controller -----

       Operator surface, like fault and cache control.  Tuning moves
       mechanism parameters (quantum, eligibility cap) and can only
       change WHEN work runs, never what it is allowed to touch —
       mediation stays schedule-invariant (experiment E17's oracle). *)
    | Sched_status ->
        on Op.sched_status (named "scheduler") (fun _p _subject ->
            match System.scheduler system with
            | None -> Error No_scheduler
            | Some sc ->
                Ok (Sched_report { policy = sc.System.sc_policy (); counters = sc.System.sc_counters () }))
    | Sched_tune { param; value } ->
        on Op.sched_tune (named (Printf.sprintf "%s=%d" param value)) (fun _p _subject ->
            match System.scheduler system with
            | None -> Error No_scheduler
            | Some sc -> (
                match sc.System.sc_tune ~param ~value with
                | Ok () -> Ok Done
                | Error detail -> Error (Bad_tune detail)))
    (* ----- Multiprocessor plant -----

       Operator surface: CPU count, connect/lock counters, per-CPU
       associative-memory populations.  Pure inspection — it can move
       no descriptor and flush no cache. *)
    | Smp_status ->
        on Op.smp_status (named "plant") (fun _p _subject ->
            match System.plant system with
            | None -> Error No_smp_plant
            | Some plant ->
                let readings, cpus = Multics_smp.Smp.status plant in
                Ok (Smp_report { ncpus = Multics_smp.Smp.ncpus plant; plant = readings; cpus }))

  let operation_name system request = (route system request).op.op_name

  (* The one mediation wrapper: find the caller, admit the operation,
     run the body, settle. *)
  let dispatch system ~handle request =
    let { op; at; by_path; body } = route system request in
    match System.proc system handle with
    | None -> settle system op at ~subject:anonymous (Error (No_such_process handle))
    | Some p ->
        let subject = System.subject_of p in
        settle system op at ~subject
          (match admit system p ~by_path op with Error e -> Error e | Ok () -> body p subject)
end
