(* The gate table: every user-available supervisor entry point, per
   configuration.

   The paper's removal metrics are about exactly this table: "the
   linker's removal eliminated 10% of the gate entry points into the
   supervisor", and "the linker and reference name removal projects
   together reduce the number of user-available supervisor entries by
   approximately one third".  The catalog below is sized so those
   proportions hold of the functional surface itself: the baseline
   supervisor exposes 60 gates, of which the linker accounts for 6
   (10%) and naming for a further 14 (together 20/60, one third). *)

open Multics_machine

type entry = {
  gate_name : string;
  subsystem : string;
  call_top : Ring.t;  (** outermost ring that may call this gate *)
}

let user_gate subsystem gate_name = { gate_name; subsystem; call_top = Ring.outermost }

let ring1_gate subsystem gate_name = { gate_name; subsystem; call_top = Ring.r1 }

(* --- Subsystem gate groups --- *)

let directory_control =
  List.map (user_gate "fs-directory")
    [
      "initiate";
      "terminate";
      "create_segment";
      "create_directory";
      "delete_entry";
      "rename_entry";
      "list_directory";
      "status_entry";
      "set_acl";
      "set_brackets";
      "set_gate_bound";
      "set_quota";
    ]

let segment_content = List.map (user_gate "fs-content") [ "read_word"; "write_word" ]

let ipc = List.map (user_gate "ipc") [ "create_channel"; "send_wakeup"; "block" ]

(* The dynamic linker's supervisor entries (present only while the
   linker lives in the kernel). *)
let linker_gates =
  List.map (user_gate "linker")
    [
      "snap_link";
      "force_link";
      "unsnap_linkage";
      "list_links";
      "get_search_rules";
      "set_search_rules";
    ]

(* Reference-name and tree-name entries (present only while naming
   lives in the kernel). *)
let naming_gates =
  List.map (user_gate "naming")
    [
      "initiate_by_path";
      "create_segment_by_path";
      "create_directory_by_path";
      "delete_by_path";
      "terminate_by_path";
      "status_by_path";
      "resolve_path";
      "get_working_dir";
      "set_working_dir";
      "initiate_count";
      "rnt_bind";
      "rnt_unbind";
      "rnt_lookup";
      "list_reference_names";
    ]

let device_gates =
  List.concat_map
    (fun device ->
      let dev = Multics_io.Device.name device in
      List.map
        (fun op -> user_gate (Printf.sprintf "io-%s" dev) (Printf.sprintf "%s_%s" dev op))
        [ "attach"; "io"; "detach" ])
    Multics_io.Device.all_legacy

let network_gates = List.map (user_gate "io-network") [ "net_attach"; "net_io"; "net_detach" ]

let privileged_login_gates =
  List.map (user_gate "login")
    [
      "login";
      "logout";
      "create_process";
      "destroy_process";
      "new_proc";
      "proc_info";
      "list_processes";
      "operator_message";
    ]

let unified_login_gates = List.map (user_gate "login") [ "enter_subsystem"; "logout" ]

(* The page-removal mechanism interface exposed to the ring-1 policy
   partition: usage statistics and constrained movement only — no
   entry reads page contents or moves one page onto another. *)
let page_mechanism_gates =
  List.map (ring1_gate "page-mechanism") [ "pm_get_usage"; "pm_move_to_bulk"; "pm_free_counts" ]

(* ----- The compiled table -----

   The universe of gate names is static: every group above is a literal
   list.  Each distinct name gets a dense id once, at module
   initialisation (the interning move [Sid] makes for subjects), and
   each of the 32 catalogs the five surface-shaping configuration
   choices can select is compiled into an id-indexed table.  [find] is
   then one hash of the name and one array load, and a specialisation
   mask is a bitset over the same ids. *)

type id = int

module Names = Hashtbl.Make (String)

let universe =
  let seen = Names.create 128 in
  List.concat
    [
      directory_control;
      segment_content;
      ipc;
      linker_gates;
      naming_gates;
      device_gates;
      network_gates;
      privileged_login_gates;
      unified_login_gates;
      page_mechanism_gates;
    ]
  |> List.filter (fun e ->
         let fresh = not (Names.mem seen e.gate_name) in
         Names.replace seen e.gate_name ();
         fresh)
  |> Array.of_list

let ids =
  let ids = Names.create 128 in
  Array.iteri (fun id e -> Names.replace ids e.gate_name id) universe;
  ids

let id_count = Array.length universe

let all = List.init id_count Fun.id

let id gate_name = Names.find_opt ids gate_name

let name id = universe.(id).gate_name

type table = { entries : entry list; by_id : entry option array; size : int }

(* The catalog shape: one bit per surface-shaping choice. *)
let shape (config : Config.t) =
  let bit b on = if on then b else 0 in
  bit 1 (config.Config.linker = Multics_link.Linker.In_kernel)
  lor bit 2 (config.Config.naming = Multics_link.Rnt.In_kernel)
  lor bit 4 (config.Config.io = Config.Device_drivers)
  lor bit 8 (config.Config.login = Config.Privileged_login)
  lor bit 16 (config.Config.page_policy = Config.Policy_in_ring1)

let compile shape =
  let has bit = shape land bit <> 0 in
  let entries =
    directory_control @ segment_content @ ipc
    @ (if has 1 then linker_gates else [])
    @ (if has 2 then naming_gates else [])
    @ (if has 4 then device_gates else network_gates)
    @ (if has 8 then privileged_login_gates else unified_login_gates)
    @ if has 16 then page_mechanism_gates else []
  in
  let by_id = Array.make id_count None in
  List.iter (fun e -> by_id.(Names.find ids e.gate_name) <- Some e) entries;
  { entries; by_id; size = List.length entries }

let tables = Array.init 32 compile

let table config = tables.(shape config)

let lookup table id = table.by_id.(id)

let catalog config = (table config).entries

let count config = (table config).size

let find config ~gate_name =
  match Names.find ids gate_name with
  | id -> lookup (table config) id
  | exception Not_found -> None

let user_callable_count config =
  List.length (List.filter (fun e -> Ring.equal e.call_top Ring.outermost) (catalog config))

let subsystems config =
  catalog config
  |> List.map (fun e -> e.subsystem)
  |> List.sort_uniq String.compare

let count_by_subsystem config =
  List.map
    (fun subsystem ->
      ( subsystem,
        List.length (List.filter (fun e -> e.subsystem = subsystem) (catalog config)) ))
    (subsystems config)

(* ----- Metered configurations -----

   A dense id per configuration name and gate-call price, interned at
   boot, so the gate-call tally counts calls per configuration in an
   int array and prices them when read. *)

type config_id = int

let config_ids : (string * int, config_id) Hashtbl.t = Hashtbl.create 16
let config_lock = Mutex.create ()

let config_id (config : Config.t) =
  let key =
    (config.Config.name, Cost.round_trip_call_cost (Config.cost config) ~cross_ring:true)
  in
  Mutex.protect config_lock (fun () ->
      match Hashtbl.find_opt config_ids key with
      | Some id -> id
      | None ->
          let id = Hashtbl.length config_ids in
          Hashtbl.add config_ids key id;
          id)

let priced_configs () =
  Mutex.protect config_lock (fun () ->
      Hashtbl.fold (fun (name, cycles) id acc -> (id, name, cycles) :: acc) config_ids [])
