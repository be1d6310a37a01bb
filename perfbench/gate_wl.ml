(* The gate-traffic workloads: a closed loop with one caller that
   issues each request through [Api.Call.dispatch] only after the
   previous reply, on [Config.kernel_6180] in the default configuration
   (audit trail and obs recording on).

   [gate_hot]: admitted Read_word/Write_word (4:1) from four
   unclassified principals over eight shared segments — every
   process's working set fits its 16-entry SDW associative memory.

   [gate_churn]: eight principals (two Secret-cleared) over 24
   unclassified and 4 Secret segments, so each process's working set
   overflows its associative memory; reads and writes interleave with
   ACL revocations and re-grants, scratch-segment create/delete, reads
   refused by ACL or label, and calls to gates stripped by an installed
   [Spec] specialisation, in the shares of E22's editor-compile gate
   profile (see [churn_mix]).

   The request stream is generated from the seed before timing starts,
   together with a shadow model that gives each request's expected
   reply: the verdict (from the ACL membership and the labels the
   model tracks) and, for a read, the last value written to that word.
   Offsets stay inside segment bounds. *)

open Multics_kernel
module Acl = Multics_access.Acl
module Label = Multics_access.Label
module Mode = Multics_machine.Mode
module Hardware = Multics_machine.Hardware
module Cost = Multics_machine.Cost
module Hierarchy = Multics_fs.Hierarchy
module Kst = Multics_fs.Kst
module Obs = Multics_obs.Obs
module Spec = Multics_spec.Spec

type kind = K_read | K_write | K_create | K_delete | K_set_acl | K_list | K_status

(* gate_hot's admitted reads and writes, 4:1. *)
let hot_mix = [ (K_read, 4); (K_write, 1) ]

(* The gate_churn mix is the gate profile of one interaction of E22's
   editor-compile workload ([lib/experiments/e22_specialisation.ml]:
   the interactive-development class of E17's users, scripted).  Its 20
   calls are read_word 5, write_word 5, create_segment 3, delete_entry
   1, set_acl 1, list_directory 1, status_entry 1, initiate 1,
   create_directory 1 and rename_entry 1.  The stream keeps the counts
   of the first seven and leaves out the last three: initiate happens
   at set-up here, and the stream models no directories or renames.
   The stream's own choices decide which requests are refused: a read
   of a Secret segment by an unclassified principal, or by a member
   revoked by an earlier [Set_acl]; and the specialisation strips
   list_directory and status_entry. *)
let churn_mix =
  [ (K_read, 5); (K_write, 5); (K_create, 3); (K_delete, 1); (K_set_acl, 1); (K_list, 1); (K_status, 1) ]

type shape = {
  name : string;
  principals : int;
  secret : int;  (** the last [secret] principals are Secret-cleared *)
  segments : int;  (** shared unclassified segments *)
  secret_segments : int;  (** shared Secret-labelled segments, after those *)
  words : int;  (** offsets are drawn from [0, words) *)
  calls : int;  (** requests per round: the run length is a call count *)
  mix : (kind * int) list;  (** request kinds and their weights *)
}

let hot =
  {
    name = "gate_hot";
    principals = 4;
    secret = 0;
    segments = 8;
    secret_segments = 0;
    words = 64;
    calls = 20_000;
    mix = hot_mix;
  }

let churn =
  {
    name = "gate_churn";
    principals = 8;
    secret = 2;
    segments = 24;
    secret_segments = 4;
    words = 64;
    calls = 20_000;
    mix = churn_mix;
  }

let nseg sh = sh.segments + sh.secret_segments
let secret_principal sh p = p >= sh.principals - sh.secret
let secret_segment sh s = s >= sh.segments

type op =
  | Read of { p : int; s : int; off : int }
  | Write of { p : int; s : int; off : int; value : int }
  | Set_acl of { s : int; members : int list }  (** issued by the owner, principal 0 *)
  | Create of { p : int; name : string }  (** a scratch segment in [p]'s home *)
  | Delete of { p : int; name : string }
  | Stripped of { p : int; status : bool }  (** status_entry or list_directory *)

type expect = Word of int | Done | Segno | Denied | Absent

let is_refusal = function Denied | Absent -> true | Word _ | Done | Segno -> false

type stream = { shape : shape; ops : op array; expect : expect array }

(* ----- The shadow model and the generator ----- *)

(* Simple security for reads, the *-property for writes, and the ACL
   membership the model tracks per segment. *)
let can_read sh acl p s = acl.(s).(p) && (secret_principal sh p || not (secret_segment sh s))
let can_write sh acl p s = acl.(s).(p) && (secret_segment sh s || not (secret_principal sh p))

let members row = List.filter (fun p -> row.(p)) (List.init (Array.length row) Fun.id)

(* A round's request kinds: each kind exactly its share of the calls
   (the rounding remainder goes to the first kind), in an order the
   seed shuffles.  Every seed thus issues the same number of each kind,
   so the latency quantiles do not move with a seed's draw of kinds. *)
let kinds rng shape =
  let total = List.fold_left (fun acc (_, w) -> acc + w) 0 shape.mix in
  let counts = List.map (fun (k, w) -> (k, shape.calls * w / total)) shape.mix in
  let rest = shape.calls - List.fold_left (fun acc (_, c) -> acc + c) 0 counts in
  let a =
    Array.of_list
      (List.concat_map (fun (k, c) -> List.init c (fun _ -> k)) counts
      @ List.init rest (fun _ -> fst (List.hd shape.mix)))
  in
  Stats.shuffle rng a;
  a

let generate shape ~seed =
  let rng = Random.State.make [| seed; Hashtbl.hash shape.name |] in
  let n = nseg shape in
  let acl = Array.init n (fun _ -> Array.make shape.principals true) in
  let mem = Hashtbl.create 4096 in
  let scratch = Array.make shape.principals [] in
  let next_name = ref 0 in
  let unclassified = shape.principals - shape.secret in
  let read p s off =
    ( Read { p; s; off },
      if can_read shape acl p s then Word (Option.value ~default:0 (Hashtbl.find_opt mem (s, off)))
      else Denied )
  in
  let write p s off =
    let value = Random.State.bits rng in
    ( Write { p; s; off; value },
      if can_write shape acl p s then begin
        Hashtbl.replace mem (s, off) value;
        Done
      end
      else Denied )
  in
  (* Scratch segments live in an unclassified principal's home; a
     delete removes that principal's newest one, and becomes a create
     when it has none. *)
  let scratch_op ~delete =
    let p = Random.State.int rng unclassified in
    match scratch.(p) with
    | name :: rest when delete ->
        scratch.(p) <- rest;
        (Delete { p; name }, Done)
    | _ ->
        let name = Printf.sprintf "t%d" !next_name in
        incr next_name;
        scratch.(p) <- name :: scratch.(p);
        (Create { p; name }, Segno)
  in
  let pairs =
    Array.map
      (fun kind ->
        let p = Random.State.int rng shape.principals in
        let s = Random.State.int rng n in
        let off = Random.State.int rng shape.words in
        match kind with
        | K_read -> read p s off
        | K_write -> write p s off
        | K_set_acl ->
            (* Revoke a member's access, or re-grant a revoked one;
               the owner (principal 0) always keeps its entry. *)
            let victim = 1 + Random.State.int rng (shape.principals - 1) in
            acl.(s).(victim) <- not acl.(s).(victim);
            (Set_acl { s; members = members acl.(s) }, Done)
        | K_create -> scratch_op ~delete:false
        | K_delete -> scratch_op ~delete:true
        | K_list -> (Stripped { p; status = false }, Absent)
        | K_status -> (Stripped { p; status = true }, Absent))
      (kinds rng shape)
  in
  { shape; ops = Array.map fst pairs; expect = Array.map snd pairs }

let expected_refusals stream =
  Array.fold_left (fun acc e -> if is_refusal e then acc + 1 else acc) 0 stream.expect

(* ----- The fixture: boot, accounts, logins, shared segments ----- *)

type fixture = {
  sys : System.t;
  handles : int array;
  segnos : int array array;  (** [segnos.(p).(s)] in principal [p]'s address space *)
  shared_dir : int array;
  homes : int array;
}

let person p = Printf.sprintf "U%d" p
let project = "Bench"
let secret_label = Label.make Label.Secret []
let shared_path = ">udd>Bench>U0>shared"

let member_acl ps = Acl.of_strings (List.map (fun p -> (person p ^ ".Bench.*", "rw")) ps)

let fail what = failwith ("perfbench setup: " ^ what)

let env what = function Ok v -> v | Error e -> fail (what ^ ": " ^ User_env.error_to_string e)

(* A specialisation compiled from an observed profile of the gates the
   churn stream admits; list_directory and status_entry are stripped.
   The observed calls leave the model's state as it was: word 0 of
   segment 0 is rewritten with 0, the ACL with its full membership. *)
let specialise fx shape =
  let owner = fx.handles.(0) in
  let call req = ignore (Api.Call.dispatch fx.sys ~handle:owner req) in
  let seg0 = fx.segnos.(0).(0) in
  let profile, () =
    Spec.Profile.observe ~name:shape.name (fun () ->
        call (Api.Call.Read_word { segno = seg0; offset = 0 });
        call (Api.Call.Write_word { segno = seg0; offset = 0; value = 0 });
        call
          (Api.Call.Set_acl { segno = seg0; acl = member_acl (List.init shape.principals Fun.id) });
        call
          (Api.Call.Create_segment
             {
               dir_segno = fx.homes.(0);
               name = "warm";
               acl = member_acl [ 0 ];
               label = Label.unclassified;
               brackets = None;
             });
        call (Api.Call.Delete_entry { dir_segno = fx.homes.(0); name = "warm" }))
  in
  Spec.Specialisation.apply fx.sys
    (Spec.Specialisation.compile ~keep:[ "enter_subsystem"; "logout" ] ~name:shape.name
       Config.kernel_6180 profile)

let setup shape =
  Obs.set_enabled true;
  let sys = System.create Config.kernel_6180 in
  for p = 0 to shape.principals - 1 do
    let clearance = if secret_principal shape p then secret_label else Label.unclassified in
    ignore (System.add_account sys ~person:(person p) ~project ~password:"pw" ~clearance)
  done;
  let handles =
    Array.init shape.principals (fun p ->
        match System.login sys ~person:(person p) ~project ~password:"pw" with
        | Ok h -> h
        | Error e -> fail (System.login_error_to_string e))
  in
  let owner = handles.(0) in
  ignore
    (env "shared directory"
       (User_env.create_directory_at sys ~handle:owner ~path:shared_path
          ~acl:(Acl.of_strings [ ("U0.Bench.*", "rew"); ("*.Bench.*", "r") ])
          ~label:Label.unclassified));
  let everyone = List.init shape.principals Fun.id in
  for s = 0 to nseg shape - 1 do
    let label = if secret_segment shape s then secret_label else Label.unclassified in
    ignore
      (env "shared segment"
         (User_env.create_segment_at sys ~handle:owner
            ~path:(Printf.sprintf "%s>seg%d" shared_path s)
            ~acl:(member_acl everyone) ~label))
  done;
  let shared_dir =
    Array.map (fun h -> env "resolve shared" (User_env.resolve_path sys ~handle:h ~path:shared_path)) handles
  in
  let homes =
    Array.mapi
      (fun p h -> env "resolve home" (User_env.resolve_path sys ~handle:h ~path:(">udd>Bench>" ^ person p)))
      handles
  in
  let segnos =
    Array.mapi
      (fun p h ->
        Array.init (nseg shape) (fun s ->
            match
              Api.Call.dispatch sys ~handle:h
                (Api.Call.Initiate { dir_segno = shared_dir.(p); name = Printf.sprintf "seg%d" s })
            with
            | Ok (Api.Call.Segno n) -> n
            | Ok _ -> fail "initiate: unexpected reply"
            | Error e -> fail ("initiate: " ^ Api.error_to_string e)))
      handles
  in
  let fx = { sys; handles; segnos; shared_dir; homes } in
  (* A mix that calls the stripped gates runs on the specialised kernel. *)
  if List.exists (fun (k, _) -> k = K_list || k = K_status) shape.mix then specialise fx shape;
  fx

let request fx = function
  | Read { p; s; off } -> (fx.handles.(p), Api.Call.Read_word { segno = fx.segnos.(p).(s); offset = off })
  | Write { p; s; off; value } ->
      (fx.handles.(p), Api.Call.Write_word { segno = fx.segnos.(p).(s); offset = off; value })
  | Set_acl { s; members } ->
      (fx.handles.(0), Api.Call.Set_acl { segno = fx.segnos.(0).(s); acl = member_acl members })
  | Create { p; name } ->
      ( fx.handles.(p),
        Api.Call.Create_segment
          {
            dir_segno = fx.homes.(p);
            name;
            acl = member_acl [ p ];
            label = Label.unclassified;
            brackets = None;
          } )
  | Delete { p; name } -> (fx.handles.(p), Api.Call.Delete_entry { dir_segno = fx.homes.(p); name })
  | Stripped { p; status } ->
      ( fx.handles.(p),
        if status then Api.Call.Status_entry { dir_segno = fx.shared_dir.(p); name = "seg0" }
        else Api.Call.List_directory { dir_segno = fx.shared_dir.(p) } )

(* The oracle: a reply matches when its shape and verdict class are the
   expected ones and a read returns the last value written. *)
let matches expect (reply : Api.Call.response) =
  match (expect, reply) with
  | Word v, Ok (Api.Call.Word w) -> v = w
  | Done, Ok Api.Call.Done -> true
  | Segno, Ok (Api.Call.Segno _) -> true
  | Denied, Error (Api.Hardware_denied _) -> true
  | Absent, Error (Api.Gate_absent _) -> true
  | _ -> false

(* ----- Stage probes (traced rounds only) -----

   Each public stage function of one admitted dispatch is priced on
   the live state after every [probe_every]-th call, [reps] times in a
   row.  [Audit_log.log] is priced on a side trail padded to the live
   trail's depth, and the obs metering on bench-named counters, so the
   kernel's own trail and tallies stay exact; whatever else a probe
   moves in the obs registry is subtracted from the round's counts. *)

let probe_every = 100
let reps = 8

(* The obs updates of [Api.meter], replayed on bench-named
   instruments: a copy of its body, to be re-synced whenever
   [Api.meter] changes.  The trail depth the gauge is set to is
   computed outside the timed call, because the [Audit_log.length]
   that [Api.meter] makes is priced on its own by [audit_log.length_ns];
   [obs.meter_ns] prices the counter updates only. *)
let bench_calls = Obs.Local.counter "bench.gate.calls"
let bench_refusals = Obs.Local.counter "bench.gate.refusals"
let bench_cycles = Obs.Local.counter "bench.gate.cycles"
let bench_depth = Obs.Local.counter "bench.audit.depth"
let bench_span = Obs.Local.span "bench.gate.dispatch"

let meter_replica sys ~operation ~refused ~depth =
  if Obs.enabled () then begin
    let cycles = Cost.round_trip_call_cost (System.cost sys) ~cross_ring:true in
    Obs.Counter.incr (bench_calls ());
    Obs.Counter.incr ~by:cycles (bench_cycles ());
    Obs.Span.record (bench_span ()) ~cycles;
    Obs.Counter.incr (Obs.Registry.counter (Obs.Registry.global ()) ("bench.gate." ^ operation ^ ".calls"));
    let config = (System.config sys).Config.name in
    Obs.Counter.incr
      (Obs.Registry.counter (Obs.Registry.global ()) ("bench.config." ^ config ^ ".gate.calls"));
    Obs.Counter.incr ~by:cycles
      (Obs.Registry.counter (Obs.Registry.global ()) ("bench.config." ^ config ^ ".gate.cycles"));
    if refused then begin
      Obs.Counter.incr (bench_refusals ());
      Obs.Counter.incr
        (Obs.Registry.counter (Obs.Registry.global ()) ("bench.gate." ^ operation ^ ".refusals"))
    end;
    Obs.Counter.set (bench_depth ()) depth
  end

(* Each stage's span name (["<layer>.<function>"]) and its metric. *)
let stages =
  [
    ("core.system.proc", "system.proc_ns");
    ("core.gate.find", "gate.find_ns");
    ("core.system.gate_admitted", "system.gate_admitted_ns");
    ("machine.hardware.check_via_assoc", "hardware.check_via_assoc_ns");
    ("fs.hierarchy.check_access", "hierarchy.check_access_ns");
    ("fs.hierarchy.raw_read_word", "hierarchy.raw_read_word_ns");
    ("fs.hierarchy.charge_growth", "hierarchy.charge_growth_ns");
    ("core.audit_log.length", "audit_log.length_ns");
    ("core.audit_log.log", "audit_log.log_ns");
    ("obs.meter", "obs.meter_ns");
    ("core.api.error_to_string", "api.error_to_string_ns");
  ]

type probes = {
  samples : (string, Stats.Samples.t) Hashtbl.t;  (** ns per [reps] calls, in probe order *)
  side : Audit_log.t;
  mutable side_depth : int;
}

let new_probes () =
  let samples = Hashtbl.create 16 in
  List.iter (fun (s, _) -> Hashtbl.replace samples s (Stats.Samples.create ())) stages;
  { samples; side = Audit_log.create (); side_depth = 0 }

let time probes ~req name f =
  Trace.with_span ~name ~req (fun () ->
      let t0 = Clock.now_ns () in
      for _ = 1 to reps do
        ignore (Sys.opaque_identity (f ()))
      done;
      Stats.Samples.add (Hashtbl.find probes.samples name) (Clock.now_ns () - t0))

let probe probes fx op (handle, req) reply ~i =
  Trace.with_span ~name:"bench.probe" ~req:i (fun () ->
      let sys = fx.sys in
      let config = System.config sys in
      let gate = Api.Call.operation_name sys req in
      let proc = System.proc sys handle in
      time probes ~req:i "core.system.proc" (fun () -> System.proc sys handle);
      time probes ~req:i "core.gate.find" (fun () -> Gate.find config ~gate_name:gate);
      time probes ~req:i "core.system.gate_admitted" (fun () -> System.gate_admitted sys ~gate);
      (match (op, proc) with
      | (Read { p; s; off } | Write { p; s; off; _ }), Some proc -> (
          let segno = fx.segnos.(p).(s) in
          let write = match op with Write _ -> true | _ -> false in
          let operation = if write then Hardware.Write else Hardware.Read in
          time probes ~req:i "machine.hardware.check_via_assoc" (fun () ->
              Hardware.check_via_assoc proc.System.assoc ~segno
                ~fetch:(fun () -> Kst.sdw_of proc.System.kst segno)
                ~ring:proc.System.ring ~operation);
          match Kst.uid_of_segno proc.System.kst segno with
          | Error _ -> ()
          | Ok uid ->
              let h = System.hierarchy sys in
              let subject = System.subject_of proc in
              let requested = if write then Mode.w else Mode.r in
              time probes ~req:i "fs.hierarchy.check_access" (fun () ->
                  Hierarchy.check_access h ~subject ~uid ~requested);
              time probes ~req:i "fs.hierarchy.raw_read_word" (fun () ->
                  Hierarchy.raw_read_word h ~uid ~offset:off);
              (* Only after an admitted write: the growth is already
                 charged, so the probe prices the check and moves no
                 quota. *)
              if write && Result.is_ok reply then
                time probes ~req:i "fs.hierarchy.charge_growth" (fun () ->
                    Hierarchy.charge_growth h ~uid ~offset:off))
      | _ -> ());
      let audit = System.audit sys in
      time probes ~req:i "core.audit_log.length" (fun () -> Audit_log.length audit);
      let depth = Audit_log.length audit in
      (match proc with
      | None -> ()
      | Some proc ->
          let subject = System.subject_of proc in
          while probes.side_depth < depth do
            Audit_log.log probes.side ~subject ~operation:gate ~target:"pad" ~verdict:Audit_log.Granted;
            probes.side_depth <- probes.side_depth + 1
          done;
          time probes ~req:i "core.audit_log.log" (fun () ->
              Audit_log.log probes.side ~subject ~operation:gate ~target:"probe"
                ~verdict:Audit_log.Granted);
          probes.side_depth <- probes.side_depth + reps);
      time probes ~req:i "obs.meter" (fun () ->
          meter_replica sys ~operation:gate ~refused:(Result.is_error reply) ~depth);
      match reply with
      | Error e -> time probes ~req:i "core.api.error_to_string" (fun () -> Api.error_to_string e)
      | Ok _ -> ())

(* ----- One round: set-up, then the timed closed loop ----- *)

type round = {
  setup_ns : int;
  wall_ns : int;  (** the timed loop *)
  lat_p50_ns : float;  (** dispatch latency quantiles over the round *)
  lat_p99_ns : float;
  granted_p50_ns : float;  (** median dispatch latency by verdict; nan when none *)
  refused_p50_ns : float;
  depth_ratio : float;  (** median latency, last tenth of the loop / first tenth *)
  verdicts : int;  (** digest of the reply verdicts, in request order *)
  failed : int;  (** replies that disagreed with the expectation *)
  counts : Counters.t;  (** obs counters the loop moved, probe activity excluded *)
  audit_grew : int;
  audit_depth : int;  (** trail length at the end of the round *)
  probe_ns : int;  (** time spent in stage probes, inside [wall_ns] *)
}

let run_round ?probes stream =
  (* One untimed set-up first: a fresh round process touches its heap
     and code for the first time here, and that cost is not the
     kernel's. *)
  ignore (setup stream.shape);
  let t0 = Clock.now_ns () in
  let fx = Trace.with_span ~name:"core.setup" ~req:(-1) (fun () -> setup stream.shape) in
  let setup_ns = Clock.now_ns () - t0 in
  let reqs = Array.map (request fx) stream.ops in
  let n = Array.length reqs in
  let lat = Array.make n 0 and granted = Array.make n false in
  let failed = ref 0 and probe_ns = ref 0 and probe_moved = ref [] in
  let pending_write = ref false and pending_refusal = ref false in
  let audit = System.audit fx.sys in
  let depth0 = Audit_log.length audit in
  let before = Obs.Snapshot.capture () in
  let loop_t0 = Clock.now_ns () in
  (match probes with
  | None ->
      for i = 0 to n - 1 do
        let handle, req = reqs.(i) in
        let a = Clock.now_ns () in
        let reply = Api.Call.dispatch fx.sys ~handle req in
        lat.(i) <- Clock.now_ns () - a;
        granted.(i) <- Result.is_ok reply;
        if not (matches stream.expect.(i) reply) then incr failed
      done
  | Some probes ->
      for i = 0 to n - 1 do
        let handle, req = reqs.(i) in
        let reply =
          Trace.with_span ~name:"core.api.dispatch" ~req:i (fun () ->
              let a = Clock.now_ns () in
              let reply = Api.Call.dispatch fx.sys ~handle req in
              lat.(i) <- Clock.now_ns () - a;
              reply)
        in
        granted.(i) <- Result.is_ok reply;
        if not (matches stream.expect.(i) reply) then incr failed;
        (* Every [probe_every]-th call is probed, and after each such
           point the next admitted write and the next refusal too, so
           the write-only and refusal-only stages get samples. *)
        let due = i mod probe_every = probe_every - 1 in
        let write = (match stream.ops.(i) with Write _ -> true | _ -> false) && Result.is_ok reply in
        let refusal = Result.is_error reply in
        if due || (write && !pending_write) || (refusal && !pending_refusal) then begin
          let p0 = Clock.now_ns () in
          let (), moved = Counters.moved (fun () -> probe probes fx stream.ops.(i) reqs.(i) reply ~i) in
          probe_moved := Counters.add !probe_moved moved;
          probe_ns := !probe_ns + (Clock.now_ns () - p0);
          if write then pending_write := false;
          if refusal then pending_refusal := false;
          if due then begin
            pending_write := true;
            pending_refusal := true
          end
        end
      done);
  let wall_ns = Clock.now_ns () - loop_t0 in
  let moved = (Obs.Snapshot.diff ~before ~after:(Obs.Snapshot.capture ())).Obs.Snapshot.counters in
  let counts = Counters.sub moved !probe_moved in
  let depth = Audit_log.length audit in
  (* Summaries only: the parent process keeps every round's record. *)
  let all = Stats.Samples.create () and ok = Stats.Samples.create () and no = Stats.Samples.create () in
  Array.iteri
    (fun i ns ->
      Stats.Samples.add all ns;
      Stats.Samples.add (if granted.(i) then ok else no) ns)
    lat;
  {
    setup_ns;
    wall_ns;
    lat_p50_ns = Stats.Samples.quantile all 0.5;
    lat_p99_ns = Stats.Samples.quantile all 0.99;
    granted_p50_ns = Stats.Samples.median ok;
    refused_p50_ns = Stats.Samples.median no;
    depth_ratio = Stats.Samples.ratio_of_tenths all;
    verdicts = Array.fold_left (fun h ok -> ((h * 31) + Bool.to_int ok) land max_int) 17 granted;
    failed = !failed;
    counts;
    audit_grew = depth - depth0;
    audit_depth = depth;
    probe_ns = !probe_ns;
  }

(* The tally checks: one audit record and one [gate.calls] per request,
   one [gate.refusals] per expected refusal. *)
let consistency stream r =
  let n = Array.length stream.ops in
  let check what got want =
    if got = want then [] else [ Printf.sprintf "%s: %d, expected %d" what got want ]
  in
  check "obs gate.calls" (Counters.get r.counts "gate.calls") n
  @ check "obs gate.refusals" (Counters.get r.counts "gate.refusals") (expected_refusals stream)
  @ check "audit records" r.audit_grew n
