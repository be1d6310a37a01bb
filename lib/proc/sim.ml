(* The two-layer process implementation, as a deterministic
   discrete-event simulator.

   Layer 1 multiplexes the hardware into a FIXED number of virtual
   processors; because the number is fixed, this layer is independent
   of the virtual-memory machinery — the property the paper's process
   redesign is after.  Several virtual processors are permanently
   assigned to kernel mechanisms ([spawn ~dedicated:true]); the rest
   are multiplexed by layer 2 among any number of full Multics
   processes.

   Process bodies are ordinary OCaml functions that suspend through
   effects: [compute n] consumes n simulated cycles, [block chan]
   waits for a wakeup.  Wakeups are counted (a wakeup with no waiter is
   remembered), matching the Multics base-level IPC whose "use can be
   controlled with the standard memory protection mechanisms".

   Determinism: a single event queue ordered by (time, insertion seq);
   no wall-clock anywhere. *)

open Multics_machine
module Obs = Multics_obs.Obs

(* Observability: the counted-wakeup IPC layer.  "Lost" wakeups cannot
   happen here (a wakeup with no waiter is remembered), so the lost
   counter stays zero unless a future channel variant drops them — its
   presence makes the invariant checkable from the outside. *)
let obs_wakeups_sent = Obs.Local.counter "ipc.wakeups.sent"
let obs_wakeups_delivered = Obs.Local.counter "ipc.wakeups.delivered"
let obs_wakeups_queued = Obs.Local.counter "ipc.wakeups.queued"
let obs_wakeups_consumed = Obs.Local.counter "ipc.wakeups.consumed"
let obs_wakeups_lost = Obs.Local.counter "ipc.wakeups.lost"
let obs_blocks = Obs.Local.counter "ipc.blocks"
let _ = (obs_wakeups_lost ())

type pid = int

type chan = {
  chan_id : int;
  chan_name : string;
  mutable waiters : pid Multics_util.Fqueue.t;
  mutable pending : int;  (** counted wakeups that found no waiter *)
}

type proc_state = Unborn | Ready | Running | Blocked of chan | Terminated

type process = {
  pid : pid;
  pname : string;
  mutable ring : Ring.t;
  body : pid -> unit;
  dedicated_vp : int option;
  exit_chan : chan;
  mutable state : proc_state;
  mutable cont : (unit, unit) Effect.Deep.continuation option;
  mutable cycles_used : int;
  mutable block_count : int;
  mutable extra_delay : int;  (** cycles stolen by inline interrupt handling *)
  mutable perturbation_count : int;
  mutable failure : string option;
  mutable compute_left : int;  (** cycles still owed on the current [compute] *)
  mutable slice : int;  (** length of the slice currently on the event queue *)
  mutable quantum_left : int;  (** remaining quantum this dispatch, or [unlimited_quantum] *)
}

(* The quantum of a process that runs until it blocks: never counted
   down, never expires.  An int, not an option, so granting and
   counting a quantum allocates nothing. *)
let unlimited_quantum = max_int

type vp = { vp_id : int; mutable current : pid option; mutable reserved : bool }

type event = Start of pid | Resume of pid | Slice of pid | Thunk of (unit -> unit)

(* The traffic controller lives ABOVE this library (lib/sched), so
   layer 2 consults it through a neutral record of closures.  With no
   scheduler installed, layer 2 falls back to the original FIFO ready
   queue with unlimited quanta — byte-for-byte the seed behaviour.
   Dedicated processes (reserved VPs) never pass through the scheduler:
   they are the kernel mechanisms the traffic controller itself relies
   on, and preempting them could deadlock page control. *)
type scheduler = {
  sched_name : string;
  sched_enqueue : pid -> unit;  (** a process became ready (spawn or counted wakeup) *)
  sched_select : vp:int -> pid option;
      (** pick the next process for the given free VP; under a
          multiprocessor plant the VP index identifies the simulated
          CPU doing the selecting, so lock contention can be charged
          to the right dispatcher *)
  sched_quantum : pid -> int;
      (** quantum for this dispatch; [unlimited_quantum] = run to block *)
  sched_quantum_expired : pid -> preempted:bool -> unit;
      (** the quantum ran out; [preempted] iff compute was still owed *)
  sched_blocked : pid -> unit;  (** the process surrendered its VP to wait *)
  sched_retired : pid -> unit;  (** the process terminated *)
  sched_backlog : unit -> int;  (** ready + admission-stalled processes it holds *)
}

(* The process table is indexed by pid: pids are minted 1, 2, ... and
   never reused, so a lookup is an array load and slot 0 stays [None].
   Event accounting lives in plain int fields bumped on the hot path;
   {!counters} renders them as a named counter bag only when asked. *)
type t = {
  clock : Clock.t;
  cost : Cost.t;
  events : event Event_queue.t;
  mutable procs : process option array;
  mutable ready : pid Multics_util.Fqueue.t;
  mutable ready_dedicated : pid Multics_util.Fqueue.t;
      (** dedicated processes awaiting their reserved VP; kept apart so
          finding one is O(1), not a scan of the whole process table *)
  vps : vp array;
  mutable free_vps : int list;  (** shared idle VPs, lowest id first *)
  mutable next_pid : int;
  mutable next_chan : int;
  mutable trace : (int * string) list;  (** reversed *)
  mutable trace_enabled : bool;
  mutable faults : Multics_fault.Fault.Injector.t option;
  mutable scheduler : scheduler option;
  mutable n_spawns : int;
  mutable n_dispatches : int;
  mutable n_wakeups_delivered : int;
  mutable n_wakeups_pending : int;
  mutable n_terminations : int;
  mutable n_process_faults : int;
  mutable n_preemptions : int;
  mutable n_quantum_expiries : int;
  mutable n_events : int;  (** events applied *)
}

exception Process_crashed
(* An injected crash: delivered at a compute point, caught by the
   process handler like any other body exception, so the victim is
   terminated and its failure recorded — never silently continued. *)

(* Effects understood by the scheduler.  The payload of [Block] also
   names the blocking process so the handler needn't look it up. *)
type _ Effect.t += Compute : int -> unit Effect.t | Block_on : chan -> unit Effect.t

let create ~cost ~virtual_processors =
  if virtual_processors <= 0 then invalid_arg "Sim.create: need at least one virtual processor";
  {
    clock = Clock.create ();
    cost;
    events = Event_queue.create ();
    procs = Array.make 64 None;
    ready = Multics_util.Fqueue.empty;
    ready_dedicated = Multics_util.Fqueue.empty;
    vps = Array.init virtual_processors (fun vp_id -> { vp_id; current = None; reserved = false });
    free_vps = List.init virtual_processors (fun i -> i);
    next_pid = 1;
    next_chan = 1;
    trace = [];
    trace_enabled = false;
    faults = None;
    scheduler = None;
    n_spawns = 0;
    n_dispatches = 0;
    n_wakeups_delivered = 0;
    n_wakeups_pending = 0;
    n_terminations = 0;
    n_process_faults = 0;
    n_preemptions = 0;
    n_quantum_expiries = 0;
    n_events = 0;
  }

let set_faults t injector = t.faults <- injector

let fault_injector t = t.faults

let set_scheduler t scheduler = t.scheduler <- scheduler

let now t = Clock.now t.clock

let cost_model t = t.cost

let counters t =
  Multics_util.Stats.Counters.of_tallies
    [
      ("dispatches", t.n_dispatches);
      ("preemptions", t.n_preemptions);
      ("process_faults", t.n_process_faults);
      ("quantum_expiries", t.n_quantum_expiries);
      ("spawns", t.n_spawns);
      ("terminations", t.n_terminations);
      ("wakeups_delivered", t.n_wakeups_delivered);
      ("wakeups_pending", t.n_wakeups_pending);
    ]

let set_trace t enabled = t.trace_enabled <- enabled

let trace t message =
  if t.trace_enabled then t.trace <- (now t, message) :: t.trace

(* Tracing off costs one branch: [ikfprintf] consumes the arguments
   without building the message or calling any [%a] printer. *)
let tracef t fmt =
  if t.trace_enabled then Format.kasprintf (trace t) fmt
  else Format.ikfprintf ignore Format.err_formatter fmt

let trace_lines t = List.rev t.trace

(* ----- Channels ----- *)

let new_channel t ~name =
  let chan_id = t.next_chan in
  t.next_chan <- chan_id + 1;
  { chan_id; chan_name = name; waiters = Multics_util.Fqueue.empty; pending = 0 }

let waiter_count c = Multics_util.Fqueue.length c.waiters

let pending_wakeups c = c.pending

(* ----- Process table ----- *)

let proc t pid =
  match if pid > 0 && pid < Array.length t.procs then t.procs.(pid) else None with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Sim: unknown pid %d" pid)

let name_of t pid = (proc t pid).pname
let state_of t pid = (proc t pid).state
let cycles_of t pid = (proc t pid).cycles_used
let perturbations_of t pid = (proc t pid).perturbation_count
let failure_of t pid = (proc t pid).failure
let exit_channel t pid = (proc t pid).exit_chan

(* The pids whose process satisfies [keep], ascending. *)
let pids_where t keep =
  let rec collect pid acc =
    if pid = 0 then acc
    else
      match t.procs.(pid) with
      | Some p when keep p -> collect (pid - 1) (pid :: acc)
      | Some _ | None -> collect (pid - 1) acc
  in
  collect (min (t.next_pid - 1) (Array.length t.procs - 1)) []

let processes t = pids_where t (fun _ -> true)

(* ----- Layer 2: binding processes to virtual processors ----- *)

let bind_to_vp t p vp =
  vp.current <- Some p.pid;
  p.state <- Running;
  t.n_dispatches <- t.n_dispatches + 1;
  (* A fresh quantum per dispatch; dedicated kernel processes run
     unclocked even under a traffic controller. *)
  (match t.scheduler with
  | Some s when Option.is_none p.dedicated_vp -> p.quantum_left <- s.sched_quantum p.pid
  | _ -> p.quantum_left <- unlimited_quantum);
  let start_time = now t + t.cost.Cost.process_switch in
  let event = match p.cont with None -> Start p.pid | Some _ -> Resume p.pid in
  Event_queue.push t.events ~time:start_time event

(* The next runnable process: the traffic controller's choice when one
   is installed, the plain FIFO ready queue otherwise.  Only called
   with a VP in hand — selection removes the pid from its queue. *)
let next_ready t ~vp =
  match t.scheduler with
  | Some s -> s.sched_select ~vp
  | None -> (
      match Multics_util.Fqueue.pop t.ready with
      | Some (pid, rest) ->
          t.ready <- rest;
          Some pid
      | None -> None)

(* State tests by pattern, not polymorphic equality: [Blocked] carries
   a channel, so [=] would call the generic structural compare. *)
let is_ready p = match p.state with Ready -> true | _ -> false

let rec dispatch t =
  match p_dedicated_waiting t with
  | Some (p, vp) ->
      bind_to_vp t p vp;
      dispatch t
  | None -> (
      match t.free_vps with
      | [] -> ()
      | vp_id :: vps -> (
          match next_ready t ~vp:vp_id with
          | None -> ()
          | Some pid ->
              let p = proc t pid in
              (* A woken process may have terminated meanwhile only via
                 simulator misuse; states here are Ready by construction. *)
              t.free_vps <- vps;
              bind_to_vp t p t.vps.(vp_id);
              dispatch t))

(* Dedicated processes bypass the shared ready queue: their VP is
   reserved for them alone, so a ready dedicated process binds
   immediately — its VP cannot be held by anyone else. *)
and p_dedicated_waiting t =
  match Multics_util.Fqueue.pop t.ready_dedicated with
  | None -> None
  | Some (pid, rest) -> (
      t.ready_dedicated <- rest;
      let p = proc t pid in
      match p.dedicated_vp with
      | Some vp_id when is_ready p && Option.is_none t.vps.(vp_id).current ->
          Some (p, t.vps.(vp_id))
      | _ -> p_dedicated_waiting t (* stale entry *))

let enqueue_ready t p =
  match t.scheduler with
  | Some s -> s.sched_enqueue p.pid
  | None -> t.ready <- Multics_util.Fqueue.push t.ready p.pid

let make_ready t p =
  p.state <- Ready;
  (match p.dedicated_vp with
  | Some _ -> t.ready_dedicated <- Multics_util.Fqueue.push t.ready_dedicated p.pid
  | None -> enqueue_ready t p);
  dispatch t

let rec insert_vp vp_id = function
  | id :: rest when id < vp_id -> id :: insert_vp vp_id rest
  | ids -> vp_id :: ids

let release_vp t p =
  Array.iter
    (fun vp ->
      match vp.current with
      | Some pid when pid = p.pid ->
          vp.current <- None;
          if not vp.reserved then t.free_vps <- insert_vp vp.vp_id t.free_vps
      | Some _ | None -> ())
    t.vps;
  dispatch t

(* ----- Spawning ----- *)

let spawn ?(ring = Ring.user) ?(dedicated = false) t ~name body =
  let pid = t.next_pid in
  t.next_pid <- pid + 1;
  let dedicated_vp =
    if not dedicated then None
    else begin
      match t.free_vps with
      | [] -> invalid_arg "Sim.spawn: no free virtual processor to dedicate"
      | vp_id :: rest ->
          t.free_vps <- rest;
          t.vps.(vp_id).reserved <- true;
          Some vp_id
    end
  in
  let p =
    {
      pid;
      pname = name;
      ring;
      body;
      dedicated_vp;
      exit_chan = new_channel t ~name:("exit." ^ name);
      state = Unborn;
      cont = None;
      cycles_used = 0;
      block_count = 0;
      extra_delay = 0;
      perturbation_count = 0;
      failure = None;
      compute_left = 0;
      slice = 0;
      quantum_left = unlimited_quantum;
    }
  in
  if pid >= Array.length t.procs then begin
    let grown = Array.make (max (pid + 1) (2 * Array.length t.procs)) None in
    Array.blit t.procs 0 grown 0 pid;
    t.procs <- grown
  end;
  t.procs.(pid) <- Some p;
  t.n_spawns <- t.n_spawns + 1;
  tracef t "spawn %s (pid %d)%s" name pid (if dedicated then " [dedicated vp]" else "");
  make_ready t p;
  pid

(* ----- Wakeups ----- *)

let rec wakeup t chan =
  Obs.Counter.incr (obs_wakeups_sent ());
  match Multics_util.Fqueue.pop chan.waiters with
  | Some (pid, rest) ->
      chan.waiters <- rest;
      t.n_wakeups_delivered <- t.n_wakeups_delivered + 1;
      Obs.Counter.incr (obs_wakeups_delivered ());
      tracef t "wakeup %s -> %s" chan.chan_name (name_of t pid);
      make_ready t (proc t pid)
  | None ->
      chan.pending <- chan.pending + 1;
      t.n_wakeups_pending <- t.n_wakeups_pending + 1;
      Obs.Counter.incr (obs_wakeups_queued ());
      tracef t "wakeup %s (pending)" chan.chan_name

and broadcast t chan =
  if waiter_count chan > 0 then begin
    wakeup t chan;
    broadcast t chan
  end

(* ----- Effects available inside process bodies ----- *)

let compute cycles =
  if cycles < 0 then invalid_arg "Sim.compute: negative cycles";
  if cycles > 0 then Effect.perform (Compute cycles)

let block chan = Effect.perform (Block_on chan)

(* ----- Execution engine ----- *)

(* Cut the owed compute into slices no longer than the remaining
   quantum.  The continuation stays parked in [cont] until the final
   slice lands with the quantum intact. *)
let schedule_slice t p =
  let chunk =
    (* An unlimited quantum is never below the compute owed. *)
    if p.quantum_left < p.compute_left then max 1 p.quantum_left else p.compute_left
  in
  p.slice <- chunk;
  Event_queue.push t.events ~time:(now t + chunk) (Slice p.pid)

let terminate t p =
  p.state <- Terminated;
  p.cont <- None;
  p.compute_left <- 0;
  t.n_terminations <- t.n_terminations + 1;
  tracef t "exit %s" p.pname;
  (match t.scheduler with
  | Some s when Option.is_none p.dedicated_vp -> s.sched_retired p.pid
  | _ -> ());
  broadcast t p.exit_chan;
  release_vp t p

let handler_for t p : (unit, unit) Effect.Deep.handler =
  {
    retc = (fun () -> terminate t p);
    exnc =
      (fun exn ->
        let why = Printexc.to_string exn in
        p.failure <- Some why;
        t.n_process_faults <- t.n_process_faults + 1;
        tracef t "fault in %s: %s" p.pname why;
        terminate t p);
    effc =
      (fun (type c) (eff : c Effect.t) ->
        match eff with
        | Compute cycles ->
            Some
              (fun (k : (c, unit) Effect.Deep.continuation) ->
                p.cycles_used <- p.cycles_used + cycles;
                match t.faults with
                | Some inj
                  when Multics_fault.Fault.Injector.fire inj Multics_fault.Fault.Proc_crash ->
                    (* The crash lands at the compute point: the body
                       sees Process_crashed, the handler records the
                       failure and terminates the process. *)
                    Effect.Deep.discontinue k Process_crashed
                | _ ->
                    p.cont <- Some k;
                    p.compute_left <- cycles;
                    schedule_slice t p)
        | Block_on chan ->
            Some
              (fun (k : (c, unit) Effect.Deep.continuation) ->
                p.block_count <- p.block_count + 1;
                Obs.Counter.incr (obs_blocks ());
                if chan.pending > 0 then begin
                  (* A counted wakeup already arrived: block returns at
                     once, exactly as in the Multics IPC. *)
                  chan.pending <- chan.pending - 1;
                  Obs.Counter.incr (obs_wakeups_consumed ());
                  Effect.Deep.continue k ()
                end
                else begin
                  p.state <- Blocked chan;
                  p.cont <- Some k;
                  chan.waiters <- Multics_util.Fqueue.push chan.waiters p.pid;
                  tracef t "%s blocks on %s" p.pname chan.chan_name;
                  (match t.scheduler with
                  | Some s when Option.is_none p.dedicated_vp -> s.sched_blocked p.pid
                  | _ -> ());
                  release_vp t p
                end)
        | _ -> None);
  }

let start_process t p = Effect.Deep.match_with (fun () -> p.body p.pid) () (handler_for t p)

let resume_process t p =
  match p.cont with
  | None -> ()
  | Some k ->
      (* Inline interrupt handling steals victim cycles: consume any
         accumulated perturbation before the process continues. *)
      if p.extra_delay > 0 then begin
        let delay = p.extra_delay in
        p.extra_delay <- 0;
        p.cycles_used <- p.cycles_used + delay;
        Event_queue.push t.events ~time:(now t + delay) (Resume p.pid)
      end
      else if p.compute_left > 0 then
        (* Rebound after a preemption: burn the owed cycles in fresh
           quantum slices before the body continues. *)
        schedule_slice t p
      else begin
        p.cont <- None;
        Effect.Deep.continue k ()
      end

(* The quantum ran out with compute still owed: unbind the processor
   and hand the process back to the traffic controller.  The
   continuation stays parked; only timing changes, never results. *)
let preempt t p =
  t.n_preemptions <- t.n_preemptions + 1;
  tracef t "preempt %s (%d cycles owed)" p.pname p.compute_left;
  p.state <- Ready;
  (match p.dedicated_vp with Some _ -> () | None -> enqueue_ready t p);
  release_vp t p

let slice_done t p =
  match p.state with
  | Running ->
      p.compute_left <- p.compute_left - p.slice;
      if p.quantum_left <> unlimited_quantum then p.quantum_left <- p.quantum_left - p.slice;
      let expired = p.quantum_left <= 0 in
      if expired then begin
        t.n_quantum_expiries <- t.n_quantum_expiries + 1;
        match t.scheduler with
        | Some s when Option.is_none p.dedicated_vp ->
            s.sched_quantum_expired p.pid ~preempted:(p.compute_left > 0)
        | _ -> ()
      end;
      if p.compute_left > 0 then preempt t p else resume_process t p
  | Unborn | Ready | Blocked _ | Terminated -> ()

(* Charge [cycles] to a process from outside (inline interrupt
   discipline).  Takes effect when the process next resumes. *)
let perturb t pid cycles =
  let p = proc t pid in
  match p.state with
  | Terminated -> ()
  | Unborn | Ready | Running | Blocked _ ->
      p.extra_delay <- p.extra_delay + cycles;
      p.perturbation_count <- p.perturbation_count + 1

let running_pids t =
  Array.to_list t.vps
  |> List.filter_map (fun vp -> vp.current)
  |> List.sort Int.compare

(* ----- External events ----- *)

let at t ~delay thunk =
  if delay < 0 then invalid_arg "Sim.at: negative delay";
  Event_queue.push t.events ~time:(now t + delay) (Thunk thunk)

(* ----- Main loop ----- *)

(* The pure transition function: one event applied against the
   simulator state at its firing time.  [step]/[run]/[run_until] are
   drivers — pop, apply, repeat — and stay the only places that touch
   the event queue, so an external driver (the model checker) can
   replay a recorded schedule through exactly the code the kernel
   runs, with no second interpretation of what an event means. *)
let apply t ~time event =
  Clock.advance_to t.clock time;
  t.n_events <- t.n_events + 1;
  match event with
  | Start pid -> start_process t (proc t pid)
  | Resume pid -> resume_process t (proc t pid)
  | Slice pid -> slice_done t (proc t pid)
  | Thunk thunk -> thunk ()

let step t =
  match Event_queue.pop t.events with
  | None -> false
  | Some (time, event) ->
      apply t ~time event;
      true

let run ?(max_events = 10_000_000) t =
  let rec loop remaining =
    if remaining = 0 then failwith "Sim.run: event budget exhausted (livelock?)"
    else if step t then loop (remaining - 1)
  in
  loop max_events

let run_until t ~time =
  let rec loop () =
    match Event_queue.peek_time t.events with
    | Some next when next <= time ->
        ignore (step t);
        loop ()
    | Some _ | None -> Clock.advance_to t.clock time
  in
  loop ()

let events_applied t = t.n_events

let blocked_pids t = pids_where t (fun p -> match p.state with Blocked _ -> true | _ -> false)

let reschedule t = dispatch t

let quiescent t =
  Event_queue.is_empty t.events
  && Multics_util.Fqueue.is_empty t.ready
  && match t.scheduler with None -> true | Some s -> s.sched_backlog () = 0
