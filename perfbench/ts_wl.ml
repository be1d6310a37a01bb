(* The timesharing workload: [Workload.run] on an E17-shaped spec —
   MLF traffic controller, one CPU, no sites, audited gate calls on —
   at a user count that takes about a second on the seed kernel.  The
   simulator, scheduler, page control and memory do most of the work;
   gate dispatch is a minority share. *)

module Workload = Multics_sched.Workload

let users_full = 10_000

let spec ~seed ~users =
  {
    Workload.default with
    seed;
    users;
    interactions = 2;
    think = 30_000;
    service = 1_500;
    working_set = 3;
    passes = 2;
    batch = 2;
    daemons = 1;
    gate_calls = true;
    vps = 4;
    cap = 0;
    policy = Workload.Use_mlf;
    cpus = 1;
    sites = 0;
  }

(* The stack build the timed run also pays (simulator, memory, page
   control, traffic controller, booted kernel and its principal pool),
   priced as a run of the same spec with an empty population. *)
let empty spec = { spec with Workload.users = 0; batch = 0; daemons = 0 }

let setup_samples = 10

type round = {
  setup_ns : int list;
  wall_ns : int;
  result : Workload.result;
  counts : Counters.t;  (** obs counters the timed run moved *)
}

let run_round spec =
  (* Untimed warm-up: the round process's first touch of its heap. *)
  ignore (Workload.run (empty spec));
  let setup_ns =
    List.init setup_samples (fun _ ->
        let t0 = Clock.now_ns () in
        ignore (Trace.with_span ~name:"sched.setup" ~req:(-1) (fun () -> Workload.run (empty spec)));
        Clock.now_ns () - t0)
  in
  let t0 = Clock.now_ns () in
  let result, counts =
    Counters.moved (fun () ->
        Trace.with_span ~name:"sched.workload.run" ~req:(-1) (fun () -> Workload.run spec))
  in
  { setup_ns; wall_ns = Clock.now_ns () - t0; result; counts }

let expected_interactions spec = spec.Workload.users * spec.Workload.interactions

(* Interactions not completed; a round whose audit signature differs
   from the reference run's counts all its interactions as failed. *)
let failures spec ~signature r =
  let want = expected_interactions spec in
  if r.result.Workload.r_signature <> signature then want
  else want - min want r.result.Workload.r_completed
