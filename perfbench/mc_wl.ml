(* The model-checking workload: [Mc.explore ~jobs:1] at a fixed depth
   (boot-per-replay, replay and canonicalisation dominate), and
   individually timed replays of seeded traces of the same depth — the
   unit of work an exploration repeats for every expansion. *)

module Mc = Multics_mc.Mc

let depth_full = 4

let alphabet = Array.of_list (Mc.alphabet ~bug:false)

(* [n] seeded traces of [depth] actions, stratified: at every position
   each action of the alphabet appears equally often (n is rounded up
   to a multiple of the alphabet size), and the seed decides how the
   positions pair up.  Every seed thus replays the same mix of actions,
   so the replay-latency quantiles do not move with the seed. *)
let traces ~seed ~n ~depth =
  let rng = Random.State.make [| seed; 0x6d63 |] in
  let k = Array.length alphabet in
  let n = (n + k - 1) / k * k in
  let column () =
    let c = Array.init n (fun i -> alphabet.(i mod k)) in
    Stats.shuffle rng c;
    c
  in
  let columns = Array.init depth (fun _ -> column ()) in
  Array.init n (fun i -> List.init depth (fun d -> columns.(d).(i)))

let replays_full = 196

(* Set-up of the checker's root state: a fresh plant booted and the
   empty trace canonicalised. *)
let setup_samples = 5

type round = {
  setup_ns : int list;
  wall_ns : int;  (** the exploration *)
  outcome : Mc.outcome;
  replay_ns : int array;
  replay_violations : int;  (** replays that reported any violation *)
}

(* The exploration and the replays run in separate round processes, so
   the replays are not timed on a heap holding the exploration's
   visited set. *)
let run_round ~depth traces =
  let setup_ns, replay_ns, replay_violations =
    Isolate.run (fun () ->
        (* Untimed warm-up: the round process's first touch of its heap,
           and one pass over the traces.  Without that pass the first
           replays of a fresh child ran about a third slower than its
           last ones. *)
        ignore (Mc.violations_of_trace ~bug:false []);
        Array.iter (fun trace -> ignore (Mc.violations_of_trace ~bug:false trace)) traces;
        let setup_ns =
          List.init setup_samples (fun _ ->
              let t0 = Clock.now_ns () in
              ignore
                (Trace.with_span ~name:"mc.setup" ~req:(-1) (fun () ->
                     Mc.violations_of_trace ~bug:false []));
              Clock.now_ns () - t0)
        in
        let violations = ref 0 in
        let replay_ns =
          Array.mapi
            (fun i trace ->
              Trace.with_span ~name:"mc.replay" ~req:i (fun () ->
                  let a = Clock.now_ns () in
                  let _, v = Mc.violations_of_trace ~bug:false trace in
                  let ns = Clock.now_ns () - a in
                  if v <> [] then incr violations;
                  ns))
            traces
        in
        (setup_ns, replay_ns, !violations))
  in
  let wall_ns, outcome =
    Isolate.run (fun () ->
        let t0 = Clock.now_ns () in
        let outcome =
          Trace.with_span ~name:"mc.explore" ~req:(-1) (fun () -> Mc.explore ~jobs:1 ~depth ())
        in
        (Clock.now_ns () - t0, outcome))
  in
  { setup_ns; wall_ns; outcome; replay_ns; replay_violations }
