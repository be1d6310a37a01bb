(* E21 — bounded exhaustive model checking of the reference monitor.

   The 100-seed oracles (E15/E18/E19/E20) sample the interleaving
   space; the paper's certification argument is exhaustive.  This
   experiment drives [lib/mc]: breadth-first enumeration of every
   interleaving (to a depth bound) of ACL edits, bracket changes,
   content references from two CPUs, torn gate calls, salvages and —
   in bug mode — connect deliveries, on a 2-CPU / 2-segment /
   2-principal plant, with four safety predicates checked at every
   reachable state.

   Three legs:

   - the EXHAUSTIVE leg explores the healthy plant depth by depth,
     reporting states / expansions / wall-clock, and must find zero
     violations of all four predicates;

   - the SEEDED-BUG leg re-enables the pre-PR 5 deferred-connect
     window ([Smp.set_deferred_connects]) and must find the minimal
     stale-Permit counterexample — the two-action trace (warm a remote
     CPU's CAM, then revoke) the seeded oracles only find
     probabilistically — printed as a replayable shell script;

   - the PARITY leg re-runs a bounded exploration at pool sizes 1 and
     4 and compares the outcomes byte for byte ([lib/par]'s
     determinism contract extended to the checker's frontier). *)

module Mc = Multics_mc.Mc

let id = "E21"

let title = "Model checking: exhaustive interleaving search over the reference monitor"

let paper_claim =
  "the certification argument is exhaustive, not statistical: on a bounded plant, every \
   interleaving of descriptor edits, cross-CPU references, torn gate calls and salvages \
   must preserve the reference monitor's invariants — no stale Permit, no fail-open, no \
   downward flow, no mediation-path divergence"

(* Depth 5 saturates most of the plant's state space in seconds;
   MULTICS_MC_DEPTH overrides (CI runs depth 6). *)
let default_depth = 5

let depth () =
  match Sys.getenv_opt "MULTICS_MC_DEPTH" with
  | None -> default_depth
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some d when d >= 1 && d <= 8 -> d
      | Some _ | None -> default_depth)

let bug_depth = 3
let parity_depth = 3

let exhaustive_verdict (o : Mc.outcome) =
  let n = List.length o.Mc.o_counterexamples in
  if n = 0 then
    ( true,
      Printf.sprintf
        "[mc] 0 violations: %s, %d replays — stale-Permit, fail-secure, lattice-flow and \
         AV-parity hold on every reachable state"
        (match Mc.fixpoint o with
        | Some k ->
            Printf.sprintf "complete: fixpoint at depth %d, %d reachable states" k o.Mc.o_states
        | None -> Printf.sprintf "exhaustive to depth %d, %d states" o.Mc.o_depth o.Mc.o_states)
        o.Mc.o_expansions )
  else
    ( false,
      Printf.sprintf "[mc] %d violation%s found exploring to depth %d — see counterexamples" n
        (if n = 1 then "" else "s")
        o.Mc.o_depth )

let bug_verdict (o : Mc.outcome) =
  match
    List.find_opt
      (fun (c : Mc.counterexample) -> c.Mc.violation.Mc.predicate = "P1-stale-permit")
      o.Mc.o_counterexamples
  with
  | Some c ->
      ( true,
        Printf.sprintf
          "[mc-bug] deferred-connect window found: stale Permit reached in %d actions [%s]"
          (List.length c.Mc.trace) (Mc.trace_to_string c.Mc.trace),
        Some c )
  | None ->
      ( false,
        Printf.sprintf
          "[mc-bug] FAILED: no stale-Permit counterexample to depth %d with the bug enabled"
          o.Mc.o_depth,
        None )

let parity_verdict () =
  let run jobs = Mc.summary (Mc.explore ~jobs ~depth:parity_depth ()) in
  let sequential = run 1 in
  let pooled = run 4 in
  if String.equal sequential pooled then
    ( true,
      Printf.sprintf "[mc-parity] frontier parallelism is pool-size-invariant: depth %d \
                      outcomes identical at jobs=1 and jobs=4"
        parity_depth )
  else (false, "[mc-parity] FAILED: jobs=1 and jobs=4 outcomes differ")

let render () =
  let b = Buffer.create 4096 in
  let bpf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  bpf "%s: %s\n\n" id title;
  bpf "Claim: %s.\n\n" paper_claim;
  let max_depth = depth () in
  bpf "--- exhaustive leg: the healthy plant, depth by depth ---\n\n";
  bpf "  %5s  %12s  %12s  %12s  %10s\n" "depth" "expansions" "new states" "states" "cpu-s";
  let deepest = ref None in
  for d = 1 to max_depth do
    let t0 = Sys.time () in
    let o = Mc.explore ~depth:d () in
    let dt = Sys.time () -. t0 in
    (match o.Mc.o_rows with
    | [] -> ()
    | rows ->
        let last = List.nth rows (List.length rows - 1) in
        bpf "  %5d  %12d  %12d  %12d  %10.2f\n" d last.Mc.row_expansions last.Mc.row_new_states
          o.Mc.o_states dt);
    deepest := Some o
  done;
  bpf "\n";
  let exhaustive_ok, exhaustive_line =
    match !deepest with
    | Some o -> exhaustive_verdict o
    | None -> (false, "[mc] FAILED: no exploration ran")
  in
  (match !deepest with
  | Some o when not exhaustive_ok ->
      List.iter
        (fun (c : Mc.counterexample) ->
          bpf "  counterexample: [%s]\n    %s\n" (Mc.trace_to_string c.Mc.trace)
            (Mc.violation_to_string c.Mc.violation))
        o.Mc.o_counterexamples
  | _ -> ());
  bpf "--- seeded-bug leg: the pre-PR 5 deferred-connect window, re-enabled ---\n\n";
  let bug_outcome = Mc.explore ~bug:true ~depth:bug_depth () in
  let _bug_ok, bug_line, counterexample = bug_verdict bug_outcome in
  (match counterexample with
  | Some c ->
      bpf "  minimal counterexample (%d actions): %s\n" (List.length c.Mc.trace)
        (Mc.violation_to_string c.Mc.violation);
      bpf "  replayable script:\n";
      String.split_on_char '\n' (Mc.counterexample_script c)
      |> List.iter (fun line -> if line <> "" then bpf "    %s\n" line)
  | None -> ());
  bpf "\n--- parity leg: the frontier pool must not change the outcome ---\n\n";
  let _parity_ok, parity_line = parity_verdict () in
  bpf "%s\n%s\n%s\n" exhaustive_line bug_line parity_line;
  Buffer.contents b
