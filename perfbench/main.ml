(* perfbench: the repository benchmark.

     bash perfbench/run.sh --workload gate_hot --seed 1 --seconds 10 --trace 0

   Prints every metric by name with its unit, then, as the last line,
   one JSON object: {"correct", "attempted", "failed", "metrics"}.
   [--workload all] runs the four workloads in one process. *)

open Perfbench

let usage = "main.exe --workload NAME|all --seed N --seconds S --trace 0|1"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " gate_hot | gate_churn | timesharing | mc_explore | all");
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--seconds", Arg.Set_int seconds, " measuring time per workload");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics; 1: per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let names = if !workload = "all" then Metrics.workloads else [ !workload ] in
  if not (List.for_all (fun w -> List.mem w Metrics.workloads) names) || !seconds < 1 || !trace < 0 || !trace > 1
  then begin
    prerr_endline usage;
    exit 2
  end;
  let reports =
    List.map
      (fun workload ->
        let r = Bench.run ~workload ~seed:!seed ~seconds:!seconds ~traced:(!trace = 1) () in
        Bench.print_human r;
        Bench.save r ~seconds:!seconds;
        r)
      names
  in
  match reports with
  | [ r ] -> print_endline (Bench.result_line r)
  | rs ->
      let prefixed =
        List.concat_map
          (fun (r : Bench.report) ->
            [ Printf.sprintf "\"%s\": %s" r.workload (Bench.result_line r) ])
          rs
      in
      Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"workloads\": {%s}}\n"
        (List.for_all Bench.correct rs)
        (List.fold_left (fun acc (r : Bench.report) -> acc + r.attempted) 0 rs)
        (List.fold_left (fun acc (r : Bench.report) -> acc + r.failed) 0 rs)
        (String.concat ", " prefixed)
