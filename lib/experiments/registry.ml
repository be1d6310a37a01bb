(* The experiment registry: every table the reproduction regenerates,
   addressable by id.  [bin/experiments.exe] prints these; EXPERIMENTS.md
   records the paper-vs-measured comparison for each. *)

type experiment = {
  id : string;
  title : string;
  paper_claim : string;
  render : unit -> string;
}

module type EXPERIMENT = sig
  val id : string
  val title : string
  val paper_claim : string
  val render : unit -> string
end

let of_module (module E : EXPERIMENT) =
  { id = E.id; title = E.title; paper_claim = E.paper_claim; render = E.render }

let all =
  List.map of_module
    ([
       (module E1_linker_gates);
       (module E2_naming_removal);
       (module E3_combined_removal);
       (module E4_ring_crossing);
       (module E5_boundary_sweep);
       (module E6_page_control);
       (module E7_buffers);
       (module E8_interrupts);
       (module E9_policy_partition);
       (module E10_lattice_flow);
       (module E11_penetration);
       (module E12_kernel_inventory);
       (module E13_cost_of_security);
       (module E14_certification);
       (module E15_fail_secure);
       (module E16_avc);
       (module E17_timesharing);
       (module E18_smp);
       (module E19_sid);
       (module E20_site);
       (module E21_mc);
       (module E22_specialisation);
       (module Ablations.A1);
       (module Ablations.A2);
       (module Ablations.A3);
     ]
      : (module EXPERIMENT) list)

let find id =
  List.find_opt (fun e -> String.lowercase_ascii e.id = String.lowercase_ascii id) all

let ids = List.map (fun e -> e.id) all

let render_one e =
  Printf.sprintf "%s — %s\npaper: %s\n\n%s" e.id e.title e.paper_claim (e.render ())

let render_all () = String.concat "\n\n" (List.map render_one all)

(* The harness's command line, as data: bin/experiments.exe evaluates
   this term, and the test suite drives [parse] over every registered
   id to prove each runner accepts its flags without rendering
   anything. *)
module Cli = struct
  open Cmdliner

  type selection = { list_only : bool; stats : bool; sel_ids : string list }

  let list_flag =
    Arg.(value & flag & info [ "list"; "l" ] ~doc:"List experiment ids and titles.")

  let stats_flag =
    Arg.(
      value & flag
      & info [ "stats" ] ~doc:"Print the kernel observability snapshot after each experiment.")

  let ids_arg =
    Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc:"Experiment ids (e.g. e1 e7).")

  let term =
    Term.(
      const (fun list_only stats sel_ids -> { list_only; stats; sel_ids })
      $ list_flag $ stats_flag $ ids_arg)

  let info = Cmd.info "experiments" ~doc:"Regenerate the tables of the reproduction"

  let parse argv =
    match Cmd.eval_value ~argv (Cmd.v info term) with
    | Ok (`Ok sel) -> Ok sel
    | Ok `Version | Ok `Help -> Error "not a selection (help/version)"
    | Error _ -> Error "malformed command line"
end
