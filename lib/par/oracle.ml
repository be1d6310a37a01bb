(* The differential oracle.  See oracle.mli for the witness contract.

   Each seed task keeps its own divergence count and its own
   lowest-step witness; the tasks come back from Par in seed order, so
   the first seed holding a witness is the lowest one whatever the
   schedule. *)

type witness = { seed : int; step : int; reference : string; variant : string }

type t = { seeds : int; divergences : int; witness : witness option }

let run ?jobs ~seeds ~equal ~render runner =
  let per_seed =
    Par.run_seeds ?jobs seeds (fun seed ->
        let divergences = ref 0 and first = ref None in
        let report step reference variant =
          if not (equal reference variant) then begin
            incr divergences;
            match !first with
            | Some w when w.step <= step -> ()
            | _ ->
                first :=
                  Some { seed; step; reference = render reference; variant = render variant }
          end
        in
        let result = runner ~seed ~report in
        (result, !divergences, !first))
  in
  let results = List.map (fun (r, _, _) -> r) per_seed in
  let divergences = List.fold_left (fun acc (_, n, _) -> acc + n) 0 per_seed in
  let witness = List.find_map (fun (_, _, w) -> w) per_seed in
  (results, { seeds; divergences; witness })

let witness_line t =
  Option.map
    (fun w ->
      Printf.sprintf "[witness] seed %d step %d: reference %s | variant %s" w.seed w.step
        w.reference w.variant)
    t.witness

let verdict t ~pass ~fail line =
  match witness_line t with
  | None -> pass ^ " " ^ line
  | Some w -> fail ^ " " ^ line ^ "\n" ^ w
