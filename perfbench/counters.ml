(* Obs counter readings over a bounded phase, with the benchmark's own
   probe activity taken back out, so the reported tallies are exactly
   what the workload's calls moved.  The phase difference itself is
   [Obs.Snapshot.diff]. *)

module Obs = Multics_obs.Obs

type t = (string * int) list

let get (c : t) name = Option.value ~default:0 (List.assoc_opt name c)

let combine op (a : t) (b : t) : t =
  let names = List.sort_uniq String.compare (List.map fst a @ List.map fst b) in
  List.map (fun n -> (n, op (get a n) (get b n))) names

let add = combine ( + )
let sub = combine ( - )

(* Run [f] and return the counters it moved. *)
let moved f =
  let before = Obs.Snapshot.capture () in
  let r = f () in
  (r, (Obs.Snapshot.diff ~before ~after:(Obs.Snapshot.capture ())).Obs.Snapshot.counters)

let ratio c ~hits ~misses =
  let h = get c hits and m = get c misses in
  if h + m = 0 then 0.0 else float_of_int h /. float_of_int (h + m)
