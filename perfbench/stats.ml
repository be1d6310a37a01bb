(* Order statistics over samples.  Quantiles use the nearest-rank
   rule on a sorted copy, so a reported p99 is always an observed
   sample. *)

let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let quantile xs q =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  quantile_sorted a q

let median xs = quantile xs 0.5

(* Fisher-Yates, in place: the seeded order of a stratified sample. *)
let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* Integer samples (nanoseconds) held in a growable buffer, so a hot
   loop records without allocating a list cell per call. *)
module Samples = struct
  type t = { mutable data : int array; mutable len : int }

  let create () = { data = Array.make 1024 0; len = 0 }

  let add t v =
    if t.len = Array.length t.data then begin
      let bigger = Array.make (2 * t.len) 0 in
      Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end;
    t.data.(t.len) <- v;
    t.len <- t.len + 1

  let length t = t.len
  let is_empty t = t.len = 0

  let sorted t =
    let a = Array.sub t.data 0 t.len in
    Array.sort Int.compare a;
    a

  let quantile t q = quantile_sorted (Array.map float_of_int (sorted t)) q
  let median t = quantile t 0.5

  (* Median of the samples in [lo, hi) of insertion order. *)
  let median_range t ~lo ~hi =
    let lo = max 0 lo and hi = min t.len hi in
    let a = Array.sub t.data lo (max 0 (hi - lo)) in
    Array.sort Int.compare a;
    quantile_sorted (Array.map float_of_int a) 0.5

  (* Median of the last tenth of the samples over the first tenth:
     how much dearer the same operation got as the run went on. *)
  let ratio_of_tenths t =
    let tenth = max 1 (t.len / 10) in
    median_range t ~lo:(t.len - tenth) ~hi:t.len /. median_range t ~lo:0 ~hi:tenth

  let append ~into t =
    for i = 0 to t.len - 1 do
      add into t.data.(i)
    done
end
