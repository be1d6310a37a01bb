(* Kernel observability: counters, log-bucketed histograms and spans,
   in named registries, with text-table and JSON renderers.

   Design constraints, in order:

   1. the disabled path must stay branch-cheap — every recording
      primitive starts with [if enabled ()], one domain-local load
      plus a branch;
   2. zero dependencies — the kernel's innermost layers (the hardware
      check, the simulator) record here, so this library must sit
      below everything;
   3. recording must never allocate on the hot path — counters mutate
      an int field, histograms mutate a preallocated array.

   Domain-safety: every piece of mutable state here — the enable flag,
   the default registry, the instruments themselves — is domain-local.
   A worker domain running a per-seed experiment task (lib/par) records
   into its own registry, never contending with (or corrupting) another
   domain's instruments; after the join the caller absorbs each task's
   snapshot in task order ({!Snapshot.absorb}), so the merged totals
   match a sequential run exactly. *)

let enabled_key = Domain.DLS.new_key (fun () -> true)

let enabled () = Domain.DLS.get enabled_key
let set_enabled flag = Domain.DLS.set enabled_key flag

let with_disabled f =
  let saved = enabled () in
  set_enabled false;
  Fun.protect ~finally:(fun () -> set_enabled saved) f

(* ----- Counters ----- *)

module Counter = struct
  type t = { name : string; mutable value : int }

  let make name = { name; value = 0 }
  let name c = c.name
  let incr ?(by = 1) c = if enabled () then c.value <- c.value + by
  let set c v = if enabled () then c.value <- v
  let get c = c.value
  let reset c = c.value <- 0
end

(* ----- Histograms ----- *)

module Histogram = struct
  (* Bucket i holds samples whose highest set bit is i: the range
     [2^i, 2^(i+1) - 1].  Bucket 0 also absorbs 0 (and, defensively,
     negative samples).  62 buckets cover every OCaml int. *)
  let bucket_count = 62

  type t = {
    buckets : int array;
    mutable count : int;
    mutable sum : int;
    mutable min_value : int;
    mutable max_value : int;
    mutable saturated : bool;
  }

  let make () =
    {
      buckets = Array.make bucket_count 0;
      count = 0;
      sum = 0;
      min_value = max_int;
      max_value = 0;
      saturated = false;
    }

  let bucket_index v =
    if v <= 1 then 0
    else begin
      let rec highest_bit acc v = if v <= 1 then acc else highest_bit (acc + 1) (v lsr 1) in
      min (bucket_count - 1) (highest_bit 0 v)
    end

  let bucket_lower_bound i = if i = 0 then 0 else 1 lsl i

  let observe h v =
    if enabled () then begin
      let v = if v < 0 then 0 else v in
      let i = bucket_index v in
      h.buckets.(i) <- h.buckets.(i) + 1;
      h.count <- h.count + 1;
      (* The running sum saturates at [max_int] instead of wrapping: a
         multi-billion-cycle run (an SMP sweep observing per-connect
         costs forever) must degrade to a pinned ceiling, never to a
         silently negative total.  [saturated] records that the ceiling
         was hit so snapshots can flag the sum as a lower bound. *)
      if v > max_int - h.sum then begin
        h.sum <- max_int;
        h.saturated <- true
      end
      else h.sum <- h.sum + v;
      if v < h.min_value then h.min_value <- v;
      if v > h.max_value then h.max_value <- v
    end

  let count h = h.count
  let sum h = h.sum
  let saturated h = h.saturated
  let mean h = if h.count = 0 then 0.0 else float_of_int h.sum /. float_of_int h.count
  let min_value h = if h.count = 0 then 0 else h.min_value
  let max_value h = h.max_value

  let buckets h =
    let acc = ref [] in
    for i = bucket_count - 1 downto 0 do
      if h.buckets.(i) > 0 then acc := (bucket_lower_bound i, h.buckets.(i)) :: !acc
    done;
    !acc

  (* The quantile estimate reports the upper bound of the bucket the
     rank falls in — pessimistic by at most the bucket's factor of 2. *)
  let quantile h q =
    if h.count = 0 then 0
    else begin
      let q = if q < 0.0 then 0.0 else if q > 1.0 then 1.0 else q in
      let rank = int_of_float (ceil (q *. float_of_int h.count)) in
      let rank = if rank < 1 then 1 else rank in
      let rec walk i seen =
        if i >= bucket_count then h.max_value
        else begin
          let seen = seen + h.buckets.(i) in
          if seen >= rank then begin
            let lo = bucket_lower_bound i in
            let hi = if lo = 0 then 1 else (2 * lo) - 1 in
            min h.max_value hi
          end
          else walk (i + 1) seen
        end
      in
      walk 0 0
    end

  let reset h =
    Array.fill h.buckets 0 bucket_count 0;
    h.count <- 0;
    h.sum <- 0;
    h.min_value <- max_int;
    h.max_value <- 0;
    h.saturated <- false
end

(* ----- Spans ----- *)

module Span = struct
  type t = {
    cycles : Histogram.t;
    mutable entries : int;
    mutable live : int;
    mutable max_depth : int;
  }

  let make () = { cycles = Histogram.make (); entries = 0; live = 0; max_depth = 0 }

  let enter s =
    if enabled () then begin
      s.entries <- s.entries + 1;
      s.live <- s.live + 1;
      if s.live > s.max_depth then s.max_depth <- s.live
    end

  let leave s ~cycles =
    if enabled () then begin
      if s.live > 0 then s.live <- s.live - 1;
      Histogram.observe s.cycles cycles
    end

  (* [enter] then [leave], behind one check of the switch. *)
  let record s ~cycles =
    if enabled () then begin
      s.entries <- s.entries + 1;
      if s.live + 1 > s.max_depth then s.max_depth <- s.live + 1;
      Histogram.observe s.cycles cycles
    end

  let entries s = s.entries
  let live s = s.live
  let max_depth s = s.max_depth
  let cycles s = s.cycles

  let reset s =
    s.entries <- 0;
    s.live <- 0;
    s.max_depth <- 0;
    Histogram.reset s.cycles
end

(* ----- Registries ----- *)

module Registry = struct
  (* A module's own tally, read into counter rows at capture. *)
  type source = { read : unit -> (string * int) list; clear : unit -> unit }

  type t = {
    name : string;
    counters : (string, Counter.t) Hashtbl.t;
    histograms : (string, Histogram.t) Hashtbl.t;
    spans : (string, Span.t) Hashtbl.t;
    mutable sources : source list;
  }

  let create ~name =
    {
      name;
      counters = Hashtbl.create 64;
      histograms = Hashtbl.create 16;
      spans = Hashtbl.create 16;
      sources = [];
    }

  let name t = t.name

  (* One default registry per domain: a worker domain resolving
     "kernel" instruments gets its own private copies, so recording
     from parallel per-seed tasks never races.  Lazily created on
     first use in each domain. *)
  let global_key = Domain.DLS.new_key (fun () -> create ~name:"kernel")
  let global () = Domain.DLS.get global_key

  let memo table make key =
    match Hashtbl.find_opt table key with
    | Some v -> v
    | None ->
        let v = make key in
        Hashtbl.add table key v;
        v

  let counter t key = memo t.counters Counter.make key
  let histogram t key = memo t.histograms (fun _ -> Histogram.make ()) key
  let span t key = memo t.spans (fun _ -> Span.make ()) key

  let sorted_bindings table value =
    Hashtbl.fold (fun k v acc -> (k, value v) :: acc) table []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

  (* Pushed counters and every source's rows, sorted by name; rows of
     one name (say, an absorbed worker reading and this domain's own)
     add up to one row. *)
  let counters t =
    let rec coalesce = function
      | (a, x) :: (b, y) :: rest when String.equal a b -> coalesce ((a, x + y) :: rest)
      | row :: rest -> row :: coalesce rest
      | [] -> []
    in
    Hashtbl.fold (fun k c acc -> (k, Counter.get c) :: acc) t.counters []
    |> List.rev_append (List.concat_map (fun s -> s.read ()) t.sources)
    |> List.stable_sort (fun (a, _) (b, _) -> String.compare a b)
    |> coalesce

  let reset t =
    Hashtbl.iter (fun _ c -> Counter.reset c) t.counters;
    Hashtbl.iter (fun _ h -> Histogram.reset h) t.histograms;
    Hashtbl.iter (fun _ s -> Span.reset s) t.spans;
    List.iter (fun s -> s.clear ()) t.sources
end

(* ----- Domain-local instrument handles ----- *)

(* A module-level [let obs_x = Registry.counter (Registry.global ()) "x"]
   would capture the *initialising* domain's instrument forever — a
   worker domain incrementing it would race domain 0.  [Local] handles
   defer resolution: each handle owns a DLS slot that memoises, per
   domain, the instrument of that domain's default registry.  The hot
   path is one DLS load. *)

module Local = struct
  type 'a handle = unit -> 'a

  let per_domain make : 'a handle =
    let key = Domain.DLS.new_key make in
    fun () -> Domain.DLS.get key

  let counter name = per_domain (fun () -> Registry.counter (Registry.global ()) name)
  let histogram name = per_domain (fun () -> Registry.histogram (Registry.global ()) name)
  let span name = per_domain (fun () -> Registry.span (Registry.global ()) name)

  let derived make ~read ~reset =
    per_domain (fun () ->
        let state = make () and registry = Registry.global () in
        registry.Registry.sources <-
          { Registry.read = (fun () -> read state); clear = (fun () -> reset state) }
          :: registry.Registry.sources;
        state)
end

(* ----- Snapshots ----- *)

module Snapshot = struct
  type histogram_data = {
    count : int;
    sum : int;
    min_value : int;
    max_value : int;
    saturated : bool;
    buckets : (int * int) list;
  }

  type span_data = { entries : int; live : int; max_depth : int; span_cycles : histogram_data }

  type t = {
    registry : string;
    counters : (string * int) list;
    histograms : (string * histogram_data) list;
    spans : (string * span_data) list;
  }

  let histogram_data h =
    {
      count = Histogram.count h;
      sum = Histogram.sum h;
      min_value = Histogram.min_value h;
      max_value = Histogram.max_value h;
      saturated = Histogram.saturated h;
      buckets = Histogram.buckets h;
    }

  let counter t name = Option.value ~default:0 (List.assoc_opt name t.counters)

  let capture ?registry () =
    let registry = match registry with Some r -> r | None -> Registry.global () in
    {
      registry = Registry.name registry;
      counters = Registry.counters registry;
      histograms = Registry.sorted_bindings registry.Registry.histograms histogram_data;
      spans =
        Registry.sorted_bindings registry.Registry.spans (fun s ->
            {
              entries = Span.entries s;
              live = Span.live s;
              max_depth = Span.max_depth s;
              span_cycles = histogram_data (Span.cycles s);
            });
    }

  (* ----- Differencing ----- *)

  (* One walk of two lists sorted by key: every [after] key, less its
     [before] reading (or [zero]). *)
  let rec diff_alist ~zero ~sub before after =
    match (before, after) with
    | _, [] -> []
    | [], (ka, a) :: ta -> (ka, sub a zero) :: diff_alist ~zero ~sub [] ta
    | (kb, b) :: tb, (ka, a) :: ta ->
        let c = compare kb ka in
        if c < 0 then diff_alist ~zero ~sub tb after
        else if c = 0 then (ka, sub a b) :: diff_alist ~zero ~sub tb ta
        else (ka, sub a zero) :: diff_alist ~zero ~sub before ta

  let diff_buckets before after =
    List.filter
      (fun (_, n) -> n > 0)
      (diff_alist ~zero:0 ~sub:( - ) before after)

  let diff_histogram (b : histogram_data) (a : histogram_data) =
    if b.count = 0 then a
    else
      {
        count = a.count - b.count;
        sum = (if a.saturated then a.sum else a.sum - b.sum);
        (* min/max cannot be differenced; report the after-side values,
           which bound the phase's samples.  A saturated sum likewise
           cannot be differenced — the ceiling is reported as-is, still
           flagged. *)
        min_value = a.min_value;
        max_value = a.max_value;
        saturated = a.saturated;
        buckets = diff_buckets b.buckets a.buckets;
      }

  let diff ~before ~after =
    let empty_hist =
      { count = 0; sum = 0; min_value = 0; max_value = 0; saturated = false; buckets = [] }
    in
    {
      registry = after.registry;
      counters = diff_alist ~zero:0 ~sub:( - ) before.counters after.counters;
      histograms =
        diff_alist ~zero:empty_hist ~sub:(fun a b -> diff_histogram b a) before.histograms
          after.histograms;
      spans =
        diff_alist
          ~zero:{ entries = 0; live = 0; max_depth = 0; span_cycles = empty_hist }
          ~sub:(fun a b ->
            {
              entries = a.entries - b.entries;
              live = a.live;
              max_depth = a.max_depth;
              span_cycles = diff_histogram b.span_cycles a.span_cycles;
            })
          before.spans after.spans;
    }

  let is_empty t =
    List.for_all (fun (_, v) -> v = 0) t.counters
    && List.for_all (fun (_, h) -> h.count = 0) t.histograms
    && List.for_all (fun (_, s) -> s.entries = 0) t.spans

  (* Add a snapshot's totals into live instruments — how a parallel
     join folds each worker task's private recordings back into the
     caller's registry, in task order.  Bypasses the [enabled] gate:
     the work was already recorded once, under the worker's own gate. *)
  let absorb ?into t =
    let into = match into with Some r -> r | None -> Registry.global () in
    List.iter
      (fun (name, v) ->
        if v <> 0 then begin
          let c = Registry.counter into name in
          c.Counter.value <- c.Counter.value + v
        end)
      t.counters;
    let absorb_hist (h : Histogram.t) (d : histogram_data) =
      if d.count > 0 then begin
        List.iter
          (fun (lo, n) ->
            let i = Histogram.bucket_index lo in
            h.Histogram.buckets.(i) <- h.Histogram.buckets.(i) + n)
          d.buckets;
        h.Histogram.count <- h.Histogram.count + d.count;
        if d.saturated || d.sum > max_int - h.Histogram.sum then begin
          h.Histogram.sum <- max_int;
          h.Histogram.saturated <- true
        end
        else h.Histogram.sum <- h.Histogram.sum + d.sum;
        if d.min_value < h.Histogram.min_value then h.Histogram.min_value <- d.min_value;
        if d.max_value > h.Histogram.max_value then h.Histogram.max_value <- d.max_value
      end
    in
    List.iter (fun (name, d) -> absorb_hist (Registry.histogram into name) d) t.histograms;
    List.iter
      (fun (name, (s : span_data)) ->
        let sp = Registry.span into name in
        sp.Span.entries <- sp.Span.entries + s.entries;
        sp.Span.live <- sp.Span.live + s.live;
        if s.max_depth > sp.Span.max_depth then sp.Span.max_depth <- s.max_depth;
        absorb_hist (Span.cycles sp) s.span_cycles)
      t.spans

  (* ----- Text rendering ----- *)

  let pad_left width s = if String.length s >= width then s else String.make (width - String.length s) ' ' ^ s

  let pad_right width s = if String.length s >= width then s else s ^ String.make (width - String.length s) ' '

  let render_rows buf ~header rows =
    if rows <> [] then begin
      let name_width =
        List.fold_left (fun w (n, _) -> max w (String.length n)) (String.length header) rows
      in
      let value_width = List.fold_left (fun w (_, v) -> max w (String.length v)) 0 rows in
      Buffer.add_string buf (header ^ "\n");
      List.iter
        (fun (n, v) ->
          Buffer.add_string buf
            ("  " ^ pad_right name_width n ^ "  " ^ pad_left value_width v ^ "\n"))
        rows
    end

  let describe_histogram h =
    if h.count = 0 then "(empty)"
    else
      Printf.sprintf "n=%d sum=%d%s mean=%.1f min=%d max=%d" h.count h.sum
        (if h.saturated then " (saturated)" else "")
        (float_of_int h.sum /. float_of_int h.count)
        h.min_value h.max_value

  let to_text t =
    let buf = Buffer.create 1024 in
    Buffer.add_string buf (Printf.sprintf "registry: %s\n" t.registry);
    let live_counters = List.filter (fun (_, v) -> v <> 0) t.counters in
    render_rows buf ~header:"counters"
      (List.map (fun (n, v) -> (n, string_of_int v)) live_counters);
    let live_hists = List.filter (fun (_, h) -> h.count > 0) t.histograms in
    render_rows buf ~header:"histograms"
      (List.map (fun (n, h) -> (n, describe_histogram h)) live_hists);
    let live_spans = List.filter (fun (_, s) -> s.entries > 0) t.spans in
    render_rows buf ~header:"spans"
      (List.map
         (fun (n, s) ->
           ( n,
             Printf.sprintf "entries=%d live=%d max_depth=%d cycles: %s" s.entries s.live
               s.max_depth (describe_histogram s.span_cycles) ))
         live_spans);
    if is_empty t then Buffer.add_string buf "(no recorded activity)\n";
    Buffer.contents buf

  (* ----- JSON rendering (hand-rolled; the library has no deps) ----- *)

  let json_escape s =
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let json_object fields =
    "{" ^ String.concat "," (List.map (fun (k, v) -> "\"" ^ json_escape k ^ "\":" ^ v) fields) ^ "}"

  let json_histogram h =
    json_object
      [
        ("count", string_of_int h.count);
        ("sum", string_of_int h.sum);
        ("saturated", if h.saturated then "true" else "false");
        ("min", string_of_int h.min_value);
        ("max", string_of_int h.max_value);
        ( "buckets",
          "["
          ^ String.concat ","
              (List.map
                 (fun (lo, n) -> Printf.sprintf "{\"ge\":%d,\"count\":%d}" lo n)
                 h.buckets)
          ^ "]" );
      ]

  let to_json t =
    json_object
      [
        ("registry", "\"" ^ json_escape t.registry ^ "\"");
        ("counters", json_object (List.map (fun (n, v) -> (n, string_of_int v)) t.counters));
        ("histograms", json_object (List.map (fun (n, h) -> (n, json_histogram h)) t.histograms));
        ( "spans",
          json_object
            (List.map
               (fun (n, s) ->
                 ( n,
                   json_object
                     [
                       ("entries", string_of_int s.entries);
                       ("live", string_of_int s.live);
                       ("max_depth", string_of_int s.max_depth);
                       ("cycles", json_histogram s.span_cycles);
                     ] ))
               t.spans) );
      ]
end
