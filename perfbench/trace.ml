(* In-memory spans recorded by the benchmark around its calls into
   each layer.  A span has a name (["<layer>.<what>"]), start and end
   (monotonic ns), the span open when it started, and a request id.
   Nothing is recorded unless a recorder is active, so the untraced
   runs pay one branch per call site.  Self time (duration minus the
   part covered by child spans) is summed per layer as spans close, so
   it covers every span even after the retained set is full.  Spans are
   written out when the run ends. *)

type span = { name : string; start_ns : int; mutable stop_ns : int; parent : int; req : int }

type frame = { id : int; fname : string; start : int; mutable child_ns : int }

type t = {
  mutable spans : span array;
  mutable len : int;
  mutable stack : frame list;  (** open spans, innermost first *)
  cap : int;  (** spans retained for writing out *)
  mutable dropped : int;
  self_ns : (string, int) Hashtbl.t;  (** by layer *)
}

let dummy = { name = ""; start_ns = 0; stop_ns = 0; parent = -1; req = -1 }

let create ?(cap = 50_000) () =
  { spans = Array.make 1024 dummy; len = 0; stack = []; cap; dropped = 0; self_ns = Hashtbl.create 16 }

let active : t option ref = ref None

let layer_of name = match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

let add_self t layer ns =
  Hashtbl.replace t.self_ns layer (ns + Option.value ~default:0 (Hashtbl.find_opt t.self_ns layer))

let push t span =
  if t.len >= t.cap then begin
    t.dropped <- t.dropped + 1;
    -1
  end
  else begin
    if t.len = Array.length t.spans then begin
      let bigger = Array.make (2 * t.len) dummy in
      Array.blit t.spans 0 bigger 0 t.len;
      t.spans <- bigger
    end;
    t.spans.(t.len) <- span;
    t.len <- t.len + 1;
    t.len - 1
  end

let enter t ~name ~req =
  let parent = match t.stack with f :: _ -> f.id | [] -> -1 in
  let start = Clock.now_ns () in
  let id = push t { name; start_ns = start; stop_ns = 0; parent; req } in
  let frame = { id; fname = name; start; child_ns = 0 } in
  t.stack <- frame :: t.stack;
  frame

let leave t frame =
  let stop = Clock.now_ns () in
  let dur = stop - frame.start in
  add_self t (layer_of frame.fname) (dur - frame.child_ns);
  (match t.stack with
  | _ :: (parent :: _ as rest) ->
      parent.child_ns <- parent.child_ns + dur;
      t.stack <- rest
  | _ :: [] | [] -> t.stack <- []);
  if frame.id >= 0 then t.spans.(frame.id).stop_ns <- stop

(* [with_span ~name ~req f]: run [f] inside a span when a recorder is
   active, plainly otherwise. *)
let with_span ~name ~req f =
  match !active with
  | None -> f ()
  | Some t -> (
      let frame = enter t ~name ~req in
      match f () with
      | v ->
          leave t frame;
          v
      | exception e ->
          leave t frame;
          raise e)

let with_recorder t f =
  let saved = !active in
  active := Some t;
  Fun.protect ~finally:(fun () -> active := saved) f

(* Fold a recorder filled elsewhere (a child process) into [t]. *)
let absorb t child =
  Hashtbl.iter (add_self t) child.self_ns;
  let offset = t.len in
  for i = 0 to child.len - 1 do
    let s = child.spans.(i) in
    ignore (push t { s with parent = (if s.parent >= 0 then s.parent + offset else -1) })
  done;
  t.dropped <- t.dropped + child.dropped

let self_by_layer t = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.self_ns [])
let length t = t.len
let dropped t = t.dropped

(* One JSON object per line: the header, the retained spans, then a
   summary with the per-layer self times. *)
let write t ~path ~header =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc "%s\n" header;
      for i = 0 to t.len - 1 do
        let s = t.spans.(i) in
        Printf.fprintf oc
          "{\"id\": %d, \"name\": \"%s\", \"start_ns\": %d, \"end_ns\": %d, \"parent\": %d, \"req\": %d}\n"
          i s.name s.start_ns s.stop_ns s.parent s.req
      done;
      Printf.fprintf oc "{\"spans\": %d, \"dropped\": %d, \"self_ns_by_layer\": {%s}}\n" t.len
        t.dropped
        (String.concat ", "
           (List.map (fun (l, ns) -> Printf.sprintf "\"%s\": %d" l ns) (self_by_layer t))))
