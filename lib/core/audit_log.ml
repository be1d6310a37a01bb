(* The kernel audit trail.

   Every mediated operation appends a record of who asked for what and
   how the reference monitor ruled.  Certification needs the trail both
   ways: to show refused attacks were refused, and to show legitimate
   traffic was not.

   The trail is a ring that grows lazily up to [capacity] records; past
   that each append overwrites the oldest record, which [dropped]
   counts (as does the [audit.dropped] obs counter), so an overflow is
   never silent.  Appending is a few array stores and [length] a field
   read, so both cost the same at any depth.  Records are kept typed —
   the subject's principal, the ring, the operation, a typed target and
   the verdict with its typed cause — and rendered to strings only when
   read. *)

open Multics_access
module Obs = Multics_obs.Obs

type verdict =
  | Granted
  | Refused of string
  | Refused_by : ('e -> string) * 'e -> verdict

type target =
  | Name of string
  | Segno of int
  | Offset of int * int
  | Link of int * int

type record = {
  seq : int;
  subject : string;  (** principal identifier *)
  ring : int;
  operation : string;
  target : string;
  verdict : verdict;
}

let capacity = 1 lsl 20
let max_target = 256

(* Storage is column by column, in chunks of [chunk_size] records: the
   first chunk grows by doubling from [first_chunk] records, and each
   later chunk is allocated whole when the one before it fills (the
   directory of chunks is made full-size then).  No growth step copies
   more than one chunk, so a growing trail leaves at most one chunk of
   garbage behind (doubling the whole store measured a 19% larger peak
   heap on a 20k-call run).  Column [meta] packs the ring (low 4 bits)
   with the target's kind, which says which of [names], [segnos] and
   [args] hold the target. *)
let chunk_bits = 12
let chunk_size = 1 lsl chunk_bits
let first_chunk = 16

let kind_name = 0
let kind_segno = 1
let kind_offset = 2
let kind_link = 3

type chunk = {
  subjects : Principal.t array;
  operations : string array;
  meta : int array;
  names : string array;
  segnos : int array;
  args : int array;
  verdicts : verdict array;
}

let make_chunk n =
  {
    subjects = Array.make n Principal.system_daemon;
    operations = Array.make n "";
    meta = Array.make n 0;
    names = Array.make n "";
    segnos = Array.make n 0;
    args = Array.make n 0;
    verdicts = Array.make n Granted;
  }

let no_chunk = make_chunk 0

type t = {
  mutable enabled : bool;
  mutable chunks : chunk array;
  mutable slots : int;  (** records the chunks can hold *)
  mutable first : int;  (** slot of the oldest retained record *)
  mutable length : int;  (** retained records *)
  mutable logged : int;  (** records ever appended: the next [seq] *)
  mutable refused : int;  (** refusals ever appended *)
}

let obs_dropped = Obs.Local.counter "audit.dropped"

let create () =
  {
    enabled = true;
    chunks = [| no_chunk |];
    slots = 0;
    first = 0;
    length = 0;
    logged = 0;
    refused = 0;
  }

let set_enabled t enabled = t.enabled <- enabled

(* A name longer than [max_target] keeps its head and a mark saying how
   much was cut, so no caller can pin an unbounded string per record. *)
let cap_target s =
  let n = String.length s in
  if n <= max_target then s
  else Printf.sprintf "%s...[%d more bytes]" (String.sub s 0 max_target) (n - max_target)

(* Make room for one more record.  Below capacity nothing has wrapped
   ([first] is 0), so the records fill slots [0, length). *)
let grow t =
  if t.slots < chunk_size then begin
    let old = t.chunks.(0) and c = make_chunk (max first_chunk (2 * t.slots)) in
    let copy src dst = Array.blit src 0 dst 0 t.length in
    copy old.subjects c.subjects;
    copy old.operations c.operations;
    copy old.meta c.meta;
    copy old.names c.names;
    copy old.segnos c.segnos;
    copy old.args c.args;
    copy old.verdicts c.verdicts;
    t.chunks.(0) <- c;
    t.slots <- Array.length c.meta
  end
  else begin
    let k = t.slots lsr chunk_bits in
    if k = 1 then
      t.chunks <- Array.append t.chunks (Array.make ((capacity / chunk_size) - 1) no_chunk);
    t.chunks.(k) <- make_chunk chunk_size;
    t.slots <- t.slots + chunk_size
  end

(* The slot for the next record: a free one while the trail is below
   capacity, otherwise the oldest, which is dropped. *)
let next_slot t =
  if t.length < capacity then begin
    if t.length = t.slots then grow t;
    t.length <- t.length + 1;
    t.length - 1
  end
  else begin
    let slot = t.first in
    t.first <- (slot + 1) land (capacity - 1);
    Obs.Counter.incr (obs_dropped ());
    slot
  end

let store c i ~ring ~kind ~name ~segno ~arg =
  c.meta.(i) <- ring lor (kind lsl 4);
  c.names.(i) <- name;
  c.segnos.(i) <- segno;
  c.args.(i) <- arg

let log ?at ?(target = "") t ~(subject : Policy.subject) ~operation ~verdict =
  if t.enabled then begin
    let slot = next_slot t in
    let c = t.chunks.(slot lsr chunk_bits) and i = slot land (chunk_size - 1) in
    let ring = Multics_machine.Ring.to_int subject.Policy.ring in
    (match at with
    | None -> store c i ~ring ~kind:kind_name ~name:(cap_target target) ~segno:0 ~arg:0
    | Some (Name name) -> store c i ~ring ~kind:kind_name ~name:(cap_target name) ~segno:0 ~arg:0
    | Some (Segno segno) -> store c i ~ring ~kind:kind_segno ~name:"" ~segno ~arg:0
    | Some (Offset (segno, offset)) -> store c i ~ring ~kind:kind_offset ~name:"" ~segno ~arg:offset
    | Some (Link (segno, link)) -> store c i ~ring ~kind:kind_link ~name:"" ~segno ~arg:link);
    c.subjects.(i) <- subject.Policy.principal;
    c.operations.(i) <- operation;
    c.verdicts.(i) <- verdict;
    t.logged <- t.logged + 1;
    match verdict with Granted -> () | Refused _ | Refused_by _ -> t.refused <- t.refused + 1
  end

let length t = t.length
let logged t = t.logged
let refused t = t.refused
let dropped t = t.logged - t.length

(* The [i]-th retained record, oldest first, rendered to the record
   view. *)
let record_at t n =
  let slot = (t.first + n) land (capacity - 1) in
  let c = t.chunks.(slot lsr chunk_bits) and i = slot land (chunk_size - 1) in
  let meta = c.meta.(i) and segno = c.segnos.(i) and arg = c.args.(i) in
  let kind = meta lsr 4 in
  {
    seq = t.logged - t.length + n;
    subject = Principal.to_string c.subjects.(i);
    ring = meta land 0xf;
    operation = c.operations.(i);
    target =
      (if kind = kind_name then c.names.(i)
       else if kind = kind_segno then string_of_int segno
       else if kind = kind_offset then Printf.sprintf "%d|%d" segno arg
       else Printf.sprintf "%d#%d" segno arg);
    verdict =
      (match c.verdicts.(i) with
      | Refused_by (render, cause) -> Refused (render cause)
      | (Granted | Refused _) as v -> v);
  }

let tail t n =
  let n = max 0 (min n t.length) in
  List.init n (fun i -> record_at t (t.length - n + i))

let records t = tail t t.length

let granted r = match r.verdict with Granted -> true | Refused _ | Refused_by _ -> false
let refusals t = List.filter (fun r -> not (granted r)) (records t)
let grants t = List.filter granted (records t)

let by_operation t ~operation = List.filter (fun r -> r.operation = operation) (records t)

let pp_record ppf r =
  let verdict =
    match r.verdict with
    | Granted -> "granted"
    | Refused why -> "REFUSED: " ^ why
    | Refused_by (render, cause) -> "REFUSED: " ^ render cause
  in
  Fmt.pf ppf "#%d %s (ring %d) %s %s -> %s" r.seq r.subject r.ring r.operation r.target verdict
