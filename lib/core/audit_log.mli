(** The kernel audit trail of mediation decisions: a ring of typed
    records, bounded at {!capacity}, rendered to strings only when
    read. *)

open Multics_access

type verdict =
  | Granted
  | Refused of string
  | Refused_by : ('e -> string) * 'e -> verdict
      (** a typed refusal cause and its renderer; the trail stores the
          cause and renders it only when the record is read, so a
          record view never carries this constructor *)

(** What an operation was applied to.  Rendered as the name, the
    segment number, ["segno|offset"] and ["segno#link"]. *)
type target =
  | Name of string
  | Segno of int
  | Offset of int * int
  | Link of int * int

type record = {
  seq : int;
  subject : string;
  ring : int;
  operation : string;
  target : string;
  verdict : verdict;
}

type t

val capacity : int
(** 2{^20}: the most records the trail retains.  The ring grows by
    doubling up to it; past it each append overwrites the oldest
    record, counted in {!dropped} and in the [audit.dropped] obs
    counter. *)

val max_target : int
(** Stored target names longer than this keep their first
    [max_target] bytes and a ["...[N more bytes]"] mark. *)

val create : unit -> t
val set_enabled : t -> bool -> unit

val log :
  ?at:target ->
  ?target:string ->
  t ->
  subject:Policy.subject ->
  operation:string ->
  verdict:verdict ->
  unit
(** Append one record.  The target is [at] when given, else the name
    [target] (default [""]).  A disabled trail ignores the call. *)

val length : t -> int
(** Records retained: at most {!capacity}. *)

val logged : t -> int
(** Records ever appended (monotone): the [seq] the next one gets. *)

val refused : t -> int
(** Refusals ever appended (monotone). *)

val dropped : t -> int
(** Records overwritten at capacity: [logged - length]. *)

val records : t -> record list
(** The retained records, oldest first. *)

val tail : t -> int -> record list
(** The newest [n] retained records, oldest first; reads only those. *)

val refusals : t -> record list
val grants : t -> record list
val by_operation : t -> operation:string -> record list
val pp_record : Format.formatter -> record -> unit
