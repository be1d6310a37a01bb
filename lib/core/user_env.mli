(** The user-ring environment library: tree-name resolution, reference
    names and linking, implemented over ordinary kernel gates with the
    process's own authority.  Under pre-removal configurations the same
    facade delegates to the corresponding kernel gates, so callers are
    configuration-blind. *)

open Multics_access
open Multics_link
open Multics_machine

type error = Api of Api.error | Rnt_user of Rnt.error | Link_user of Linker.outcome

val error_to_string : error -> string

val root_segno : System.t -> handle:int -> (int, error) result

val resolve_path : System.t -> handle:int -> path:string -> (int, error) result
(** One [initiate] gate call per path component (post-removal), or the
    kernel resolver gate (pre-removal). *)

val create_segment_at :
  ?brackets:Brackets.t ->
  System.t ->
  handle:int ->
  path:string ->
  acl:Acl.t ->
  label:Label.t ->
  (int, error) result

val create_directory_at :
  System.t -> handle:int -> path:string -> acl:Acl.t -> label:Label.t -> (int, error) result

val delete_at : System.t -> handle:int -> path:string -> (unit, error) result

val bind_name : System.t -> handle:int -> name:string -> segno:int -> (unit, error) result
val lookup_name : System.t -> handle:int -> name:string -> (int, error) result

val snap_link :
  System.t -> handle:int -> segno:int -> link_index:int -> (int * int, error) result
(** Returns (target segment number, entry offset). *)
