(** The gate table: user-available supervisor entry points per
    configuration.  Sized so the paper's removal proportions hold of
    the functional surface: 60 baseline gates, linker = 6 (10%),
    linker + naming = 20 (one third).

    Every gate name has a dense {!id}, fixed at module initialisation,
    and every configuration's catalog is compiled once into an
    id-indexed {!table}. *)

open Multics_machine

type entry = {
  gate_name : string;
  subsystem : string;
  call_top : Ring.t;
}

val catalog : Config.t -> entry list

val count : Config.t -> int

val user_callable_count : Config.t -> int
(** Gates callable from the outermost ring (excludes the ring-1
    page-mechanism interface). *)

val find : Config.t -> gate_name:string -> entry option
(** One hash of the name and one array load. *)

val subsystems : Config.t -> string list

val count_by_subsystem : Config.t -> (string * int) list

(** {1 Dense gate ids} *)

type id = private int

val id_count : int
(** Distinct gate names across every configuration's catalog; ids run
    from 0 to [id_count - 1]. *)

val all : id list
(** Every id, ascending. *)

val id : string -> id option
(** [None] for a name no configuration has as a gate. *)

val name : id -> string

type table
(** A configuration's catalog, indexed by id. *)

val table : Config.t -> table
(** Compiled at module initialisation; this only selects it. *)

val lookup : table -> id -> entry option
(** An array load; allocates nothing. *)

(** {1 Metered configurations} *)

type config_id = private int

val config_id : Config.t -> config_id
(** A dense id per configuration name and gate-call price, interned on
    first use: a boot looks it up, a gate call carries it. *)

val priced_configs : unit -> (config_id * string * int) list
(** Every interned id, with its configuration's name and the cycles one
    gate call costs under it (the cross-ring round-trip price). *)
