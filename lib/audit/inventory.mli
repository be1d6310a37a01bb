(** The supervisor inventory: a data-driven reconstruction of the
    early-1970s Multics supervisor, sized from the paper's own numbers
    (180 baseline gates; linker = 18, i.e. 10%; linker + naming = 60,
    i.e. one third; address-space protected code 3,500 -> 350
    statements).  The per-configuration module list is the workload for
    experiments E1, E2, E3 and E12. *)

type mechanism_kind = Common | Private_per_process

type module_info = {
  module_name : string;
  subsystem : string;
  statements : int;
  gates : int;
  certification_ring : int;
  kind : mechanism_kind;
}

val modules : Multics_kernel.Config.t -> module_info list

val total_gates : Multics_kernel.Config.t -> int
val total_statements : Multics_kernel.Config.t -> int

val ring0_statements : Multics_kernel.Config.t -> int
(** The mass that must be fully certified. *)

val ring1_statements : Multics_kernel.Config.t -> int
(** The partitioned mass that can only cause denial of use. *)

val module_count : Multics_kernel.Config.t -> int

val subsystem_gates : Multics_kernel.Config.t -> subsystem:string -> int

val address_space_statements : Multics_kernel.Config.t -> int
(** Protected code managing the address space (E2's factor-of-ten). *)

(** {1 Specialised-surface accounting (E22)} *)

type specialised_surface = {
  functional_kept : int;  (** admitted gates in the functional catalog *)
  functional_full : int;  (** the configuration's full catalog size *)
  paper_kept : int;  (** the kept surface at paper scale (180-gate baseline) *)
  paper_full : int;  (** the configuration's paper-scale total *)
  by_subsystem : (string * int * int) list;
      (** (functional subsystem, kept, full), sorted by subsystem *)
}

val specialised_surface :
  Multics_kernel.Config.t -> admitted:(string -> bool) -> specialised_surface
(** The attack surface left by a per-workload specialisation, in both
    the functional catalog's units and the paper-scale inventory's:
    each inventory subsystem is scaled by its functional subsystem's
    kept fraction; inventory subsystems with no functional counterpart
    (traffic control, fault handling, ...) have no user-strippable
    entries and pass through at full size. *)
