(** Typed parsers for the shell's operator-command families ([fault],
    [cache], [sched], [smp], [jobs], [site], [stats], [audit], [mc],
    [spec]).

    Each family is a total function from a word list to either a typed
    command or a typed error (in the style of the kernel's own
    [Bad_tune]): every malformed input gets a specific, named
    rejection carrying the usage line — nothing falls through an
    unmatched arm or raises out of the shell's read loop.  Validation
    runs at the parser, before any gate is consulted: a bad fault-plan
    spec or an unknown tuning parameter is refused with a reason
    instead of travelling into the kernel as a string. *)

module Command : sig
  type stats_mode = Stats_text | Stats_json | Stats_reset

  type t =
    | Fault_plan of { seed : int; spec : string }
    | Fault_status
    | Fault_clear
    | Cache_status
    | Cache_clear
    | Sched_status
    | Sched_tune of { param : string; value : int }
    | Sched_demo of { users : int }
    | Smp_status
    | Jobs_status
    | Site_status
    | Site_partition of { a : int; b : int }
    | Site_heal
    | Stats of stats_mode
    | Audit_tail of { count : int }
    | Mc_run of { depth : int; bug : bool }
        (** bounded exhaustive exploration; depth is validated 1..8 *)
    | Mc_status
    | Mc_replay of { trace : string; bug : bool }
        (** the trace is validated against the checker's alphabet at
            parse time, then re-parsed by the executor *)
    | Spec_profile_start  (** begin recording the per-gate dispatch counters *)
    | Spec_profile_stop of { name : string }
        (** snapshot the recording into a named gate-usage profile *)
    | Spec_apply  (** compile the captured profile and install its gate mask *)
    | Spec_clear  (** restore the full gate surface *)
    | Spec_status  (** the installed mask and the captured profile *)

  type error =
    | Bad_int of { what : string; got : string; usage : string }
    | Bad_subcommand of { family : string; got : string; usage : string }
    | Bad_arity of { family : string; usage : string }
    | Bad_param of { param : string; known : string list; usage : string }
    | Bad_plan of { spec : string; reason : string }
    | Bad_count of { what : string; got : int; usage : string }
    | Bad_pair of { family : string; reason : string; usage : string }
    | Bad_range of { what : string; got : int; lo : int; hi : int; usage : string }
    | Bad_trace of { got : string; usage : string }

  val error_to_string : error -> string

  val parse : string list -> (t, error) result option
  (** [None]: the word list is not an operator-family command (the
      shell's other parsers own it). *)

  val of_line : string -> (t, error) result option
  (** {!parse} after whitespace splitting. *)
end
