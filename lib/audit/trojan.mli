(** The paper's four categories of non-kernel software, as runnable
    scenarios: undesired results may occur, but a correct kernel keeps
    them from being unauthorized. *)

type category = System_provided | User_constructed | Borrowed_program | Mutual_consent

val category_name : category -> string

type result = {
  category : category;
  scenario_name : string;
  undesired : bool;
  unauthorized : bool;
  contained : bool;
  note : string;
}

val scenario_borrowed_unconfined : unit -> result
val scenario_borrowed_confined : unit -> result

val run_all : unit -> result list

val kernel_held : result list -> bool
(** True iff no scenario produced an unauthorized result. *)
