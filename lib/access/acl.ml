(* Discretionary access control lists.

   Each branch in the storage hierarchy carries an ACL: an ordered set
   of (principal pattern -> mode) entries.  Evaluation follows the
   Multics rule: the most specific matching entry decides, with the
   person component most significant.  An explicit null-mode entry is
   how access is denied to a specific principal while a broader entry
   grants it to everyone else.

   ACLs are pure values with no global state: building or editing one
   changes nothing until it is installed on a branch, and revoking the
   cached verdicts derived from the old ACL is the installer's job
   (Hierarchy bumps the object's epoch on every ACL write). *)

open Multics_machine

type entry = { pattern : Principal.pattern; mode : Mode.t }

type t = entry list (* kept sorted, most specific first *)

let empty = []

let entry_compare a b =
  (* Most specific first; ties broken by pattern text for determinism. *)
  match
    Int.compare (Principal.pattern_specificity b.pattern) (Principal.pattern_specificity a.pattern)
  with
  | 0 ->
      String.compare
        (Principal.pattern_to_string a.pattern)
        (Principal.pattern_to_string b.pattern)
  | c -> c

let add t ~pattern ~mode =
  let without =
    List.filter
      (fun e -> Principal.pattern_to_string e.pattern <> Principal.pattern_to_string pattern)
      t
  in
  List.sort entry_compare ({ pattern; mode } :: without)

let add_string t ~pattern ~mode =
  add t ~pattern:(Principal.pattern_of_string pattern) ~mode:(Mode.of_string mode)

let remove t ~pattern =
  List.filter
    (fun e -> Principal.pattern_to_string e.pattern <> Principal.pattern_to_string pattern)
    t

let of_strings entries =
  List.fold_left (fun acc (pattern, mode) -> add_string acc ~pattern ~mode) empty entries

let entries t = List.map (fun e -> (e.pattern, e.mode)) t

let mode_for t principal =
  match List.find_opt (fun e -> Principal.matches e.pattern principal) t with
  | Some e -> e.mode
  | None -> Mode.none

let permits t principal ~requested = Mode.subset requested (mode_for t principal)

let pp ppf t =
  let pp_entry ppf e = Fmt.pf ppf "%a %a" Mode.pp e.mode Principal.pp_pattern e.pattern in
  Fmt.(list ~sep:semi pp_entry) ppf t
