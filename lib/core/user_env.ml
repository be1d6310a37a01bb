(* The user-ring environment library.

   Everything the removal projects took out of the supervisor has to
   run somewhere: here.  These functions execute with the process's own
   authority and use only the ordinary kernel gates ([initiate],
   [list_directory], ...), demonstrating the paper's point that tree
   walking, reference-name management and linking need no common
   mechanism.

   Under a pre-removal configuration the same facade simply calls the
   kernel's naming/linker gates, so callers are configuration-blind:
   the difference is *where* the work happens, not what API programs
   see. *)

open Multics_fs
open Multics_link

type error = Api of Api.error | Rnt_user of Rnt.error | Link_user of Linker.outcome

let error_to_string = function
  | Api e -> Api.error_to_string e
  | Rnt_user e -> Rnt.error_to_string e
  | Link_user outcome -> Linker.outcome_to_string outcome

let ( let* ) r f = Result.bind r f

(* Typed-dispatch projections: each kernel call goes through
   [Api.Call.dispatch] (the single audited entry point) and the reply
   is projected back to this facade's return type.  A shape mismatch
   is impossible by construction (each dispatch arm returns its
   request's reply constructor); [invalid_arg] keeps the impossible
   loud. *)

let mismatch what = invalid_arg ("User_env." ^ what ^ ": dispatch returned a mismatched reply")

let done_reply what = function
  | Ok Api.Call.Done -> Ok ()
  | Error e -> Error (Api e)
  | Ok _ -> mismatch what

let segno_reply what = function
  | Ok (Api.Call.Segno segno) -> Ok segno
  | Error e -> Error (Api e)
  | Ok _ -> mismatch what

let naming_in_kernel system =
  match (System.config system).Config.naming with
  | Rnt.In_kernel -> true
  | Rnt.In_user_ring -> false

let linker_in_kernel system =
  match (System.config system).Config.linker with
  | Linker.In_kernel -> true
  | Linker.In_user_ring -> false

(* The root's segment number in this process (primed at login). *)
let root_segno system ~handle =
  match System.proc system handle with
  | None -> Error (Api (Api.No_such_process handle))
  | Some p -> (
      match Kst.segno_of_uid p.System.kst ~uid:Uid.root with
      | Some segno -> Ok segno
      | None -> Error (Api (Api.Kst_error (Kst.Unknown_segno 0))))

(* ----- Tree-name resolution ----- *)

let split_path path =
  if path = ">" then Ok []
  else if String.length path = 0 || path.[0] <> '>' then
    Error (Api (Api.Fs (Hierarchy.Invalid_path path)))
  else Ok (String.split_on_char '>' (String.sub path 1 (String.length path - 1)))

(* Resolve a tree name by walking one [initiate] gate call per
   component — the user-ring replacement for the kernel's resolver.
   Pre-removal configurations delegate to the kernel gate instead. *)
let resolve_path system ~handle ~path =
  if naming_in_kernel system then
    segno_reply "resolve_path"
      (Api.Call.dispatch system ~handle (Api.Call.Resolve_path { path }))
  else begin
    let* components = split_path path in
    let* root = root_segno system ~handle in
    let rec walk dir_segno = function
      | [] -> Ok dir_segno
      | name :: rest ->
          let* segno =
            segno_reply "resolve_path"
              (Api.Call.dispatch system ~handle (Api.Call.Initiate { dir_segno; name }))
          in
          walk segno rest
    in
    walk root components
  end

let parent_path path =
  match String.rindex_opt path '>' with
  | None | Some 0 -> (">", String.sub path 1 (max 0 (String.length path - 1)))
  | Some i -> (String.sub path 0 i, String.sub path (i + 1) (String.length path - i - 1))

let create_segment_at ?brackets system ~handle ~path ~acl ~label =
  if naming_in_kernel system then
    segno_reply "create_segment_at"
      (Api.Call.dispatch system ~handle
         (Api.Call.Create_segment_by_path { path; acl; label; brackets }))
  else begin
    let dir_path, name = parent_path path in
    let* dir_segno = resolve_path system ~handle ~path:dir_path in
    segno_reply "create_segment_at"
      (Api.Call.dispatch system ~handle
         (Api.Call.Create_segment { dir_segno; name; acl; label; brackets }))
  end

let create_directory_at system ~handle ~path ~acl ~label =
  if naming_in_kernel system then
    segno_reply "create_directory_at"
      (Api.Call.dispatch system ~handle (Api.Call.Create_directory_by_path { path; acl; label }))
  else begin
    let dir_path, name = parent_path path in
    let* dir_segno = resolve_path system ~handle ~path:dir_path in
    segno_reply "create_directory_at"
      (Api.Call.dispatch system ~handle (Api.Call.Create_directory { dir_segno; name; acl; label }))
  end

let delete_at system ~handle ~path =
  if naming_in_kernel system then
    done_reply "delete_at" (Api.Call.dispatch system ~handle (Api.Call.Delete_by_path { path }))
  else begin
    let dir_path, name = parent_path path in
    let* dir_segno = resolve_path system ~handle ~path:dir_path in
    done_reply "delete_at"
      (Api.Call.dispatch system ~handle (Api.Call.Delete_entry { dir_segno; name }))
  end

(* ----- Reference names ----- *)

let rnt_user_result r = Result.map_error (fun e -> Rnt_user e) r

let bind_name system ~handle ~name ~segno =
  if naming_in_kernel system then
    done_reply "bind_name" (Api.Call.dispatch system ~handle (Api.Call.Rnt_bind { name; segno }))
  else begin
    match System.proc system handle with
    | None -> Error (Api (Api.No_such_process handle))
    | Some p -> rnt_user_result (Rnt.bind p.System.rnt ~name ~segno)
  end

let lookup_name system ~handle ~name =
  if naming_in_kernel system then
    segno_reply "lookup_name" (Api.Call.dispatch system ~handle (Api.Call.Rnt_lookup { name }))
  else begin
    match System.proc system handle with
    | None -> Error (Api (Api.No_such_process handle))
    | Some p -> rnt_user_result (Rnt.lookup p.System.rnt ~name)
  end

(* ----- Linking ----- *)

(* Snap a link.  Pre-removal this is the kernel's snap_link gate;
   post-removal the linker runs here, in the faulting ring, with the
   process's own authority (its directory searches are exactly what
   the initiate gate would mediate), and the target is made known
   through the ordinary descriptor-construction path. *)
let snap_link system ~handle ~segno ~link_index =
  if linker_in_kernel system then begin
    match Api.Call.dispatch system ~handle (Api.Call.Snap_link { segno; link_index }) with
    | Ok (Api.Call.Snapped { segno; offset }) -> Ok (segno, offset)
    | Error e -> Error (Api e)
    | Ok _ -> mismatch "snap_link"
  end
  else begin
    match System.proc system handle with
    | None -> Error (Api (Api.No_such_process handle))
    | Some p -> (
        match Kst.uid_of_segno p.System.kst segno with
        | Error e -> Error (Api (Api.Kst_error e))
        | Ok from_uid -> (
            let subject = System.subject_of p in
            match
              Linker.resolve_link (System.linker system) ~subject ~rules:p.System.rules
                ~from_uid ~link_index
            with
            | Linker.Snapped { target; offset; _ } | Linker.Already_snapped { target; offset }
              ->
                let target_segno = System.install_known system p ~uid:target in
                Ok (target_segno, offset)
            | other -> Error (Link_user other)))
  end
