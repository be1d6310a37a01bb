(* Run one measured round in a forked child and bring its result back.

   The kernel keeps process-lifetime state across boots (every
   [Hierarchy.create] subscribes to [Acl.on_change] for good), so a
   round run after others in the same process is slower than the first
   one, and a time-boxed run would measure how many rounds it managed
   to fit.  Each round therefore starts from the same parent state: the
   child runs it, marshals the result (with its spans and heap peak)
   down a pipe and exits; the parent waits for it. *)

let heap_peak_words = ref 0

let run (f : unit -> 'a) : 'a =
  flush stdout;
  flush stderr;
  (* Every child starts from the same compacted parent heap. *)
  Gc.compact ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let recorder = Option.map (fun _ -> Trace.create ()) !Trace.active in
      Trace.active := recorder;
      let result =
        match f () with
        | v -> Ok (v, recorder, (Gc.quick_stat ()).Gc.top_heap_words)
        | exception e -> Error (Printexc.to_string e)
      in
      let oc = Unix.out_channel_of_descr wr in
      Marshal.to_channel oc result [];
      close_out oc;
      Unix._exit 0
  | pid -> (
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let result =
        Fun.protect
          ~finally:(fun () ->
            close_in_noerr ic;
            ignore (Unix.waitpid [] pid))
          (fun () ->
            match Marshal.from_channel ic with
            | r -> r
            | exception End_of_file -> Error "round process died before reporting")
      in
      match result with
      | Error e -> failwith ("perfbench round failed: " ^ e)
      | Ok (v, recorder, heap) ->
          heap_peak_words := max !heap_peak_words heap;
          (match (!Trace.active, recorder) with
          | Some t, Some c -> Trace.absorb t c
          | _ -> ());
          v)
