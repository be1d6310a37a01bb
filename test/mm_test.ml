(* Tests for Multics_mm: block pools, placement, transfer, usage bits,
   and the conservation invariant. *)

open Multics_mm

let make_memory () = Memory.create ~cost:Multics_machine.Cost.h6180 ~core:4 ~bulk:8 ~disk:16

let page n = Page_id.make ~seg_uid:100 ~page_no:n

let test_place_and_locate () =
  let m = make_memory () in
  match Memory.place m (page 0) ~level:Level.Core with
  | Error e -> Alcotest.fail (Memory.error_to_string e)
  | Ok block ->
      Alcotest.(check string) "level" "core" (Level.name (Block.level block));
      (match Memory.location m (page 0) with
      | Some b -> Alcotest.(check bool) "location agrees" true (Block.equal b block)
      | None -> Alcotest.fail "page lost");
      (match Memory.occupant m block with
      | Some p -> Alcotest.(check bool) "occupant agrees" true (Page_id.equal p (page 0))
      | None -> Alcotest.fail "no occupant");
      Alcotest.(check int) "free count dropped" 3 (Memory.free_count m Level.Core)

let test_double_place_rejected () =
  let m = make_memory () in
  (match Memory.place m (page 1) ~level:Level.Core with Ok _ -> () | Error _ -> Alcotest.fail "place");
  match Memory.place m (page 1) ~level:Level.Bulk with
  | Error (Memory.Page_already_resident _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "double residency allowed"

let test_exhaustion () =
  let m = make_memory () in
  for i = 0 to 3 do
    match Memory.place m (page i) ~level:Level.Core with
    | Ok _ -> ()
    | Error e -> Alcotest.fail (Memory.error_to_string e)
  done;
  match Memory.place m (page 4) ~level:Level.Core with
  | Error (Memory.No_free_block Level.Core) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected exhaustion"

let test_transfer_core_to_bulk () =
  let m = make_memory () in
  (match Memory.place m (page 0) ~level:Level.Core with Ok _ -> () | Error _ -> Alcotest.fail "place");
  match Memory.transfer m (page 0) ~dest:Level.Bulk with
  | Error e -> Alcotest.fail (Memory.error_to_string e)
  | Ok (block, cost) ->
      Alcotest.(check string) "now in bulk" "bulk" (Level.name (Block.level block));
      Alcotest.(check bool) "cost charged" true (cost > 0);
      Alcotest.(check int) "core freed" 4 (Memory.free_count m Level.Core);
      Alcotest.(check int) "bulk used" 7 (Memory.free_count m Level.Bulk)

let test_transfer_same_level_free () =
  let m = make_memory () in
  (match Memory.place m (page 0) ~level:Level.Bulk with Ok _ -> () | Error _ -> Alcotest.fail "place");
  match Memory.transfer m (page 0) ~dest:Level.Bulk with
  | Ok (_, 0) -> ()
  | Ok (_, c) -> Alcotest.fail (Printf.sprintf "same-level transfer cost %d" c)
  | Error e -> Alcotest.fail (Memory.error_to_string e)

let test_transfer_nonresident () =
  let m = make_memory () in
  match Memory.transfer m (page 9) ~dest:Level.Core with
  | Error (Memory.Page_not_resident _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected not-resident"

let test_counter_names () =
  let m = make_memory () in
  let ok = function Ok _ -> () | Error e -> Alcotest.fail (Memory.error_to_string e) in
  ok (Memory.place m (page 0) ~level:Level.Core);
  ok (Memory.place m (page 1) ~level:Level.Disk);
  ok (Memory.transfer m (page 0) ~dest:Level.Bulk);
  ok (Memory.transfer m (page 0) ~dest:Level.Disk);
  ok (Memory.transfer m (page 1) ~dest:Level.Core);
  Alcotest.(check (list (pair string int)))
    "one counter per level and per level pair"
    [
      ("place_core", 1);
      ("place_disk", 1);
      ("transfer_bulk_to_disk", 1);
      ("transfer_core_to_bulk", 1);
      ("transfer_disk_to_core", 1);
    ]
    (Multics_util.Stats.Counters.to_alist (Memory.counters m))

let test_disk_transfer_costs_more () =
  let m = make_memory () in
  (match Memory.place m (page 0) ~level:Level.Core with Ok _ -> () | Error _ -> Alcotest.fail "p0");
  (match Memory.place m (page 1) ~level:Level.Bulk with Ok _ -> () | Error _ -> Alcotest.fail "p1");
  let core_bulk =
    match Memory.transfer m (page 0) ~dest:Level.Bulk with
    | Ok (_, c) -> c
    | Error e -> Alcotest.fail (Memory.error_to_string e)
  in
  let bulk_disk =
    match Memory.transfer m (page 1) ~dest:Level.Disk with
    | Ok (_, c) -> c
    | Error e -> Alcotest.fail (Memory.error_to_string e)
  in
  Alcotest.(check bool) "disk slower than drum" true (bulk_disk > core_bulk)

let test_usage_bits () =
  let m = make_memory () in
  (match Memory.place m (page 0) ~level:Level.Core with Ok _ -> () | Error _ -> Alcotest.fail "place");
  Alcotest.(check (option (pair bool bool))) "fresh" (Some (false, false))
    (Memory.frame_usage m (page 0));
  Memory.touch m (page 0);
  Alcotest.(check (option (pair bool bool))) "touched" (Some (true, false))
    (Memory.frame_usage m (page 0));
  Memory.dirty m (page 0);
  Alcotest.(check (option (pair bool bool))) "dirtied" (Some (true, true))
    (Memory.frame_usage m (page 0));
  Memory.clear_used m (page 0);
  Alcotest.(check (option (pair bool bool))) "swept keeps modified" (Some (false, true))
    (Memory.frame_usage m (page 0))

let test_usage_bits_only_core () =
  let m = make_memory () in
  (match Memory.place m (page 0) ~level:Level.Bulk with Ok _ -> () | Error _ -> Alcotest.fail "place");
  Memory.touch m (page 0);
  Alcotest.(check (option (pair bool bool))) "no bits off-core" None
    (Memory.frame_usage m (page 0))

let test_evict_page () =
  let m = make_memory () in
  (match Memory.place m (page 0) ~level:Level.Core with Ok _ -> () | Error _ -> Alcotest.fail "place");
  (match Memory.evict_page m (page 0) with Ok _ -> () | Error e -> Alcotest.fail (Memory.error_to_string e));
  Alcotest.(check int) "core free again" 4 (Memory.free_count m Level.Core);
  Alcotest.(check bool) "gone" true (Memory.location m (page 0) = None)

let test_residents () =
  let m = make_memory () in
  (match Memory.place m (page 0) ~level:Level.Core with Ok _ -> () | Error _ -> Alcotest.fail "p0");
  (match Memory.place m (page 1) ~level:Level.Core with Ok _ -> () | Error _ -> Alcotest.fail "p1");
  Alcotest.(check int) "two core residents" 2 (List.length (Memory.core_residents m))

(* Property: any sequence of random place/transfer/evict operations
   preserves conservation. *)
let conservation_prop =
  let ops_gen = QCheck.Gen.(list_size (int_range 1 120) (int_range 0 99)) in
  QCheck.Test.make ~name:"conservation under random traffic" ~count:100 (QCheck.make ops_gen)
    (fun ops ->
      let m = Memory.create ~cost:Multics_machine.Cost.h6180 ~core:3 ~bulk:5 ~disk:9 in
      let levels = [| Level.Core; Level.Bulk; Level.Disk |] in
      List.iter
        (fun op ->
          let pg = page (op mod 7) in
          let lv = levels.(op mod 3) in
          match op mod 4 with
          | 0 -> ignore (Memory.place m pg ~level:lv)
          | 1 -> ignore (Memory.transfer m pg ~dest:lv)
          | 2 -> ignore (Memory.evict_page m pg)
          | _ ->
              Memory.touch m pg;
              Memory.dirty m pg)
        ops;
      Memory.check_conservation m)

let suite =
  [
    ("place and locate", `Quick, test_place_and_locate);
    ("double place rejected", `Quick, test_double_place_rejected);
    ("exhaustion", `Quick, test_exhaustion);
    ("transfer core->bulk", `Quick, test_transfer_core_to_bulk);
    ("transfer same level free", `Quick, test_transfer_same_level_free);
    ("counter names", `Quick, test_counter_names);
    ("transfer nonresident", `Quick, test_transfer_nonresident);
    ("disk transfer costs more", `Quick, test_disk_transfer_costs_more);
    ("usage bits", `Quick, test_usage_bits);
    ("usage bits only core", `Quick, test_usage_bits_only_core);
    ("evict page", `Quick, test_evict_page);
    ("residents", `Quick, test_residents);
    QCheck_alcotest.to_alcotest conservation_prop;
  ]
