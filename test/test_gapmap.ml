(* Tests for the gap-versioned map: unit tests replaying the paper's
   Figures 1-5 semantics on a single representative, model-based equivalence
   of the B+tree against the reference implementation, and B+tree structural
   stress tests. *)

open Repdir_key
open Repdir_gapmap
module G = Gapmap

let lookup_testable =
  let pp ppf = function
    | Gapmap_intf.Present { version; value } ->
        Format.fprintf ppf "Present(v%a,%s)" Version.pp version value
    | Gapmap_intf.Absent { gap_version } -> Format.fprintf ppf "Absent(g%a)" Version.pp gap_version
  in
  Alcotest.testable pp ( = )

let neighbor_testable =
  let pp ppf (n : Gapmap_intf.neighbor) =
    Format.fprintf ppf "{key=%a; entry_version=%a; gap=%a}" Bound.pp n.key
      (Format.pp_print_option Version.pp)
      n.entry_version Version.pp n.gap_version
  in
  Alcotest.testable pp ( = )

(* Functorized test body so both implementations get identical coverage. *)
module Make_unit (M : Gapmap_intf.S) = struct
  let fresh_abc () =
    (* The paper's Figure 1: entries "a" and "c" at version 1, all gaps 0. *)
    let g = M.create () in
    M.insert g "a" 1 "va";
    M.insert g "c" 1 "vc";
    g

  let test_empty () =
    let g = M.create () in
    Alcotest.(check int) "size" 0 (M.size g);
    Alcotest.check lookup_testable "absent in LOW..HIGH gap"
      (Absent { gap_version = Version.lowest })
      (M.lookup g (Bound.Key "x"));
    Alcotest.(check int) "one gap" 1 (List.length (M.gaps g));
    (match M.check_invariants g with
    | Ok () -> ()
    | Error e -> Alcotest.fail e)

  let test_sentinels_present () =
    let g = M.create () in
    Alcotest.check lookup_testable "LOW present"
      (Present { version = Version.lowest; value = "" })
      (M.lookup g Bound.Low);
    Alcotest.check lookup_testable "HIGH present"
      (Present { version = Version.lowest; value = "" })
      (M.lookup g Bound.High)

  let test_figure1_layout () =
    let g = fresh_abc () in
    Alcotest.(check int) "two entries" 2 (M.size g);
    Alcotest.check lookup_testable "a present" (Present { version = 1; value = "va" })
      (M.lookup g (Bound.Key "a"));
    Alcotest.check lookup_testable "b absent in gap 0" (Absent { gap_version = 0 })
      (M.lookup g (Bound.Key "b"));
    Alcotest.(check int) "three gaps" 3 (List.length (M.gaps g))

  let test_figure4_insert_splits_gap () =
    (* Inserting "b" with version 1 splits gap (a,c); both halves keep 0. *)
    let g = fresh_abc () in
    M.insert g "b" 1 "vb";
    let gaps = M.gaps g in
    Alcotest.(check int) "four gaps" 4 (List.length gaps);
    List.iter
      (fun (_, _, v) -> Alcotest.(check int) "every gap still version 0" 0 v)
      gaps;
    Alcotest.check lookup_testable "b present" (Present { version = 1; value = "vb" })
      (M.lookup g (Bound.Key "b"))

  let test_figure5_coalesce_after_delete () =
    (* Deleting "b" coalesces (a, c) and bumps the gap to version 2 (one more
       than b's entry version 1). *)
    let g = fresh_abc () in
    M.insert g "b" 1 "vb";
    let removed = M.coalesce g ~lo:(Bound.Key "a") ~hi:(Bound.Key "c") 2 in
    Alcotest.(check int) "one entry removed" 1 removed;
    Alcotest.check lookup_testable "b now absent with gap version 2"
      (Absent { gap_version = 2 })
      (M.lookup g (Bound.Key "b"));
    Alcotest.(check int) "back to three gaps" 3 (List.length (M.gaps g))

  let test_coalesce_on_absent_rep () =
    (* Coalescing a range where the entry was never present (the other write
       quorum member in Figure 5) just re-versions the gap. *)
    let g = fresh_abc () in
    let removed = M.coalesce g ~lo:(Bound.Key "a") ~hi:(Bound.Key "c") 2 in
    Alcotest.(check int) "nothing removed" 0 removed;
    Alcotest.check lookup_testable "gap re-versioned" (Absent { gap_version = 2 })
      (M.lookup g (Bound.Key "b"))

  let test_update_in_place () =
    let g = fresh_abc () in
    M.insert g "a" 2 "va2";
    Alcotest.(check int) "size unchanged" 2 (M.size g);
    Alcotest.check lookup_testable "updated" (Present { version = 2; value = "va2" })
      (M.lookup g (Bound.Key "a"));
    Alcotest.(check int) "gap count unchanged" 3 (List.length (M.gaps g))

  let test_predecessor_of_entry () =
    let g = fresh_abc () in
    Alcotest.check neighbor_testable "pred of c is a"
      { key = Bound.Key "a"; entry_version = Some 1; gap_version = 0 }
      (M.predecessor g (Bound.Key "c"))

  let test_predecessor_of_absent_key () =
    let g = fresh_abc () in
    Alcotest.check neighbor_testable "pred of b is a"
      { key = Bound.Key "a"; entry_version = Some 1; gap_version = 0 }
      (M.predecessor g (Bound.Key "b"))

  let test_predecessor_of_first_entry_is_low () =
    let g = fresh_abc () in
    Alcotest.check neighbor_testable "pred of a is LOW"
      { key = Bound.Low; entry_version = None; gap_version = 0 }
      (M.predecessor g (Bound.Key "a"))

  let test_predecessor_of_high () =
    let g = fresh_abc () in
    Alcotest.check neighbor_testable "pred of HIGH is c"
      { key = Bound.Key "c"; entry_version = Some 1; gap_version = 0 }
      (M.predecessor g Bound.High)

  let test_predecessor_of_low_invalid () =
    let g = fresh_abc () in
    Alcotest.check_raises "pred of LOW" (Invalid_argument "Gapmap.predecessor: LOW")
      (fun () -> ignore (M.predecessor g Bound.Low))

  let test_successor_of_entry () =
    let g = fresh_abc () in
    Alcotest.check neighbor_testable "succ of a is c"
      { key = Bound.Key "c"; entry_version = Some 1; gap_version = 0 }
      (M.successor g (Bound.Key "a"))

  let test_successor_of_last_entry_is_high () =
    let g = fresh_abc () in
    Alcotest.check neighbor_testable "succ of c is HIGH"
      { key = Bound.High; entry_version = None; gap_version = 0 }
      (M.successor g (Bound.Key "c"))

  let test_successor_of_low () =
    let g = fresh_abc () in
    Alcotest.check neighbor_testable "succ of LOW is a"
      { key = Bound.Key "a"; entry_version = Some 1; gap_version = 0 }
      (M.successor g Bound.Low)

  let test_successor_of_high_invalid () =
    let g = fresh_abc () in
    Alcotest.check_raises "succ of HIGH" (Invalid_argument "Gapmap.successor: HIGH")
      (fun () -> ignore (M.successor g Bound.High))

  let test_successor_gap_version_distinguishes_sides () =
    (* Gap versions on the two sides of an entry can differ; successor must
       report the gap between the argument and the successor, not the gap
       after the successor. *)
    let g = M.create () in
    M.insert g "b" 1 "vb";
    M.insert g "d" 1 "vd";
    (* Coalesce (b, d) -> gap version 5 between b and d only. *)
    let _ = M.coalesce g ~lo:(Bound.Key "b") ~hi:(Bound.Key "d") 5 in
    Alcotest.check neighbor_testable "succ of c sees gap 5"
      { key = Bound.Key "d"; entry_version = Some 1; gap_version = 5 }
      (M.successor g (Bound.Key "c"));
    Alcotest.check neighbor_testable "succ of a sees gap 0"
      { key = Bound.Key "b"; entry_version = Some 1; gap_version = 0 }
      (M.successor g (Bound.Key "a"));
    Alcotest.check neighbor_testable "pred of e sees gap 0 after d"
      { key = Bound.Key "d"; entry_version = Some 1; gap_version = 0 }
      (M.predecessor g (Bound.Key "e"))

  let test_coalesce_missing_endpoint () =
    let g = fresh_abc () in
    (try
       ignore (M.coalesce g ~lo:(Bound.Key "a") ~hi:(Bound.Key "zz") 3);
       Alcotest.fail "expected Missing_endpoint"
     with Gapmap_intf.Missing_endpoint b ->
       Alcotest.(check string) "endpoint" "zz" (Bound.to_string b));
    try
      ignore (M.coalesce g ~lo:(Bound.Key "0") ~hi:(Bound.Key "c") 3);
      Alcotest.fail "expected Missing_endpoint"
    with Gapmap_intf.Missing_endpoint b ->
      Alcotest.(check string) "endpoint" "0" (Bound.to_string b)

  let test_coalesce_inverted_range () =
    let g = fresh_abc () in
    Alcotest.check_raises "lo >= hi" (Invalid_argument "Gapmap.coalesce: lo >= hi")
      (fun () -> ignore (M.coalesce g ~lo:(Bound.Key "c") ~hi:(Bound.Key "a") 3))

  let test_coalesce_full_range () =
    let g = fresh_abc () in
    M.insert g "b" 1 "vb";
    let removed = M.coalesce g ~lo:Bound.Low ~hi:Bound.High 9 in
    Alcotest.(check int) "all removed" 3 removed;
    Alcotest.(check int) "empty" 0 (M.size g);
    Alcotest.check lookup_testable "everything in gap 9" (Absent { gap_version = 9 })
      (M.lookup g (Bound.Key "m"))

  let test_count_strictly_between () =
    let g = M.create () in
    List.iter (fun k -> M.insert g k 1 k) [ "b"; "c"; "d"; "e" ];
    Alcotest.(check int) "open interval excludes endpoints" 2
      (M.count_strictly_between g ~lo:(Bound.Key "b") ~hi:(Bound.Key "e"));
    Alcotest.(check int) "full range" 4
      (M.count_strictly_between g ~lo:Bound.Low ~hi:Bound.High);
    Alcotest.(check int) "endpoints need not exist" 3
      (M.count_strictly_between g ~lo:(Bound.Key "bb") ~hi:(Bound.Key "zz"))

  let test_entries_sorted () =
    let g = M.create () in
    List.iter (fun k -> M.insert g k 1 k) [ "m"; "c"; "x"; "a"; "q" ];
    let keys = List.map (fun (k, _, _) -> k) (M.entries g) in
    Alcotest.(check (list string)) "ascending" [ "a"; "c"; "m"; "q"; "x" ] keys

  let test_gaps_partition () =
    let g = M.create () in
    List.iter (fun k -> M.insert g k 1 k) [ "d"; "b"; "f" ];
    let gaps = M.gaps g in
    Alcotest.(check int) "gap count = size + 1" 4 (List.length gaps);
    (* Gaps tile the space: each right bound is the next left bound. *)
    let rec check_tiling = function
      | (_, r1, _) :: ((l2, _, _) :: _ as rest) ->
          Alcotest.(check string) "tiling" (Bound.to_string r1) (Bound.to_string l2);
          check_tiling rest
      | [ (_, r, _) ] -> Alcotest.(check string) "ends at HIGH" "HIGH" (Bound.to_string r)
      | [] -> Alcotest.fail "no gaps"
    in
    check_tiling gaps

  let tests name =
    ( name,
      [
        Alcotest.test_case "empty map" `Quick test_empty;
        Alcotest.test_case "sentinels always present" `Quick test_sentinels_present;
        Alcotest.test_case "figure 1 layout" `Quick test_figure1_layout;
        Alcotest.test_case "figure 4: insert splits gap" `Quick test_figure4_insert_splits_gap;
        Alcotest.test_case "figure 5: coalesce after delete" `Quick
          test_figure5_coalesce_after_delete;
        Alcotest.test_case "coalesce with entry absent" `Quick test_coalesce_on_absent_rep;
        Alcotest.test_case "update in place" `Quick test_update_in_place;
        Alcotest.test_case "predecessor of entry" `Quick test_predecessor_of_entry;
        Alcotest.test_case "predecessor of absent key" `Quick test_predecessor_of_absent_key;
        Alcotest.test_case "predecessor of first entry" `Quick
          test_predecessor_of_first_entry_is_low;
        Alcotest.test_case "predecessor of HIGH" `Quick test_predecessor_of_high;
        Alcotest.test_case "predecessor of LOW rejected" `Quick test_predecessor_of_low_invalid;
        Alcotest.test_case "successor of entry" `Quick test_successor_of_entry;
        Alcotest.test_case "successor of last entry" `Quick test_successor_of_last_entry_is_high;
        Alcotest.test_case "successor of LOW" `Quick test_successor_of_low;
        Alcotest.test_case "successor of HIGH rejected" `Quick test_successor_of_high_invalid;
        Alcotest.test_case "gap version sides" `Quick
          test_successor_gap_version_distinguishes_sides;
        Alcotest.test_case "coalesce missing endpoint" `Quick test_coalesce_missing_endpoint;
        Alcotest.test_case "coalesce inverted range" `Quick test_coalesce_inverted_range;
        Alcotest.test_case "coalesce LOW..HIGH" `Quick test_coalesce_full_range;
        Alcotest.test_case "count strictly between" `Quick test_count_strictly_between;
        Alcotest.test_case "entries sorted" `Quick test_entries_sorted;
        Alcotest.test_case "gaps partition the key space" `Quick test_gaps_partition;
      ] )
end

module Ref_unit = Make_unit (G.Reference)
module Btree_unit = Make_unit (G.Btree)

(* --- model-based equivalence: Btree vs Reference --------------------------- *)

(* Interpret a seeded random program against both implementations and compare
   all observations. Small branching stresses splits/merges/borrows. *)
let run_model_program ~branching ~seed ~ops =
  let rng = Repdir_util.Rng.create (Int64.of_int seed) in
  let reference = G.Reference.create () in
  let btree = G.Btree.create_with ~branching () in
  let universe = Array.init 40 (fun i -> Key.of_int i) in
  let next_version = ref 1 in
  let random_bound () =
    match Repdir_util.Rng.int rng 12 with
    | 0 -> Bound.Low
    | 1 -> Bound.High
    | _ -> Bound.Key (Repdir_util.Rng.pick rng universe)
  in
  let compare_full_state step =
    let e_ref = G.Reference.entries reference and e_bt = G.Btree.entries btree in
    if e_ref <> e_bt then failwith (Printf.sprintf "entries diverge at step %d" step);
    let g_ref = G.Reference.gaps reference and g_bt = G.Btree.gaps btree in
    if g_ref <> g_bt then failwith (Printf.sprintf "gaps diverge at step %d" step);
    (match G.Btree.check_invariants btree with
    | Ok () -> ()
    | Error e -> failwith (Printf.sprintf "btree invariant broken at step %d: %s" step e));
    (* Probe queries across the whole bound space. *)
    Array.iter
      (fun k ->
        let b = Bound.Key k in
        if G.Reference.lookup reference b <> G.Btree.lookup btree b then
          failwith (Printf.sprintf "lookup %s diverges at step %d" k step);
        if G.Reference.predecessor reference b <> G.Btree.predecessor btree b then
          failwith (Printf.sprintf "predecessor %s diverges at step %d" k step);
        if G.Reference.successor reference b <> G.Btree.successor btree b then
          failwith (Printf.sprintf "successor %s diverges at step %d" k step))
      universe;
    (* Range views agree on a random interval. *)
    let a = Bound.Key (Repdir_util.Rng.pick rng universe)
    and b = Bound.Key (Repdir_util.Rng.pick rng universe) in
    let lo, hi = if Bound.compare a b <= 0 then (a, b) else (b, a) in
    if Bound.compare lo hi < 0 then begin
      if
        G.Reference.entries_between reference ~lo ~hi <> G.Btree.entries_between btree ~lo ~hi
      then failwith (Printf.sprintf "entries_between diverges at step %d" step);
      if
        G.Reference.count_strictly_between reference ~lo ~hi
        <> G.Btree.count_strictly_between btree ~lo ~hi
      then failwith (Printf.sprintf "count diverges at step %d" step)
    end;
    (* Digests (both forms) and split cuts agree on the whole key space and
       on a random range that may end at a sentinel: the B+tree answers them
       from cached subtree sums, the reference by folding its list. *)
    let x = random_bound () and y = random_bound () in
    let ranges =
      (Bound.Low, Bound.High)
      :: (match Bound.compare x y with
         | c when c < 0 -> [ (x, y) ]
         | c when c > 0 -> [ (y, x) ]
         | _ -> [])
    in
    List.iter
      (fun (lo, hi) ->
        List.iter
          (fun interior ->
            if
              G.Reference.digest_range ~interior reference ~lo ~hi
              <> G.Btree.digest_range ~interior btree ~lo ~hi
            then
              failwith
                (Format.asprintf "digest_range ~interior:%b (%a, %a] diverges at step %d" interior
                   Bound.pp lo Bound.pp hi step))
          [ false; true ];
        if
          G.Reference.split_range reference ~lo ~hi ~arity:4
          <> G.Btree.split_range btree ~lo ~hi ~arity:4
        then
          failwith
            (Format.asprintf "split_range (%a, %a] diverges at step %d" Bound.pp lo Bound.pp hi
               step))
      ranges
  in
  for step = 1 to ops do
    (match Repdir_util.Rng.int rng 6 with
    | 0 | 1 ->
        (* insert or update *)
        let k = Repdir_util.Rng.pick rng universe in
        let v = !next_version in
        incr next_version;
        G.Reference.insert reference k v k;
        G.Btree.insert btree k v k
    | 2 ->
        (* low-level removal (transaction-undo path) *)
        let k = Repdir_util.Rng.pick rng universe in
        let r1 = G.Reference.remove reference k in
        let r2 = G.Btree.remove btree k in
        if r1 <> r2 then failwith (Printf.sprintf "remove outcome diverges at %d" step)
    | 3 ->
        (* low-level gap re-versioning (undo/replay path) *)
        let bounds =
          Array.of_list
            (Bound.Low :: List.map (fun (k, _, _) -> Bound.Key k) (G.Reference.entries reference))
        in
        let b = Repdir_util.Rng.pick rng bounds in
        let v = !next_version in
        incr next_version;
        G.Reference.set_gap_after reference b v;
        G.Btree.set_gap_after btree b v
    | _ -> (
        (* coalesce over a valid random range *)
        let lo = random_bound () and hi = random_bound () in
        let lo, hi =
          if Bound.compare lo hi <= 0 then (lo, hi) else (hi, lo)
        in
        if Bound.compare lo hi < 0 then
          let valid b =
            match b with
            | Bound.Low | Bound.High -> true
            | Bound.Key k -> G.Reference.mem reference k
          in
          if valid lo && valid hi then begin
            let v = !next_version in
            incr next_version;
            let r1 = G.Reference.coalesce reference ~lo ~hi v in
            let r2 = G.Btree.coalesce btree ~lo ~hi v in
            if r1 <> r2 then failwith (Printf.sprintf "coalesce count diverges at %d" step)
          end));
    compare_full_state step
  done

let model_equivalence =
  QCheck.Test.make ~name:"btree equals reference on random programs" ~count:60
    QCheck.(pair (int_bound 100_000) (int_bound 4))
    (fun (seed, b) ->
      run_model_program ~branching:(4 + b) ~seed ~ops:120;
      true)

(* Long single-run soak with the default branching. *)
let test_model_soak () = run_model_program ~branching:32 ~seed:424_242 ~ops:600

(* --- B+tree structural stress ----------------------------------------------- *)

let test_btree_sequential_fill_and_drain () =
  let g = G.Btree.create_with ~branching:4 () in
  let n = 500 in
  for i = 0 to n - 1 do
    G.Btree.insert g (Key.of_int i) 1 "x";
    match G.Btree.check_invariants g with
    | Ok () -> ()
    | Error e -> Alcotest.failf "after insert %d: %s" i e
  done;
  Alcotest.(check int) "size" n (G.Btree.size g);
  (* Drain via coalesce of the full range. *)
  let removed = G.Btree.coalesce g ~lo:Bound.Low ~hi:Bound.High 2 in
  Alcotest.(check int) "all removed" n removed;
  Alcotest.(check int) "empty" 0 (G.Btree.size g);
  match G.Btree.check_invariants g with Ok () -> () | Error e -> Alcotest.fail e

let test_btree_reverse_fill () =
  let g = G.Btree.create_with ~branching:4 () in
  for i = 499 downto 0 do
    G.Btree.insert g (Key.of_int i) 1 "x"
  done;
  (match G.Btree.check_invariants g with Ok () -> () | Error e -> Alcotest.fail e);
  let keys = List.map (fun (k, _, _) -> k) (G.Btree.entries g) in
  Alcotest.(check int) "count" 500 (List.length keys);
  Alcotest.(check bool) "sorted" true
    (List.sort Key.compare keys = keys)

let test_btree_interleaved_coalesce () =
  let g = G.Btree.create_with ~branching:4 () in
  for i = 0 to 999 do
    G.Btree.insert g (Key.of_int i) 1 "x"
  done;
  (* Repeatedly coalesce random slices between surviving entries. *)
  let rng = Repdir_util.Rng.create 99L in
  for round = 1 to 60 do
    let entries = G.Btree.entries g in
    let n = List.length entries in
    if n >= 2 then begin
      let i = Repdir_util.Rng.int rng (n - 1) in
      let j = i + 1 + Repdir_util.Rng.int rng (min 20 (n - i - 1)) in
      let key_at idx = match List.nth_opt entries idx with
        | Some (k, _, _) -> Bound.Key k
        | None -> Bound.High
      in
      let lo = key_at i and hi = key_at j in
      if Bound.compare lo hi < 0 then
        ignore (G.Btree.coalesce g ~lo ~hi (round + 1));
      match G.Btree.check_invariants g with
      | Ok () -> ()
      | Error e -> Alcotest.failf "round %d: %s" round e
    end
  done

let test_btree_rejects_tiny_branching () =
  Alcotest.check_raises "branching < 4"
    (Invalid_argument "Btree.create_with: branching must be >= 4") (fun () ->
      ignore (G.Btree.create_with ~branching:3 ()))

let () =
  Alcotest.run "gapmap"
    [
      Ref_unit.tests "reference";
      Btree_unit.tests "btree";
      ( "model",
        [
          QCheck_alcotest.to_alcotest model_equivalence;
          Alcotest.test_case "soak 600 ops" `Slow test_model_soak;
        ] );
      ( "btree-stress",
        [
          Alcotest.test_case "sequential fill and drain" `Quick
            test_btree_sequential_fill_and_drain;
          Alcotest.test_case "reverse fill" `Quick test_btree_reverse_fill;
          Alcotest.test_case "interleaved coalesce" `Quick test_btree_interleaved_coalesce;
          Alcotest.test_case "rejects tiny branching" `Quick test_btree_rejects_tiny_branching;
        ] );
    ]
