(* Tests for the range lock manager: the Figure 7 compatibility matrix,
   FIFO fairness, grant-on-release, and waits-for deadlock detection. *)

open Repdir_key
open Repdir_lock

let iv a b = Bound.Interval.make (Bound.Key a) (Bound.Key b)
let full = Bound.Interval.full

let outcome_testable =
  let pp ppf = function
    | Lock_manager.Granted -> Format.pp_print_string ppf "Granted"
    | Lock_manager.Waiting -> Format.pp_print_string ppf "Waiting"
    | Lock_manager.Deadlock cycle ->
        Format.fprintf ppf "Deadlock[%a]"
          (Format.pp_print_list
             ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
             Format.pp_print_int)
          cycle
  in
  Alcotest.testable pp (fun a b ->
      match (a, b) with
      | Lock_manager.Granted, Lock_manager.Granted | Waiting, Waiting -> true
      | Deadlock _, Deadlock _ -> true
      | _ -> false)

let nop () = ()

let acquire ?(on_grant = nop) mgr txn mode range =
  Lock_manager.acquire mgr ~txn mode range ~on_grant

(* --- Figure 7 compatibility matrix ----------------------------------------- *)

let test_mode_matrix () =
  Alcotest.(check bool) "lookup/lookup" true (Mode.compatible Rep_lookup Rep_lookup);
  Alcotest.(check bool) "lookup/modify" false (Mode.compatible Rep_lookup Rep_modify);
  Alcotest.(check bool) "modify/lookup" false (Mode.compatible Rep_modify Rep_lookup);
  Alcotest.(check bool) "modify/modify" false (Mode.compatible Rep_modify Rep_modify)

let test_intersecting_lookups_compatible () =
  let m = Lock_manager.create () in
  Alcotest.check outcome_testable "t1 lookup" Granted (acquire m 1 Rep_lookup (iv "a" "m"));
  Alcotest.check outcome_testable "t2 lookup intersecting" Granted
    (acquire m 2 Rep_lookup (iv "g" "z"))

let test_intersecting_modify_conflicts () =
  let m = Lock_manager.create () in
  Alcotest.check outcome_testable "t1 modify" Granted (acquire m 1 Rep_modify (iv "a" "m"));
  Alcotest.check outcome_testable "t2 modify intersecting waits" Waiting
    (acquire m 2 Rep_modify (iv "g" "z"));
  Alcotest.check outcome_testable "t3 lookup intersecting waits" Waiting
    (acquire m 3 Rep_lookup (iv "a" "b"))

let test_disjoint_modify_compatible () =
  (* The heart of the paper's concurrency claim: modifications of disjoint
     ranges proceed in parallel. *)
  let m = Lock_manager.create () in
  Alcotest.check outcome_testable "t1" Granted (acquire m 1 Rep_modify (iv "a" "c"));
  Alcotest.check outcome_testable "t2 disjoint" Granted (acquire m 2 Rep_modify (iv "x" "z"));
  Alcotest.(check int) "both granted" 2 (Lock_manager.granted_count m)

let test_lookup_blocks_modify () =
  let m = Lock_manager.create () in
  Alcotest.check outcome_testable "t1 lookup" Granted (acquire m 1 Rep_lookup (iv "a" "m"));
  Alcotest.check outcome_testable "t2 modify waits" Waiting (acquire m 2 Rep_modify (iv "b" "c"))

let test_same_txn_reentrant () =
  let m = Lock_manager.create () in
  Alcotest.check outcome_testable "modify" Granted (acquire m 1 Rep_modify (iv "a" "m"));
  Alcotest.check outcome_testable "own lookup over same range" Granted
    (acquire m 1 Rep_lookup (iv "a" "m"));
  Alcotest.check outcome_testable "own second modify" Granted
    (acquire m 1 Rep_modify (iv "b" "c"))

(* Nested re-locking in the same mode adds no lock record while nothing is
   queued, and still protects the range; with a waiter queued the request
   takes the ordinary path. *)
let test_covered_relock () =
  let m = Lock_manager.create () in
  Alcotest.check outcome_testable "outer lookup" Granted (acquire m 1 Rep_lookup (iv "a" "z"));
  for _ = 1 to 3 do
    Alcotest.check outcome_testable "nested lookup" Granted (acquire m 1 Rep_lookup (iv "c" "d"))
  done;
  Alcotest.(check int) "one record" 1 (Lock_manager.granted_count m);
  Alcotest.check outcome_testable "other txn's modify inside waits" Waiting
    (acquire m 2 Rep_modify (iv "c" "c"));
  Alcotest.check outcome_testable "nested lookup behind a conflicting waiter" (Deadlock [])
    (acquire m 1 Rep_lookup (iv "c" "d"));
  Lock_manager.release_all m ~txn:1;
  Alcotest.(check int) "waiter granted on release" 1 (Lock_manager.granted_count m)

let test_point_ranges () =
  let m = Lock_manager.create () in
  Alcotest.check outcome_testable "t1 point" Granted
    (acquire m 1 Rep_modify (Bound.Interval.point (Bound.Key "k")));
  Alcotest.check outcome_testable "t2 same point waits" Waiting
    (acquire m 2 Rep_modify (Bound.Interval.point (Bound.Key "k")));
  Alcotest.check outcome_testable "t3 adjacent point ok" Granted
    (acquire m 3 Rep_modify (Bound.Interval.point (Bound.Key "l")))

(* --- release and FIFO ------------------------------------------------------- *)

let test_release_grants_waiter () =
  let m = Lock_manager.create () in
  let granted2 = ref false in
  ignore (acquire m 1 Rep_modify (iv "a" "m"));
  let o = Lock_manager.acquire m ~txn:2 Rep_modify (iv "b" "c") ~on_grant:(fun () -> granted2 := true) in
  Alcotest.check outcome_testable "waits" Waiting o;
  Lock_manager.release_all m ~txn:1;
  Alcotest.(check bool) "granted after release" true !granted2;
  Alcotest.(check int) "queue drained" 0 (Lock_manager.waiting_count m);
  Alcotest.(check (list (pair int int)))
    "t2 now holds one lock" [ (2, 1) ]
    (List.map (fun (_, _) -> (2, 1)) (Lock_manager.holds m ~txn:2))

let test_fifo_no_starvation () =
  (* A modify waiter must not be starved by later compatible lookups. *)
  let m = Lock_manager.create () in
  ignore (acquire m 1 Rep_lookup (iv "a" "m"));
  let o2 = acquire m 2 Rep_modify (iv "a" "m") in
  Alcotest.check outcome_testable "modify waits" Waiting o2;
  let o3 = acquire m 3 Rep_lookup (iv "a" "m") in
  Alcotest.check outcome_testable "later lookup queues behind waiting modify" Waiting o3

let test_fifo_grant_order () =
  let m = Lock_manager.create () in
  let order = ref [] in
  ignore (acquire m 1 Rep_modify full);
  ignore (Lock_manager.acquire m ~txn:2 Rep_modify full ~on_grant:(fun () -> order := 2 :: !order));
  ignore (Lock_manager.acquire m ~txn:3 Rep_modify full ~on_grant:(fun () -> order := 3 :: !order));
  Lock_manager.release_all m ~txn:1;
  Alcotest.(check (list int)) "only first waiter granted" [ 2 ] !order;
  Lock_manager.release_all m ~txn:2;
  Alcotest.(check (list int)) "then second" [ 3; 2 ] !order

let test_release_drops_own_waiters () =
  let m = Lock_manager.create () in
  ignore (acquire m 1 Rep_modify full);
  ignore (acquire m 2 Rep_modify full);
  Alcotest.(check int) "one waiter" 1 (Lock_manager.waiting_count m);
  (* t2 aborts while waiting. *)
  Lock_manager.release_all m ~txn:2;
  Alcotest.(check int) "queue empty" 0 (Lock_manager.waiting_count m);
  Lock_manager.release_all m ~txn:1;
  Alcotest.(check int) "nothing granted" 0 (Lock_manager.granted_count m)

let test_disjoint_waiters_both_granted_on_release () =
  let m = Lock_manager.create () in
  let got = ref [] in
  ignore (acquire m 1 Rep_modify full);
  ignore (Lock_manager.acquire m ~txn:2 Rep_modify (iv "a" "c") ~on_grant:(fun () -> got := 2 :: !got));
  ignore (Lock_manager.acquire m ~txn:3 Rep_modify (iv "x" "z") ~on_grant:(fun () -> got := 3 :: !got));
  Lock_manager.release_all m ~txn:1;
  Alcotest.(check (list int)) "both disjoint waiters granted" [ 3; 2 ] !got

let test_would_block () =
  let m = Lock_manager.create () in
  ignore (acquire m 1 Rep_modify (iv "a" "m"));
  Alcotest.(check bool) "conflicting would block" true
    (Lock_manager.would_block m ~txn:2 Rep_lookup (iv "b" "c"));
  Alcotest.(check bool) "disjoint would not" false
    (Lock_manager.would_block m ~txn:2 Rep_modify (iv "x" "z"));
  Alcotest.(check bool) "own would not" false
    (Lock_manager.would_block m ~txn:1 Rep_modify (iv "b" "c"));
  Alcotest.(check int) "would_block does not enqueue" 0 (Lock_manager.waiting_count m)

(* --- deadlock detection ------------------------------------------------------ *)

let test_two_txn_deadlock () =
  let m = Lock_manager.create () in
  ignore (acquire m 1 Rep_modify (iv "a" "c"));
  ignore (acquire m 2 Rep_modify (iv "x" "z"));
  (* 1 waits for 2 ... *)
  Alcotest.check outcome_testable "t1 waits" Waiting (acquire m 1 Rep_modify (iv "x" "y"));
  (* ... and 2 -> 1 closes the cycle. *)
  (match acquire m 2 Rep_modify (iv "b" "c") with
  | Deadlock cycle ->
      Alcotest.(check bool) "cycle mentions both" true
        (List.mem 1 cycle && List.mem 2 cycle)
  | Granted | Waiting -> Alcotest.fail "expected deadlock");
  (* The request was not queued; aborting t2 unblocks t1. *)
  Lock_manager.release_all m ~txn:2;
  Alcotest.(check int) "t1 unblocked" 0 (Lock_manager.waiting_count m)

let test_three_txn_deadlock () =
  let m = Lock_manager.create () in
  ignore (acquire m 1 Rep_modify (iv "a" "b"));
  ignore (acquire m 2 Rep_modify (iv "m" "n"));
  ignore (acquire m 3 Rep_modify (iv "x" "y"));
  Alcotest.check outcome_testable "1 waits for 2" Waiting (acquire m 1 Rep_modify (iv "m" "n"));
  Alcotest.check outcome_testable "2 waits for 3" Waiting (acquire m 2 Rep_modify (iv "x" "y"));
  match acquire m 3 Rep_modify (iv "a" "b") with
  | Deadlock cycle -> Alcotest.(check int) "cycle length 4 (back to requester)" 4 (List.length cycle)
  | Granted | Waiting -> Alcotest.fail "expected deadlock"

let test_upgrade_deadlock () =
  (* Two transactions both hold RepLookup on a range and both try to upgrade
     to RepModify: the classic conversion deadlock. *)
  let m = Lock_manager.create () in
  ignore (acquire m 1 Rep_lookup (iv "a" "m"));
  ignore (acquire m 2 Rep_lookup (iv "a" "m"));
  Alcotest.check outcome_testable "t1 upgrade waits" Waiting (acquire m 1 Rep_modify (iv "a" "m"));
  match acquire m 2 Rep_modify (iv "a" "m") with
  | Deadlock _ -> ()
  | Granted | Waiting -> Alcotest.fail "expected upgrade deadlock"

let test_no_false_deadlock () =
  let m = Lock_manager.create () in
  ignore (acquire m 1 Rep_modify (iv "a" "c"));
  ignore (acquire m 2 Rep_modify (iv "x" "z"));
  Alcotest.check outcome_testable "waiting, not deadlock" Waiting
    (acquire m 3 Rep_modify (iv "b" "y"))

(* --- termination: on_drop, reacquire, orphan cleanup -------------------------- *)

let test_on_drop_fires_for_terminated_waiter () =
  (* A waiting transaction is terminated (lease expiry, unilateral abort):
     releasing its locks must fire on_drop — not on_grant — exactly once,
     so the suspended op process can unwind with an abort. *)
  let m = Lock_manager.create () in
  let granted = ref 0 and dropped = ref 0 in
  ignore (acquire m 1 Rep_modify full);
  Alcotest.check outcome_testable "t2 waits" Waiting
    (Lock_manager.acquire m ~txn:2
       ~on_drop:(fun () -> incr dropped)
       Rep_modify full
       ~on_grant:(fun () -> incr granted));
  Lock_manager.release_all m ~txn:2;
  Alcotest.(check int) "on_drop fired" 1 !dropped;
  Alcotest.(check int) "on_grant never fired" 0 !granted;
  Alcotest.(check int) "queue empty" 0 (Lock_manager.waiting_count m);
  (* The holder's later release finds nothing to wake. *)
  Lock_manager.release_all m ~txn:1;
  Alcotest.(check int) "no grants" 1 !dropped;
  Alcotest.(check int) "no late on_grant" 0 !granted

let test_orphan_release_wakes_fifo_in_order () =
  (* The orphaned holder's release must grant the surviving waiters in FIFO
     order, skipping the waiter that was itself terminated. *)
  let m = Lock_manager.create () in
  let order = ref [] in
  let wait txn = ignore
    (Lock_manager.acquire m ~txn Rep_modify full
       ~on_drop:(fun () -> order := -txn :: !order)
       ~on_grant:(fun () -> order := txn :: !order))
  in
  ignore (acquire m 1 Rep_modify full);
  wait 2;
  wait 3;
  wait 4;
  (* t3 is terminated while waiting; then the orphaned holder t1 goes. *)
  Lock_manager.release_all m ~txn:3;
  Alcotest.(check (list int)) "t3 dropped, nobody granted yet" [ -3 ] !order;
  Lock_manager.release_all m ~txn:1;
  Alcotest.(check (list int)) "head of the queue granted" [ 2; -3 ] !order;
  Lock_manager.release_all m ~txn:2;
  Alcotest.(check (list int)) "then the next, in FIFO order" [ 4; 2; -3 ] !order;
  Lock_manager.release_all m ~txn:4;
  Alcotest.(check int) "all drained" 0 (Lock_manager.granted_count m)

let test_reacquire_restores_in_doubt_lock () =
  (* Crash recovery re-holds an in-doubt transaction's write ranges on a
     fresh manager: the restored lock must block conflicting requests until
     the termination protocol releases it. *)
  let m = Lock_manager.create () in
  Lock_manager.reacquire m ~txn:9 Rep_modify (iv "a" "m");
  Alcotest.(check int) "restored lock granted" 1 (Lock_manager.granted_count m);
  Alcotest.check outcome_testable "conflicting request blocks" Waiting
    (acquire m 2 Rep_modify (iv "b" "c"));
  Alcotest.check outcome_testable "disjoint request proceeds" Granted
    (acquire m 3 Rep_modify (iv "x" "z"));
  (* Resolution releases the in-doubt transaction; the waiter wakes. *)
  Lock_manager.release_all m ~txn:9;
  Alcotest.(check int) "waiter granted after resolution" 2 (Lock_manager.granted_count m);
  Alcotest.(check int) "queue empty" 0 (Lock_manager.waiting_count m)

let test_orphan_release_prunes_group_edges () =
  (* Two managers in one deadlock-detection group. t1 holds in A and waits
     in B; releasing t1 everywhere (its lease expired) must prune its
     cross-manager waits-for edges: a request that would have closed a
     cycle through t1 afterwards just waits. *)
  let g = Lock_manager.new_group () in
  let a = Lock_manager.create ~group:g () in
  let b = Lock_manager.create ~group:g () in
  ignore (acquire a 1 Rep_modify full);
  ignore (acquire b 2 Rep_modify full);
  Alcotest.check outcome_testable "t1 waits in B" Waiting (acquire b 1 Rep_modify full);
  (* Sanity: t2 -> t1 would close the cycle right now. *)
  (match acquire a 2 Rep_modify full with
  | Deadlock _ -> ()
  | Granted | Waiting -> Alcotest.fail "expected cross-manager deadlock");
  (* t1 is terminated: its locks and queued waits go away in both managers. *)
  Lock_manager.release_all a ~txn:1;
  Lock_manager.release_all b ~txn:1;
  (* The same request no longer sees a cycle — the edge was pruned. *)
  Alcotest.check outcome_testable "no stale edge after termination" Granted
    (acquire a 2 Rep_modify full);
  Lock_manager.release_all a ~txn:2;
  Lock_manager.release_all b ~txn:2;
  Alcotest.(check int) "A drained" 0 (Lock_manager.granted_count a + Lock_manager.waiting_count a);
  Alcotest.(check int) "B drained" 0 (Lock_manager.granted_count b + Lock_manager.waiting_count b)

(* Property: under any interleaving of acquires and terminations, every
   waiter gets exactly one of on_grant/on_drop, and releasing every
   transaction leaves the manager empty — no orphaned grant, no stuck
   waiter, no callback fired twice. *)
let qcheck_callbacks_exactly_once =
  let gen =
    QCheck.(
      list_of_size Gen.(int_range 1 20)
        (triple (int_range 1 5) bool (pair (int_bound 25) (int_bound 25))))
  in
  QCheck.Test.make ~name:"every waiter gets exactly one callback" ~count:500 gen
    (fun script ->
      let m = Lock_manager.create () in
      let granted = Hashtbl.create 16 and dropped = Hashtbl.create 16 in
      let bump tbl i =
        Hashtbl.replace tbl i (1 + Option.value ~default:0 (Hashtbl.find_opt tbl i))
      in
      let waiters = ref [] in
      List.iteri
        (fun i (txn, modify, (x, y)) ->
          let lo = min x y and hi = max x y in
          let range =
            iv (Printf.sprintf "%02d" lo) (Printf.sprintf "%02d" hi)
          in
          let mode = if modify then Mode.Rep_modify else Mode.Rep_lookup in
          match
            Lock_manager.acquire m ~txn mode range
              ~on_drop:(fun () -> bump dropped i)
              ~on_grant:(fun () -> bump granted i)
          with
          | Lock_manager.Waiting -> waiters := i :: !waiters
          | Granted | Deadlock _ -> ())
        script;
      (* Terminate every transaction, lowest id first (any order works). *)
      List.iter
        (fun txn -> Lock_manager.release_all m ~txn)
        [ 1; 2; 3; 4; 5 ];
      let ok_callbacks =
        List.for_all
          (fun i ->
            let g = Option.value ~default:0 (Hashtbl.find_opt granted i) in
            let d = Option.value ~default:0 (Hashtbl.find_opt dropped i) in
            g + d = 1)
          !waiters
      in
      ok_callbacks
      && Lock_manager.granted_count m = 0
      && Lock_manager.waiting_count m = 0)

let () =
  Alcotest.run "lock"
    [
      ( "matrix",
        [
          Alcotest.test_case "mode matrix" `Quick test_mode_matrix;
          Alcotest.test_case "intersecting lookups" `Quick test_intersecting_lookups_compatible;
          Alcotest.test_case "intersecting modify" `Quick test_intersecting_modify_conflicts;
          Alcotest.test_case "disjoint modify" `Quick test_disjoint_modify_compatible;
          Alcotest.test_case "lookup blocks modify" `Quick test_lookup_blocks_modify;
          Alcotest.test_case "same txn reentrant" `Quick test_same_txn_reentrant;
          Alcotest.test_case "point ranges" `Quick test_point_ranges;
          Alcotest.test_case "covered re-lock adds no record" `Quick test_covered_relock;
        ] );
      ( "queue",
        [
          Alcotest.test_case "release grants waiter" `Quick test_release_grants_waiter;
          Alcotest.test_case "no starvation" `Quick test_fifo_no_starvation;
          Alcotest.test_case "FIFO grant order" `Quick test_fifo_grant_order;
          Alcotest.test_case "abort drops waiters" `Quick test_release_drops_own_waiters;
          Alcotest.test_case "disjoint waiters granted together" `Quick
            test_disjoint_waiters_both_granted_on_release;
          Alcotest.test_case "would_block" `Quick test_would_block;
        ] );
      ( "deadlock",
        [
          Alcotest.test_case "two txn cycle" `Quick test_two_txn_deadlock;
          Alcotest.test_case "three txn cycle" `Quick test_three_txn_deadlock;
          Alcotest.test_case "upgrade deadlock" `Quick test_upgrade_deadlock;
          Alcotest.test_case "no false positive" `Quick test_no_false_deadlock;
        ] );
      ( "termination",
        [
          Alcotest.test_case "on_drop fires for terminated waiter" `Quick
            test_on_drop_fires_for_terminated_waiter;
          Alcotest.test_case "orphan release wakes FIFO in order" `Quick
            test_orphan_release_wakes_fifo_in_order;
          Alcotest.test_case "reacquire restores in-doubt lock" `Quick
            test_reacquire_restores_in_doubt_lock;
          Alcotest.test_case "orphan release prunes group edges" `Quick
            test_orphan_release_prunes_group_edges;
          QCheck_alcotest.to_alcotest qcheck_callbacks_exactly_once;
        ] );
    ]
