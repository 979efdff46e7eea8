(* Tests for fuzzy checkpoints: a crash that tears, corrupts or loses the
   checkpoint image before its force, a soak that holds every
   representative's log within the cadence bound, and a randomized
   property that recovery with a checkpoint agrees with recovery
   without one. *)

open Repdir_key
open Repdir_txn
open Repdir_rep
open Repdir_core
module Sim = Repdir_sim.Sim
module Rng = Repdir_util.Rng
module Gi = Repdir_gapmap.Gapmap_intf

(* What recovery must reproduce, for the transactions [ids]. *)
let observe r ids =
  ( (Rep.epoch r, Rep.shard_epoch r),
    Rep.root_digest r,
    Rep.entries r,
    Rep.gaps r,
    List.map (Rep.outcome_of r) ids,
    Rep.in_doubt_txns r )

let refuses_prepare r txn =
  match Rep.prepare r ~txn ~coord:9 with () -> false | exception Txn.Abort _ -> true

(* --- torn checkpoint ------------------------------------------------------------ *)

(* A representative on its own simulator with a group-commit window, so a
   force — the checkpoint's included — waits [window] before it syncs and a
   crash can land in between. *)
let window = 5.0

let sim_rep () =
  let sim = Sim.create () in
  let timers =
    { Rep.now = (fun () -> Sim.now sim); after = (fun d k -> Sim.spawn sim ~at:(Sim.now sim +. d) k) }
  in
  let r =
    Rep.create ~waiter:(fun register -> Sim.suspend sim register) ~timers ~group_commit:window
      ~name:"r" ()
  in
  (sim, r)

let run_in sim f =
  Sim.spawn sim f;
  Sim.run ~until:(Sim.now sim +. (4.0 *. window)) sim

(* Committed entries, an aborted transaction, an in-doubt one restored by
   recovery (4), one lost in that crash (5), and then — after recovery — an
   active one (2) and a prepared one (3). *)
let scenario (sim, r) =
  run_in sim (fun () ->
      List.iter (fun k -> Rep.insert r ~txn:1 k 1 ("v" ^ k)) [ "a"; "b"; "c" ];
      Rep.commit r ~txn:1;
      Rep.insert r ~txn:4 "f" 1 "vf";
      Rep.prepare r ~txn:4 ~coord:9;
      Rep.insert r ~txn:5 "g" 1 "vg");
  Rep.crash r;
  Rep.recover r;
  run_in sim (fun () ->
      Rep.insert r ~txn:6 "h" 1 "vh";
      Rep.abort r ~txn:6;
      ignore (Rep.coalesce r ~txn:2 ~lo:(Bound.Key "a") ~hi:(Bound.Key "c") 2 : int);
      Rep.insert r ~txn:3 "e" 1 "ve";
      Rep.prepare r ~txn:3 ~coord:9)

let ids = [ 1; 2; 3; 4; 5; 6 ]

let torn_checkpoint fault () =
  let ((sim, a) as world) = sim_rep () in
  scenario world;
  let ((_, b) as twin) = sim_rep () in
  scenario twin;
  (* The checkpoint appends its image and waits out the group window. *)
  Sim.spawn sim (fun () -> try Rep.checkpoint a with Rep.Crashed _ -> ());
  Sim.run ~until:(Sim.now sim +. (window /. 2.0)) sim;
  Alcotest.(check int) "the image is the unsynced tail" 1 (Rep.wal_unsynced a);
  Rep.crash a;
  Option.iter (Rep.inject_storage_fault a) fault;
  Rep.recover a;
  Rep.crash b;
  Rep.recover b;
  Alcotest.(check int) "no checkpoint completed" 0 (Rep.counters a).checkpoints;
  Alcotest.(check bool) "state as without the checkpoint" true (observe a ids = observe b ids);
  Alcotest.(check (list int)) "in doubt" [ 3; 4 ] (Rep.in_doubt_txns a);
  List.iter
    (fun txn ->
      Alcotest.(check bool)
        (Printf.sprintf "txn %d lost in a crash is refused" txn)
        true (refuses_prepare a txn))
    [ 2; 5 ];
  (* The abandoned force wakes into a later incarnation and does nothing. *)
  Sim.run ~until:(Sim.now sim +. (4.0 *. window)) sim;
  Alcotest.(check int) "still none" 0 (Rep.counters a).checkpoints

let test_completed_checkpoint () =
  (* The same scenario with the force completed: the log is truncated to
     the image plus the pending transactions' records, and recovery still
     agrees with the twin that never checkpointed. *)
  let ((sim, a) as world) = sim_rep () in
  scenario world;
  let ((_, b) as twin) = sim_rep () in
  scenario twin;
  let before = Rep.wal_length a in
  run_in sim (fun () -> Rep.checkpoint a);
  Alcotest.(check int) "completed" 1 (Rep.counters a).checkpoints;
  Alcotest.(check bool) "truncated" true (Rep.wal_length a < before);
  run_in sim (fun () ->
      Rep.commit a ~txn:3;
      Rep.commit a ~txn:4);
  run_in (fst twin) (fun () ->
      Rep.commit b ~txn:3;
      Rep.commit b ~txn:4);
  Rep.crash a;
  Rep.recover a;
  Rep.crash b;
  Rep.recover b;
  Alcotest.(check bool) "state as without the checkpoint" true (observe a ids = observe b ids);
  Alcotest.(check bool) "carried effects replayed" true
    (List.mem "e" (List.map (fun (k, _, _) -> k) (Rep.entries a))
    && List.mem "f" (List.map (fun (k, _, _) -> k) (Rep.entries a)))

(* --- checkpoints inside a group-commit window ---------------------------------------- *)

let keys r = List.map (fun (k, _, _) -> k) (Rep.entries r)

let commit_survives ~label r txn key =
  Rep.crash r;
  Rep.recover r;
  Alcotest.(check bool) (label ^ ": effects survive") true (List.mem key (keys r));
  Alcotest.(check bool) (label ^ ": outcome survives") true (Rep.outcome_of r txn = `Committed)

let test_commit_in_window () =
  (* Txn 1's commit has logged its Commit record and waits out the group
     window with its undo list still held; meanwhile txn 2's abort crosses
     the cadence and checkpoints. The image holds txn 1's effects and its
     undo list, so recovery rolls them out and must redo txn 1's carried
     records. *)
  let sim, r = sim_rep () in
  run_in sim (fun () -> Rep.insert r ~txn:1 "a" 1 "va");
  Sim.spawn sim (fun () -> Rep.commit r ~txn:1);
  Sim.spawn sim (fun () ->
      for i = 1 to 1100 do
        Rep.insert r ~txn:2 (Printf.sprintf "c%04d" i) 1 ""
      done;
      Rep.abort r ~txn:2);
  Sim.run ~until:(Sim.now sim +. (4.0 *. window)) sim;
  Alcotest.(check int) "the abort checkpointed" 1 (Rep.counters r).checkpoints;
  commit_survives ~label:"before the crash" r 1 "a";
  (* The same holds when the image was never truncated behind: the carried
     set filters replay below it too. *)
  commit_survives ~label:"after a second crash" r 1 "a"

let test_indoubt_commit_in_window () =
  (* Txn 1 is restored in doubt by recovery, so its effects are withheld
     from the map. Its commit logs the Commit record, then waits out the
     window before applying its redo records; a checkpoint in between holds
     neither its effects nor its undo list, and must carry its records. *)
  let sim, r = sim_rep () in
  run_in sim (fun () ->
      Rep.insert r ~txn:1 "f" 1 "vf";
      Rep.prepare r ~txn:1 ~coord:9);
  Rep.crash r;
  Rep.recover r;
  Sim.spawn sim (fun () -> Rep.commit r ~txn:1);
  Sim.spawn sim (fun () -> Rep.checkpoint r);
  Sim.run ~until:(Sim.now sim +. (4.0 *. window)) sim;
  Alcotest.(check int) "checkpointed" 1 (Rep.counters r).checkpoints;
  Alcotest.(check (list string)) "committed live" [ "f" ] (keys r);
  commit_survives ~label:"recovered" r 1 "f"

(* --- soak ----------------------------------------------------------------------- *)

(* 20k operations at about 500 live entries on Transport.local. Notices are
   flushed after each operation, so every transaction has ended at every
   representative and no records are carried: each log holds the last
   checkpoint plus at most the cadence bound. *)
let test_soak () =
  let reps = Array.init 3 (fun i -> Rep.create ~name:(Printf.sprintf "rep%d" i) ()) in
  let suite =
    Suite.create ~seed:11L ~two_phase:true ~batching:true
      ~config:(Repdir_quorum.Config.simple ~n:3 ~r:2 ~w:2)
      ~transport:(Transport.local reps) ~txns:(Txn.Manager.create ()) ()
  in
  let rng = Rng.create 5L in
  let key i = Printf.sprintf "k%04d" i in
  for i = 0 to 499 do
    ignore (Suite.insert suite (key (2 * i)) "v")
  done;
  for n = 1 to 20_000 do
    let k = key (Rng.int rng 1000) in
    (match Rng.int rng 4 with
    | 0 -> ignore (Suite.insert suite k (string_of_int n))
    | 1 -> ignore (Suite.delete suite k)
    | 2 -> ignore (Suite.update suite k (string_of_int n))
    | _ -> ignore (Suite.lookup suite k));
    Suite.flush_notices suite;
    Array.iter
      (fun r ->
        let bound = (2 * Rep.size r) + 1024 + 1 in
        if Rep.wal_length r > bound then
          Alcotest.failf "op %d: %s holds %d records, bound %d" n (Rep.name r) (Rep.wal_length r)
            bound)
      reps
  done;
  Array.iter
    (fun r ->
      Alcotest.(check bool) (Rep.name r ^ " checkpointed") true ((Rep.counters r).checkpoints > 0);
      let before = Rep.root_digest r in
      Rep.crash r;
      Rep.recover r;
      Alcotest.(check bool) (Rep.name r ^ " recovers its state") true (Rep.root_digest r = before))
    reps

(* --- recovery equivalence --------------------------------------------------------- *)

(* Timers on a manual clock: callbacks run when the test advances it. *)
type clock = { mutable now : float; mutable queue : (float * int * (unit -> unit)) list; mutable seq : int }

let timers_of c =
  {
    Rep.now = (fun () -> c.now);
    after =
      (fun d k ->
        c.seq <- c.seq + 1;
        c.queue <- List.merge compare c.queue [ (c.now +. d, c.seq, k) ]);
  }

let rec advance c until =
  match c.queue with
  | (at, _, k) :: rest when at <= until ->
      c.queue <- rest;
      c.now <- Float.max c.now at;
      k ();
      advance c until
  | _ -> c.now <- until

exception Blocked

let lease = 40.0

let eq_rep () =
  let c = { now = 0.0; queue = []; seq = 0 } in
  (c, Rep.create ~waiter:(fun _ -> raise Blocked) ~timers:(timers_of c) ~lease ~name:"r" ())

(* Transactions work in one of four key bands, bracketed by committed
   boundary entries, and a band takes a new transaction only once its last
   one can hold no locks: transactions never wait on each other. *)
let bands = 4
let lo_key b = Printf.sprintf "%d/" b
let hi_key b = Printf.sprintf "%d~" b
let band_key b i = Printf.sprintf "%d/%d" b i

let equivalence_case seed =
  let rng = Rng.create (Int64.of_int seed) in
  let ca, a = eq_rep () and cb, b = eq_rep () in
  let both f =
    let ra = try Ok (f a) with e -> Error (Printexc.to_string e) in
    let rb = try Ok (f b) with e -> Error (Printexc.to_string e) in
    if ra <> rb then failwith "a call answered differently with a checkpoint";
    ra
  in
  let version = ref 1 in
  let next_version () =
    incr version;
    !version
  in
  ignore
    (both (fun r ->
         for band = 0 to bands - 1 do
           Rep.insert r ~txn:1 (lo_key band) 1 "";
           Rep.insert r ~txn:1 (hi_key band) 1 ""
         done;
         Rep.commit r ~txn:1));
  let next_txn = ref 1 in
  (* band -> (txn, incarnation it started in) *)
  let owner = Array.make bands None in
  let seen = ref [ 1 ] in
  let may_hold_locks (txn, inc) =
    Rep.outcome_of a txn = `Unknown
    && (List.mem txn (Rep.in_doubt_txns a) || Rep.incarnation a = inc)
  in
  let txn_for band =
    match owner.(band) with
    | Some ((txn, _) as o) when may_hold_locks o -> txn
    | _ ->
        incr next_txn;
        owner.(band) <- Some (!next_txn, Rep.incarnation a);
        seen := !next_txn :: !seen;
        !next_txn
  in
  let band_keys r band =
    List.filter_map
      (fun (k, _, _) -> if k.[0] = Char.chr (Char.code '0' + band) then Some k else None)
      (Rep.entries r)
  in
  (* Crash both with the same storage fault, recover, and compare. The
     checkpoint forced [a]'s log, so the fault is clamped to [a]'s unsynced
     tail, which is also the tail of [b]'s. A transaction that may no
     longer hold locks and has no outcome was lost in a crash: both must
     refuse to prepare it. *)
  let crash_and_compare () =
    let unsynced = Rep.wal_unsynced a in
    Rep.crash a;
    Rep.crash b;
    let fault =
      match Rng.int rng 4 with
      | 0 -> Some (Wal.Truncate_tail (min unsynced (Rng.int rng 4)))
      | 1 when unsynced > 0 -> Some Wal.Tear_tail
      | 2 when unsynced > 0 -> Some Wal.Corrupt_tail
      | _ -> None
    in
    Option.iter
      (fun f ->
        Rep.inject_storage_fault a f;
        Rep.inject_storage_fault b f)
      fault;
    Rep.recover a;
    Rep.recover b;
    if observe a !seen <> observe b !seen then failwith "recovery diverged with a checkpoint";
    Array.iter
      (function
        | Some (txn, inc) when not (may_hold_locks (txn, inc)) ->
            if refuses_prepare a txn <> refuses_prepare b txn then
              failwith "a crash-lost transaction's prepare answered differently"
        | Some _ | None -> ())
      owner
  in
  for _ = 1 to 60 do
    let band = Rng.int rng bands in
    let ignore_r (_ : (_, string) result) = () in
    match Rng.int rng 14 with
    | 0 | 1 | 2 ->
        let txn = txn_for band in
        let k = band_key band (Rng.int rng 10) and v = next_version () in
        ignore_r (both (fun r -> Rep.insert r ~txn k v (string_of_int v)))
    | 3 ->
        (* Both maps are equal here, so [a]'s entries pick the range. *)
        let txn = txn_for band in
        let keys = Array.of_list (band_keys a band) in
        let i = Rng.int rng (Array.length keys - 1) in
        let j = i + 1 + Rng.int rng (Array.length keys - i - 1) in
        let v = next_version () in
        ignore_r
          (both (fun r -> Rep.coalesce r ~txn ~lo:(Bound.Key keys.(i)) ~hi:(Bound.Key keys.(j)) v))
    | 4 ->
        let txn = txn_for band in
        let v = next_version () in
        let items =
          List.sort_uniq compare (List.init (1 + Rng.int rng 3) (fun _ -> band_key band (Rng.int rng 10)))
          |> List.map (fun k -> (k, v, "s" ^ k, v))
        in
        let tr =
          {
            Gi.t_lo = Bound.Key (lo_key band);
            t_hi = Bound.Key (hi_key band);
            t_low_gap = v;
            t_items = items;
            t_hi_state = Gi.Hi_sentinel;
          }
        in
        ignore_r (both (fun r -> ignore (Rep.apply_range r ~txn tr : Gi.applied)))
    | 5 -> (
        match owner.(band) with
        | Some (txn, _) -> ignore_r (both (fun r -> Rep.prepare r ~txn ~coord:9))
        | None -> ())
    | 6 | 7 -> (
        match owner.(band) with
        | Some (txn, _) -> ignore_r (both (fun r -> Rep.commit r ~txn))
        | None -> ())
    | 8 -> (
        match owner.(band) with
        | Some (txn, _) -> ignore_r (both (fun r -> Rep.abort r ~txn))
        | None -> ())
    | 9 ->
        let dt = Rng.float rng (1.5 *. lease) in
        advance ca (ca.now +. dt);
        advance cb (cb.now +. dt);
        if Rep.entries a <> Rep.entries b || Rep.gaps a <> Rep.gaps b then
          failwith "lease expiry diverged"
    | 10 ->
        let e = Rep.epoch a + 1 + Rng.int rng 2 in
        ignore_r (both (fun r -> Rep.install_epoch r ~epoch:e ~record:(string_of_int e)))
    | 11 | 12 -> Rep.checkpoint a
    | _ -> crash_and_compare ()
  done;
  crash_and_compare ();
  true

let recovery_equivalence =
  QCheck.Test.make ~name:"recovery with a checkpoint equals recovery without" ~count:500
    QCheck.(int_bound 1_000_000)
    equivalence_case

let () =
  Alcotest.run "checkpoint"
    [
      ( "torn checkpoint",
        [
          Alcotest.test_case "torn image" `Quick (torn_checkpoint (Some Wal.Tear_tail));
          Alcotest.test_case "corrupt image" `Quick (torn_checkpoint (Some Wal.Corrupt_tail));
          Alcotest.test_case "lost image" `Quick (torn_checkpoint (Some (Wal.Truncate_tail 1)));
          Alcotest.test_case "intact unforced image" `Quick (torn_checkpoint None);
          Alcotest.test_case "completed checkpoint" `Quick test_completed_checkpoint;
        ] );
      ( "group-commit window",
        [
          Alcotest.test_case "commit waiting for its force" `Quick test_commit_in_window;
          Alcotest.test_case "in-doubt commit waiting for its force" `Quick
            test_indoubt_commit_in_window;
        ] );
      ("soak", [ Alcotest.test_case "20k ops, bounded logs" `Slow test_soak ]);
      ("property", [ QCheck_alcotest.to_alcotest recovery_equivalence ]);
    ]
