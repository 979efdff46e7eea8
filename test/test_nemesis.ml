(* Seeded regression scenarios for the nemesis fault-injection layer: the
   standard campaigns must run to completion with zero sequential-model
   violations, runs must be bit-reproducible from the seed, and asymmetric
   partitions must degrade exactly as the quorum arithmetic predicts. *)

open Repdir_sim
open Repdir_core
open Repdir_harness
module Config = Repdir_quorum.Config

(* --- standard campaigns ------------------------------------------------------------ *)

let check_campaign ~seed outcomes =
  Alcotest.(check int)
    (Printf.sprintf "seed %Ld: five plans" seed)
    5 (List.length outcomes);
  List.iter
    (fun o ->
      let label what = Printf.sprintf "seed %Ld, %s: %s" seed o.Nemesis.plan what in
      Alcotest.(check int) (label "zero violations") 0 o.Nemesis.violations;
      Alcotest.(check bool) (label "made progress") true (o.Nemesis.succeeded > 0);
      Alcotest.(check int) (label "full final sweep") 30 o.Nemesis.final_keys_checked;
      (* The termination protocol — not a power cycle — must account for
         every transaction: no lock manager holds residue at quiesce and
         nothing is left in doubt. *)
      Alcotest.(check int) (label "no orphaned locks") 0 o.Nemesis.orphan_locks;
      Alcotest.(check int) (label "no open in-doubt txns") 0 o.Nemesis.indoubt_open)
    outcomes

let test_standard_plans_no_violations () =
  check_campaign ~seed:42L (Nemesis.run_all ~seed:42L ())

let test_more_seeds () =
  (* Seeds that historically exposed real holes: lost unforced log suffixes
     slipping past the prepare vote (1, 7) and a mid-transaction restart
     re-executing an op against an amnesiac representative (1983). *)
  let repaired = ref 0 in
  List.iter
    (fun seed ->
      let outcomes = Nemesis.run_all ~seed () in
      check_campaign ~seed outcomes;
      List.iter (fun o -> repaired := !repaired + o.Nemesis.wal_records_repaired) outcomes)
    [ 1L; 7L; 1983L ];
  Alcotest.(check bool) "torn-WAL campaigns scrubbed records" true (!repaired > 0)

let test_bit_reproducible () =
  let run () = Nemesis.run_all ~seed:9L ~duration:600.0 () in
  let a = run () and b = run () in
  (* Structural equality over the whole outcome record — including the
     simulator event count, which fingerprints the entire execution. *)
  Alcotest.(check bool) "identical outcome records" true (a = b);
  List.iter
    (fun o -> Alcotest.(check int) (o.Nemesis.plan ^ ": no violations") 0 o.Nemesis.violations)
    a

let test_coordinator_crash_resolves_everything () =
  (* Regression seeds for the prepare/decide window: the client (who is the
     coordinator) is repeatedly cut off from every representative for short
     windows, stranding participants mid-protocol — some prepared (in
     doubt), some not (lease-expired). With NO power cycle, every stranded
     transaction must terminate on its own: zero model violations, every
     lock manager drained, nothing left in doubt. *)
  let stranded = ref 0 in
  List.iter
    (fun seed ->
      let o =
        Nemesis.run_plan ~seed
          (Nemesis.coordinator_crash ~n:3 ~duration:1000.0 ~seed)
      in
      let label what = Printf.sprintf "seed %Ld: %s" seed what in
      Alcotest.(check int) (label "zero violations") 0 o.Nemesis.violations;
      Alcotest.(check bool) (label "made progress") true (o.Nemesis.succeeded > 0);
      Alcotest.(check int) (label "no orphaned locks") 0 o.Nemesis.orphan_locks;
      Alcotest.(check int) (label "no open in-doubt txns") 0 o.Nemesis.indoubt_open;
      stranded :=
        !stranded + o.Nemesis.leases_expired + o.Nemesis.indoubt_by_coordinator
        + o.Nemesis.indoubt_by_peer + o.Nemesis.indoubt_recovered)
    [ 42L; 7L; 1983L ];
  (* The campaign must actually exercise the termination machinery — a run
     that never strands a transaction proves nothing. *)
  Alcotest.(check bool) "campaign stranded transactions" true (!stranded > 0)

let test_plans_are_pure_functions_of_seed () =
  let p1 = Nemesis.crash_storm ~n:3 ~duration:500.0 ~seed:13L in
  let p2 = Nemesis.crash_storm ~n:3 ~duration:500.0 ~seed:13L in
  let p3 = Nemesis.crash_storm ~n:3 ~duration:500.0 ~seed:14L in
  Alcotest.(check bool) "same seed, same plan" true (p1 = p2);
  Alcotest.(check bool) "different seed, different plan" false (p1 = p3)

(* --- asymmetric partition ----------------------------------------------------------- *)

(* A 3-1-3 suite with the client cut off from one representative: every read
   quorum (one representative) is still collectible, but no write quorum
   (all three) is. Reads must keep working, writes must fail cleanly, and
   healing must reveal no split-brain — the failed writes left no trace. *)
let test_asymmetric_partition () =
  let config = Config.simple ~n:3 ~r:1 ~w:3 in
  let world =
    Shard_world.create ~seed:5L ~rpc_timeout:10.0 ~two_phase:true ~config ~groups:1 ()
  in
  let sim = Shard_world.sim world in
  let net = Shard_world.net world in
  let suite = Shard_world.suite_for_client world 0 in
  let client = 3 (* the client node follows the representatives *) in
  let expect_value label expected =
    match Suite.lookup suite "k" with
    | Some (_, v) -> Alcotest.(check string) label expected v
    | None -> Alcotest.fail (label ^ ": entry missing")
  in
  Sim.spawn sim (fun () ->
      (match Suite.insert suite "k" "v0" with
      | Ok () -> ()
      | Error `Already_present -> Alcotest.fail "fresh key already present");
      Net.set_link net client 2 false;
      (* Reads: a single-representative quorum avoids (or excludes after a
         timeout) the unreachable one. *)
      expect_value "read during partition" "v0";
      (match Suite.update suite "k" "v1" with
      | exception Suite.Unavailable _ -> ()
      | Ok () -> Alcotest.fail "write succeeded without a write quorum"
      | Error `Not_present -> Alcotest.fail "entry vanished");
      Net.set_link net client 2 true;
      (* The aborted write left no trace at any representative. *)
      expect_value "no split-brain after heal" "v0";
      (match Suite.update suite "k" "v2" with
      | Ok () -> ()
      | Error `Not_present -> Alcotest.fail "entry vanished after heal"
      | exception Suite.Unavailable msg -> Alcotest.fail ("write after heal: " ^ msg));
      expect_value "write quorum restored" "v2");
  Sim.run sim

let () =
  Alcotest.run "nemesis"
    [
      ( "campaigns",
        [
          Alcotest.test_case "standard plans, zero violations" `Quick
            test_standard_plans_no_violations;
          Alcotest.test_case "regression seeds" `Quick test_more_seeds;
          Alcotest.test_case "bit-reproducible" `Quick test_bit_reproducible;
          Alcotest.test_case "coordinator crash resolves everything" `Quick
            test_coordinator_crash_resolves_everything;
          Alcotest.test_case "plans are pure functions of seed" `Quick
            test_plans_are_pure_functions_of_seed;
        ] );
      ( "partitions",
        [ Alcotest.test_case "asymmetric client partition" `Quick test_asymmetric_partition ] );
    ]
