open Repdir_util
open Repdir_key
open Repdir_sim
open Repdir_core
module Wal = Repdir_txn.Wal
module Rep = Repdir_rep.Rep
module Member = Repdir_member.Member
module Sync = Repdir_sync.Sync
module Config = Repdir_quorum.Config
module Picker = Repdir_quorum.Picker
module Shard_map = Repdir_shard.Shard_map
module Router = Repdir_shard.Router

(* --- fault-plan DSL ---------------------------------------------------------------- *)

type action =
  | Crash of int
  | Recover of int
  | Torn_crash of int * Wal.storage_fault
  | Partition of int list * int list
  | Heal
  | Flaky of Net.faults
  | Flaky_link of int * int * Net.faults
  | Steady
  | Clock_skew of int * float * float
      (* rep, offset, rate: its virtual clock reads offset + rate * now;
         (0, 1) restores the true clock *)
  | Disk_full of int * Wal.io_fault option
      (* arm (Some fault) or heal (None) the rep's WAL write failure *)
  | Slow of int * float
      (* gray failure: every link touching the rep multiplies its latency by
         the factor — the node stays up and answers everything, just late *)

type step = { at : float; action : action }

type plan = { plan_name : string; duration : float; steps : step list }

let pp_action ppf = function
  | Crash i -> Format.fprintf ppf "crash rep%d" i
  | Recover i -> Format.fprintf ppf "recover rep%d" i
  | Torn_crash (i, f) ->
      Format.fprintf ppf "crash rep%d with %a" i Wal.pp_storage_fault f
  | Partition (a, b) ->
      let side ppf g =
        Format.pp_print_list
          ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ',')
          Format.pp_print_int ppf g
      in
      Format.fprintf ppf "partition {%a} | {%a}" side a side b
  | Heal -> Format.pp_print_string ppf "heal partitions"
  | Flaky _ -> Format.pp_print_string ppf "flaky links (all)"
  | Flaky_link (a, b, _) -> Format.fprintf ppf "flaky link %d-%d" a b
  | Steady -> Format.pp_print_string ppf "steady network"
  | Clock_skew (i, 0.0, 1.0) -> Format.fprintf ppf "restore rep%d clock" i
  | Clock_skew (i, offset, rate) ->
      Format.fprintf ppf "skew rep%d clock (offset %+.1f, rate %.2fx)" i offset rate
  | Disk_full (i, Some f) -> Format.fprintf ppf "arm %a at rep%d" Wal.pp_io_fault f i
  | Disk_full (i, None) -> Format.fprintf ppf "heal disk at rep%d" i
  | Slow (i, factor) -> Format.fprintf ppf "slow rep%d (%.0fx latency)" i factor

(* --- standard plans ----------------------------------------------------------------- *)

(* Builders draw every choice from a generator seeded by the caller, so a
   plan is a pure function of (seed, n, duration) and runs replay exactly. *)

let crash_storm ~n ~duration ~seed =
  let rng = Rng.create seed in
  let steps = ref [] in
  let t = ref 30.0 in
  while !t < duration -. 60.0 do
    (* A wave: each representative independently crashes with probability
       0.45, staggered a little; everyone recovers before the next wave. *)
    let hold = 20.0 +. Rng.float rng 20.0 in
    for i = 0 to n - 1 do
      if Rng.float rng 1.0 < 0.45 then begin
        let jitter = Rng.float rng 4.0 in
        steps := { at = !t +. jitter; action = Crash i } :: !steps;
        steps := { at = !t +. hold +. Rng.float rng 6.0; action = Recover i } :: !steps
      end
    done;
    t := !t +. hold +. 25.0 +. Rng.float rng 20.0
  done;
  { plan_name = "crash storm"; duration; steps = List.rev !steps }

let rolling_partition ~n ~duration ~seed =
  let rng = Rng.create seed in
  let client = n (* the single client sits on the node after the reps *) in
  let steps = ref [] in
  let t = ref 25.0 in
  let cycle = ref 0 in
  while !t < duration -. 50.0 do
    let window = 25.0 +. Rng.float rng 20.0 in
    let i = !cycle mod n in
    let rest = List.filter (fun j -> j <> i) (List.init n Fun.id) in
    (* Usually isolate one representative from everyone (client included) —
       the suite must keep going on the remaining quorum. Every third cycle,
       trap the client alone with that representative instead: no quorum is
       reachable, every operation must fail cleanly, and healing must leave
       no split-brain. *)
    let groups =
      if !cycle mod 3 = 2 then ([ client; i ], rest) else ([ i ], client :: rest)
    in
    steps := { at = !t; action = Partition (fst groups, snd groups) } :: !steps;
    steps := { at = !t +. window; action = Heal } :: !steps;
    incr cycle;
    t := !t +. window +. 10.0 +. Rng.float rng 10.0
  done;
  { plan_name = "rolling partition"; duration; steps = List.rev !steps }

let flaky_links ~n ~duration ~seed =
  let rng = Rng.create seed in
  let gremlin =
    {
      Net.drop = 0.05;
      duplicate = 0.12;
      reorder = 0.25;
      reorder_delay = 10.0;
      spike = 0.05;
      spike_factor = 4.0;
    }
  in
  let client = n (* the single client sits on the node after the reps *) in
  let steps = ref [] in
  let t = ref 20.0 in
  let phase = ref 0 in
  while !t < duration -. 40.0 do
    let window = 40.0 +. Rng.float rng 20.0 in
    (* Alternate network-wide gremlins with a single very lossy client
       link — the per-link override path. *)
    (if !phase mod 2 = 0 then steps := { at = !t; action = Flaky gremlin } :: !steps
     else
       let victim = Rng.int rng n in
       steps :=
         {
           at = !t;
           action =
             Flaky_link
               (client, victim, { gremlin with drop = 0.35; duplicate = 0.25 });
         }
         :: !steps);
    steps := { at = !t +. window; action = Steady } :: !steps;
    incr phase;
    t := !t +. window +. 10.0 +. Rng.float rng 10.0
  done;
  { plan_name = "flaky links"; duration; steps = List.rev !steps }

let torn_wal_crashes ~n ~duration ~seed =
  let rng = Rng.create seed in
  let faults = [| Wal.Tear_tail; Wal.Corrupt_tail; Wal.Truncate_tail 1; Wal.Truncate_tail 2 |] in
  let steps = ref [] in
  let t = ref 30.0 in
  let k = ref 0 in
  while !t < duration -. 60.0 do
    let victim = Rng.int rng n in
    let fault = faults.(!k mod Array.length faults) in
    let hold = 15.0 +. Rng.float rng 15.0 in
    steps := { at = !t; action = Torn_crash (victim, fault) } :: !steps;
    steps := { at = !t +. hold; action = Recover victim } :: !steps;
    incr k;
    t := !t +. hold +. 20.0 +. Rng.float rng 15.0
  done;
  { plan_name = "torn-WAL crashes"; duration; steps = List.rev !steps }

(* Aim squarely at the two-phase commit window: briefly isolate the client
   (which is also the coordinator) over and over, so some cuts land between
   the prepare round and the decision or between the decision and the commit
   round. Prepared participants are left holding locks with a vanished
   coordinator — exactly what the termination protocol exists to clean up:
   unprepared ones abort unilaterally on lease expiry, prepared ones go in
   doubt and resolve by querying the coordinator after the heal (or a peer
   when only the coordinator link stays cut). Windows are short so the
   client comes back to find its transactions terminated under it. *)
let coordinator_crash ~n ~duration ~seed =
  let rng = Rng.create seed in
  let client = n (* the single client sits on the node after the reps *) in
  let reps = List.init n Fun.id in
  let steps = ref [] in
  let t = ref 20.0 in
  while !t < duration -. 60.0 do
    let window = 3.0 +. Rng.float rng 12.0 in
    steps := { at = !t; action = Partition ([ client ], reps) } :: !steps;
    steps := { at = !t +. window; action = Heal } :: !steps;
    (* Occasionally keep the coordinator cut off across a whole lease period
       while a representative also bounces: in-doubt resolution must fall
       back to peers and to recovery-restored state. *)
    if Rng.float rng 1.0 < 0.3 then begin
      let victim = Rng.int rng n in
      let at = !t +. window +. 2.0 +. Rng.float rng 5.0 in
      steps := { at; action = Crash victim } :: !steps;
      steps := { at = at +. 15.0 +. Rng.float rng 10.0; action = Recover victim } :: !steps
    end;
    t := !t +. window +. 15.0 +. Rng.float rng 15.0
  done;
  { plan_name = "coordinator crash"; duration; steps = List.rev !steps }

(* Skew and drift representative virtual clocks: a fast clock (rate > 1)
   fires lease timers early — spurious unilateral aborts and in-doubt
   resolutions the termination protocol must absorb without losing committed
   work — while a slow one holds leases long past their true deadline, so
   stranded locks linger and other fault windows pile on top. Offsets are
   lease-scale, making absolute deadlines disagree across nodes. The network
   and the client keep the true clock throughout. *)
let clock_skew ~n ~duration ~seed =
  let rng = Rng.create seed in
  let steps = ref [] in
  let t = ref 25.0 in
  while !t < duration -. 80.0 do
    let victim = Rng.int rng n in
    let offset = Rng.float rng 80.0 -. 40.0 in
    let rate = 0.25 +. Rng.float rng 3.75 in
    let hold = 40.0 +. Rng.float rng 40.0 in
    steps := { at = !t; action = Clock_skew (victim, offset, rate) } :: !steps;
    steps := { at = !t +. hold; action = Clock_skew (victim, 0.0, 1.0) } :: !steps;
    t := !t +. hold +. 15.0 +. Rng.float rng 15.0
  done;
  { plan_name = "clock skew"; duration; steps = List.rev !steps }

(* Fill the disk under a running representative: every WAL append fails
   (typed error) until the heal, so mutating transactions must abort cleanly
   while the representative stays up and keeps answering reads. Occasionally
   bounce the victim shortly after the heal — the log it replays must be
   exactly the prefix it acknowledged before the disk filled. *)
let disk_full ~n ~duration ~seed =
  let rng = Rng.create seed in
  let steps = ref [] in
  let t = ref 25.0 in
  let k = ref 0 in
  while !t < duration -. 70.0 do
    let victim = Rng.int rng n in
    let fault = if !k mod 3 = 2 then Wal.Io_error else Wal.Disk_full in
    let hold = 20.0 +. Rng.float rng 25.0 in
    steps := { at = !t; action = Disk_full (victim, Some fault) } :: !steps;
    steps := { at = !t +. hold; action = Disk_full (victim, None) } :: !steps;
    if Rng.float rng 1.0 < 0.35 then begin
      let at = !t +. hold +. 2.0 +. Rng.float rng 4.0 in
      steps := { at; action = Crash victim } :: !steps;
      steps := { at = at +. 10.0 +. Rng.float rng 8.0; action = Recover victim } :: !steps
    end;
    incr k;
    t := !t +. hold +. 20.0 +. Rng.float rng 15.0
  done;
  { plan_name = "disk full"; duration; steps = List.rev !steps }

(* A representative turns gray: alive, answering everything, but an order of
   magnitude slow — the failure mode crash detectors never see. The victims
   rotate so every slot gets its turn as the outlier. A correct client keeps
   its latency flat by reading around the gray node (health-scored quorum
   selection) and hedging the calls that must touch it; a naive one queues
   behind it for the whole window. *)
let slow_replica ~n ~duration ~seed =
  let rng = Rng.create seed in
  let steps = ref [] in
  let t = ref 25.0 in
  let cycle = ref 0 in
  while !t < duration -. 80.0 do
    let victim = !cycle mod n in
    let factor = 6.0 +. Rng.float rng 10.0 in
    let hold = 60.0 +. Rng.float rng 60.0 in
    steps := { at = !t; action = Slow (victim, factor) } :: !steps;
    steps := { at = !t +. hold; action = Steady } :: !steps;
    incr cycle;
    t := !t +. hold +. 20.0 +. Rng.float rng 20.0
  done;
  { plan_name = "slow replica"; duration; steps = List.rev !steps }

(* Metastable-failure bait: repeated short total outages (every representative
   but one crashes) leave each client's retry schedule primed, and recovery
   delivers the accumulated wave to freshly-restarted nodes all at once. The
   overload machinery must absorb it — admission control sheds the excess
   (maintenance first), retry budgets keep clients from amplifying sustained
   unavailability, deadline stamps stop expired work from being served — and
   an occasional duplicate-heavy flaky window exercises the dedup cache's
   bounded eviction in the middle of the storm. *)
let retry_storm ~n ~duration ~seed =
  let rng = Rng.create seed in
  let steps = ref [] in
  let t = ref 25.0 in
  let k = ref 0 in
  while !t < duration -. 80.0 do
    let hold = 6.0 +. Rng.float rng 10.0 in
    let survivor = Rng.int rng n in
    for i = 0 to n - 1 do
      if i <> survivor then begin
        steps := { at = !t +. Rng.float rng 2.0; action = Crash i } :: !steps;
        steps := { at = !t +. hold +. Rng.float rng 4.0; action = Recover i } :: !steps
      end
    done;
    if !k mod 3 = 2 then begin
      let at = !t +. hold +. 6.0 in
      let window = 15.0 +. Rng.float rng 10.0 in
      steps :=
        { at; action = Flaky { Net.no_faults with duplicate = 0.3; drop = 0.1 } }
        :: !steps;
      steps := { at = at +. window; action = Steady } :: !steps
    end;
    incr k;
    t := !t +. hold +. 15.0 +. Rng.float rng 15.0
  done;
  { plan_name = "retry storm"; duration; steps = List.rev !steps }

let standard_plans ?(duration = 1000.0) ~n ~seed () =
  let mix k = Int64.add seed (Int64.mul 7919L (Int64.of_int k)) in
  [
    crash_storm ~n ~duration ~seed:(mix 1);
    rolling_partition ~n ~duration ~seed:(mix 2);
    flaky_links ~n ~duration ~seed:(mix 3);
    torn_wal_crashes ~n ~duration ~seed:(mix 4);
    coordinator_crash ~n ~duration ~seed:(mix 5);
  ]


(* New plans append at the END: {!run_all} derives each plan's world seed
   from its position in this list, so insertion in the middle would silently
   re-seed every later campaign. Mix indices 8 and 11 are taken by the
   reconfiguration and sharding campaigns' {!isolation_plan}s. *)
let all_plans ?(duration = 1000.0) ~n ~seed () =
  let mix k = Int64.add seed (Int64.mul 7919L (Int64.of_int k)) in
  standard_plans ~duration ~n ~seed ()
  @ [
      clock_skew ~n ~duration ~seed:(mix 6);
      disk_full ~n ~duration ~seed:(mix 7);
      slow_replica ~n ~duration ~seed:(mix 9);
      retry_storm ~n ~duration ~seed:(mix 10);
    ]

(* Faults aimed at a driver that reconfigures the deployment: brief
   single-representative partitions (cutting the victim from every one of
   [n_nodes] nodes — clients, admin and syncer included) and occasional
   short bounces, separated by calm windows of about [calm] time units. The
   victims rotate over representative slots [0 .. victims-1], so some windows
   land exactly on the representative the driver is trying to catch up or
   drain. The calm gap must fit the driver's gated step: a whole converge
   mega-session for a membership change (about 240), a sliced hub round plus
   the digest gate for a shard migration (about 160). *)
let isolation_plan ~name ~victims ~n_nodes ~calm ~duration ~seed =
  let rng = Rng.create seed in
  let steps = ref [] in
  let t = ref 50.0 in
  let cycle = ref 0 in
  while !t < duration -. 80.0 do
    let window = 10.0 +. Rng.float rng 8.0 in
    let victim = !cycle mod victims in
    let rest = List.filter (fun j -> j <> victim) (List.init n_nodes Fun.id) in
    steps := { at = !t; action = Partition ([ victim ], rest) } :: !steps;
    steps := { at = !t +. window; action = Heal } :: !steps;
    if !cycle mod 3 = 1 then begin
      let at = !t +. window +. 8.0 +. Rng.float rng 6.0 in
      steps := { at; action = Crash victim } :: !steps;
      steps := { at = at +. 8.0 +. Rng.float rng 6.0; action = Recover victim } :: !steps
    end;
    incr cycle;
    t := !t +. window +. calm +. Rng.float rng (calm /. 4.0)
  done;
  { plan_name = name; duration; steps = List.rev !steps }

(* The registered campaigns — the single source of truth behind
   [repdir plans]. All but "reconfig" (which needs a membership-armed world
   and runs through {!run_reconfig}) and "sharded split" (a multi-group
   {!Shard_world}, through {!run_shard}) run through {!run_plan} /
   {!run_all} — nine plans there in total. *)
let plan_catalog =
  [
    ("crash storm", "standard", "waves of correlated representative crashes and recoveries");
    ( "rolling partition",
      "standard",
      "each representative isolated in turn; every third cycle traps the client" );
    ( "flaky links",
      "standard",
      "network-wide drop/duplicate/reorder gremlins and a lossy client link" );
    ( "torn-WAL crashes",
      "standard",
      "crashes that tear, corrupt, or truncate the WAL tail at the worst instant" );
    ( "coordinator crash",
      "standard",
      "the coordinator vanishes inside the two-phase-commit window" );
    ("clock skew", "extended", "lease-scale virtual-clock skew and drift on representatives");
    ("disk full", "extended", "WAL appends fail with typed errors until the disk heals");
    ( "slow replica",
      "robustness",
      "one representative turns gray (6-16x latency, never crashed), rotating victims" );
    ( "retry storm",
      "robustness",
      "repeated short total outages deliver the accumulated retry wave to recovering nodes" );
    ( "reconfig",
      "membership",
      "online join and retire under partitions and bounces (runs via `repdir reconfig`)" );
    ( "sharded split",
      "sharding",
      "a shard split migrates half the key range to a new group under partitions \
       and bounces (runs via `repdir shard`)" );
  ]

(* --- running a campaign -------------------------------------------------------------- *)

(* What the consistency auditor saw, when a plan runs with [~audit:true]. *)
type audit = {
  checker_violations : string list;
  scrub_violations : string list;
  checked_ops : int;
  ambiguous_ops : int;
  chunks_closed : int;
  keys_given_up : int;
  dump : string -> unit;
      (* write the retained history window to a file, post mortem *)
}

type outcome = {
  plan : string;
  world_seed : int64;
  attempted : int;
  succeeded : int;
  unavailable : int;
  violations : int;
  final_keys_checked : int;
  rpc_retries : int;
  msgs_dropped : int;
  msgs_duplicated : int;
  msgs_reordered : int;
  wal_records_repaired : int;
  sim_events : int;
  leases_expired : int;
  unilateral_aborts : int;
  indoubt_by_coordinator : int;
  indoubt_by_peer : int;
  indoubt_recovered : int;
  orphan_locks : int;
  indoubt_open : int;
  cache_stats : Repdir_cache.Cache.counters option;
  audit : audit option;
}

let audit_violations o =
  match o.audit with
  | None -> 0
  | Some a -> List.length a.checker_violations + List.length a.scrub_violations

let total_violations o = o.violations + audit_violations o

let unsafe o = total_violations o > 0 || o.orphan_locks > 0 || o.indoubt_open > 0

let world_seed ~seed i = Int64.add seed (Int64.mul 1000003L (Int64.of_int i))

(* A world as the fault actions and the runner see it. Plan node [i] below
   [Array.length reps] is representative [reps.(i)], as {!Shard_world}
   numbers its nodes: slot [i mod n] of group [i / n]. *)
type world = {
  sim : Sim.t;
  net : Net.t;
  reps : Rep.t array;
  crash : ?wal_fault:Wal.storage_fault -> int -> unit;
  recover : int -> unit;
  skew : int -> offset:float -> rate:float -> unit;
  recorder : int -> Repdir_audit.History.recorder;
}

let of_world w =
  {
    sim = Shard_world.sim w;
    net = Shard_world.net w;
    reps = Shard_world.reps w;
    crash = (fun ?wal_fault node -> Shard_world.crash_rep ?wal_fault w node);
    recover = Shard_world.recover_rep w;
    skew = Shard_world.set_clock_skew w;
    recorder = Shard_world.recorder_for_client w;
  }

(* Apply one fault action to a world. [duration] bounds the torn-crash
   stalker (it gives up once the campaign window has closed). *)
let apply_step world ~duration action =
  let sim = world.sim and net = world.net in
  let crashed i = Rep.is_crashed world.reps.(i) in
  match action with
  | Crash i -> if not (crashed i) then world.crash i
  | Torn_crash (i, f) ->
      (* A torn write needs unforced log bytes to tear, and those exist
         only while a transaction is running at the victim (its redo
         records are forced at prepare/commit). Stalk the victim until it
         holds unsynced records — the worst possible instant — then pull
         the plug; give up and crash anyway after a bounded wait. *)
      if not (crashed i) then
        let rep = world.reps.(i) in
        (* Strictly shorter than the plan's crash→recover hold, so the
           victim is down before its scheduled recovery fires. *)
        let deadline = Sim.now sim +. 10.0 in
        Sim.spawn sim (fun () ->
            let rec stalk () =
              if crashed i || Sim.now sim >= duration then ()
              else if Rep.wal_unsynced rep > 0 || Sim.now sim >= deadline then
                world.crash ~wal_fault:f i
              else begin
                Sim.sleep sim 0.5;
                stalk ()
              end
            in
            stalk ())
  | Recover i ->
      if crashed i then begin
        (* An armed WAL fault would refuse the recovery marker: the
           operator frees disk space before restarting the node. *)
        Rep.set_io_fault world.reps.(i) None;
        world.recover i
      end
  | Partition (a, b) -> Net.partition net a b
  | Heal -> Net.heal_partition net
  | Flaky f -> Net.set_default_faults net f
  | Flaky_link (a, b, f) -> Net.set_link_faults net a b f
  | Steady -> Net.clear_faults net
  | Clock_skew (i, offset, rate) -> world.skew i ~offset ~rate
  | Disk_full (i, fault) -> if not (crashed i) then Rep.set_io_fault world.reps.(i) fault
  | Slow (i, factor) ->
      (* Every message to or from the victim rides a guaranteed latency
         spike; links are symmetric, so one override per pair covers both
         directions. [Steady] clears the overrides. *)
      let slow = { Net.no_faults with spike = 1.0; spike_factor = factor } in
      for j = 0 to Net.n_nodes net - 1 do
        if j <> i then Net.set_link_faults net i j slow
      done

(* The sequential model a single client's answers are checked against.
   [expect ok] counts a violation when [ok] is false — and ignores it with
   concurrent clients, whose interleavings make the model meaningless (the
   history checker is the oracle there). *)
type oracle = { model : (string, string) Hashtbl.t; expect : bool -> unit }

let agrees model key = function
  | Some (_, v) -> Hashtbl.find_opt model key = Some v
  | None -> not (Hashtbl.mem model key)

(* One workload client. Each operation draws a kind uniformly from the four
   directory operations and the campaign's [extras]; an extra gets the
   oracle, the client's generator and the value a write would store. *)
type client = {
  lookup : Key.t -> (Version.t * string) option;
  insert : Key.t -> string -> (unit, [ `Already_present ]) result;
  update : Key.t -> string -> (unit, [ `Not_present ]) result;
  delete : Key.t -> Suite.delete_report;
  extras : (oracle -> Rng.t -> string -> unit) array;
  budget : Suite.Retry_budget.t option;
  rpc_retries : unit -> int;
}

let suite_client ?budget suite =
  {
    lookup = Suite.lookup suite;
    insert = Suite.insert suite;
    update = Suite.update suite;
    delete = Suite.delete suite;
    extras = [||];
    budget;
    rpc_retries = (fun () -> (Suite.transport suite).Transport.retry_count);
  }

(* A campaign's world with its observers attached. Recording and checking
   are pure observation: recorders draw no randomness and schedule no
   events, so an audited run replays the exact event stream of an unaudited
   one. *)
type rig = {
  world : world;
  seed : int64;
  recorders : Repdir_audit.History.recorder array;
  checker : Repdir_audit.Checker.t option;
}

let rig world ~seed ~audit ~clients =
  Net.seed_faults world.net (Int64.add seed 77L);
  let recorders = if audit then Array.init clients world.recorder else [||] in
  let checker =
    if audit then begin
      let ch = Repdir_audit.Checker.create ~clients () in
      Array.iter
        (fun r -> Repdir_audit.History.set_sink r (Repdir_audit.Checker.feed ch))
        recorders;
      Some ch
    end
    else None
  in
  { world; seed; recorders; checker }

(* Client [c]'s recorder, when the campaign is audited. *)
let recorder rig c =
  if Array.length rig.recorders = 0 then None else Some rig.recorders.(c)

(* Run a campaign to quiesce and judge it. The plan's [steps] fire against
   the world and [driver] runs as its own process, while every client runs
   random operations until [duration]; with one client each answer is
   checked against the sequential model. The last client to finish heals
   the world, waits out the stragglers, lets the campaign [settle], then
   reads back the whole key space. [on_success] runs after each completed
   operation, [scrub] after the run when audited. *)
let drive rig ~name ~duration ~steps ~key_space ~op_gap ~lease ~clients
    ?(on_success = ignore) ?driver ?(settle = ignore) ?(cache_stats = Fun.const None)
    ~scrub () =
  let world = rig.world and seed = rig.seed in
  let sim = world.sim and net = world.net in
  let n_clients = Array.length clients in
  let checked = n_clients = 1 in
  (* Client 0 draws from seed+1 (operations) and seed+2 (retry jitter),
     client c from seed+100+c and seed+200+c. *)
  let rng_for base c =
    Rng.create (Int64.add seed (Int64.of_int (if c = 0 then base else (100 * base) + c)))
  in
  let rngs = Array.init n_clients (rng_for 1) in
  let retry_rngs = Array.init n_clients (rng_for 2) in
  let attempted = ref 0 and succeeded = ref 0 and unavailable = ref 0 in
  let violations = ref 0 in
  let final_keys_checked = ref 0 in
  let oracle =
    {
      model = Hashtbl.create 64;
      expect = (fun ok -> if checked && not ok then incr violations);
    }
  in
  let model = oracle.model in
  List.iter
    (fun s ->
      if s.at < duration then
        Sim.at sim s.at (fun () -> apply_step world ~duration s.action))
    steps;
  Option.iter (fun d -> Sim.spawn sim d) driver;
  (* One random operation; transient failures retried with backoff, then
     written off as unavailable. *)
  let one_op c =
    let cl = clients.(c) and rng = rngs.(c) in
    incr attempted;
    let key = Key.of_int (Rng.int rng key_space) in
    let value =
      if checked then Printf.sprintf "v%d-%f" !attempted (Sim.now sim)
      else Printf.sprintf "c%d-v%d-%f" c !attempted (Sim.now sim)
    in
    let kind = Rng.int rng (4 + Array.length cl.extras) in
    try
      Suite.with_retries ~attempts:4 ~backoff:2.0 ?budget:cl.budget ~sleep:(Sim.sleep sim)
        ~rng:retry_rngs.(c) (fun () ->
          match kind with
          | 0 -> oracle.expect (agrees model key (cl.lookup key))
          | 1 -> (
              match cl.insert key value with
              | Ok () -> Hashtbl.replace model key value
              | Error `Already_present -> oracle.expect (Hashtbl.mem model key))
          | 2 -> (
              match cl.update key value with
              | Ok () -> Hashtbl.replace model key value
              | Error `Not_present -> oracle.expect (not (Hashtbl.mem model key)))
          | 3 ->
              let report = cl.delete key in
              oracle.expect (report.Suite.was_present = Hashtbl.mem model key);
              Hashtbl.remove model key
          | k -> cl.extras.(k - 4) oracle rng value);
      incr succeeded;
      on_success ()
    with Suite.Unavailable _ | Suite.Deadline_exceeded _ | Repdir_txn.Txn.Abort _ ->
      (* No quorum, a spent deadline budget, or retries exhausted on a
         transient abort (say a disk-full window outlasting the backoff):
         the operation aborted cleanly and had no effect. *)
      incr unavailable
  in
  let quiesce () =
    (* The dust settles: faults off, everyone up, stragglers delivered. *)
    Net.clear_faults net;
    Net.heal_partition net;
    Array.iteri
      (fun i rep ->
        (* Heal injected io faults and clock skew first: a representative
           cannot replay its log onto a full disk, and the final audit must
           run on true clocks. *)
        Rep.set_io_fault rep None;
        world.skew i ~offset:0.0 ~rate:1.0;
        if Rep.is_crashed rep then world.recover i)
      world.reps;
    Sim.sleep sim 200.0;
    (* No power cycle: give straggler termination work one more lease
       period, then verify the final answers with whatever volatile state
       the campaign left behind. *)
    Sim.sleep sim (lease +. 30.0);
    settle ();
    (* Every key the workload could have touched must now be readable —
       and, when a single client kept the sequential model, agree with it.
       (The reads also land in the recorded history, so the checker judges
       them against everything that came before.) *)
    for k = 0 to key_space - 1 do
      incr final_keys_checked;
      let key = Key.of_int k in
      match
        Suite.with_retries ~attempts:5 ~backoff:4.0 ~sleep:(Sim.sleep sim)
          ~rng:retry_rngs.(0) (fun () -> clients.(0).lookup key)
      with
      | result -> oracle.expect (agrees model key result)
      | exception (Suite.Unavailable _ | Suite.Deadline_exceeded _) ->
          (* Everything is healed; failing to read here is itself a bug. *)
          incr violations
    done
  in
  let live = ref n_clients in
  for c = 0 to n_clients - 1 do
    Sim.spawn sim (fun () ->
        while Sim.now sim < duration do
          one_op c;
          Sim.sleep sim (Rng.exponential rngs.(c) ~mean:op_gap)
        done;
        decr live;
        if !live = 0 then quiesce ())
  done;
  Sim.run sim;
  let audit =
    Option.map
      (fun ch ->
        Repdir_audit.Checker.finalize ch;
        let scrub_violations = scrub () in
        let stats = Repdir_audit.Checker.stats ch in
        {
          checker_violations =
            List.map
              (Format.asprintf "%a" Repdir_audit.Checker.pp_violation)
              (Repdir_audit.Checker.violations ch);
          scrub_violations;
          checked_ops = stats.Repdir_audit.Checker.ops_checked;
          ambiguous_ops = stats.Repdir_audit.Checker.ambiguous_ops;
          chunks_closed = stats.Repdir_audit.Checker.chunks_closed;
          keys_given_up = List.length stats.Repdir_audit.Checker.given_up;
          dump =
            (fun path ->
              Repdir_audit.History.dump_to_file ~path (Array.to_list rig.recorders));
        })
      rig.checker
  in
  let sum f = Array.fold_left (fun acc r -> acc + f r) 0 world.reps in
  let sum_counter f = sum (fun r -> f (Rep.counters r)) in
  {
    plan = name;
    world_seed = seed;
    attempted = !attempted;
    succeeded = !succeeded;
    unavailable = !unavailable;
    violations = !violations;
    final_keys_checked = !final_keys_checked;
    rpc_retries = clients.(0).rpc_retries ();
    msgs_dropped = Net.messages_dropped net;
    msgs_duplicated = Net.messages_duplicated net;
    msgs_reordered = Net.messages_reordered net;
    wal_records_repaired = sum Rep.wal_records_repaired;
    sim_events = Sim.events_executed sim;
    leases_expired = sum_counter (fun c -> c.Rep.leases_expired);
    unilateral_aborts = sum_counter (fun c -> c.Rep.unilateral_aborts);
    indoubt_by_coordinator = sum_counter (fun c -> c.Rep.indoubt_by_coordinator);
    indoubt_by_peer = sum_counter (fun c -> c.Rep.indoubt_by_peer);
    indoubt_recovered = sum_counter (fun c -> c.Rep.indoubt_recovered);
    (* At quiesce every transaction has terminated: any lock still granted
       or queued is an orphan the termination protocol failed to clean up. *)
    orphan_locks = sum Rep.locks_held + sum Rep.lock_waiters;
    indoubt_open = sum Rep.in_doubt_count;
    cache_stats = cache_stats ();
    audit;
  }

(* Plans whose whole point is the overload/gray-failure machinery run with
   the robustness stack armed; every pre-existing plan keeps the bare world
   (and with it its exact historical event stream). *)
let robust_plan_names = [ "slow replica"; "retry storm" ]

let run_plan ?(seed = 1983L) ?(config = Config.simple ~n:3 ~r:2 ~w:2) ?(key_space = 30)
    ?(op_gap = 2.0) ?(lease = 60.0) ?(audit = false) ?(clients = 1) ?(cache = false) plan =
  if clients < 1 then invalid_arg "Nemesis.run_plan: need at least one client";
  let robust = List.mem plan.plan_name robust_plan_names in
  let world =
    Shard_world.create ~seed ~rpc_timeout:10.0 ~rpc_attempts:4 ~rpc_backoff:2.0
      ~two_phase:true ~n_clients:clients ~lease
      ?admission:(if robust then Some Rep.default_admission else None)
      ~config ~groups:1 ()
  in
  let rig = rig (of_world world) ~seed ~audit ~clients in
  (* One shared health table: every client's observations feed it and every
     client's picker reads it, so a gray representative spotted by one
     client is avoided by all. *)
  let health =
    if robust then Some (Picker.Health.create ~n:(Config.n_reps config) ()) else None
  in
  (* Per-client caches: one weak representative per client, so stale lines
     from one client's vantage are validated (and corrected) against the
     same quorums every other client writes through. *)
  let caches =
    if cache then Array.init clients (fun _ -> Repdir_cache.Cache.create ()) else [||]
  in
  let suites =
    Array.init clients (fun c ->
        Shard_world.suite_for_client ?recorder:(recorder rig c)
          ?picker:(Option.map (fun h -> Picker.Healthy h) health)
          ?health
          ?op_deadline:(if robust then Some 30.0 else None)
          ?hedge:(if robust then Some 2.0 else None)
          ?cache:(if cache then Some caches.(c) else None)
          world c)
  in
  (* Per-client retry budgets: sustained unavailability dries a client's
     retries up instead of letting it amplify the storm. *)
  let budget () = if robust then Some (Suite.Retry_budget.create ()) else None in
  drive rig ~name:plan.plan_name ~duration:plan.duration ~steps:plan.steps ~key_space
    ~op_gap ~lease
    ~clients:(Array.map (fun s -> suite_client ?budget:(budget ()) s) suites)
    ~cache_stats:(fun () ->
      if cache then
        Some
          (Repdir_cache.Cache.sum_counters
             (Array.to_list (Array.map Repdir_cache.Cache.counters caches)))
      else None)
    ~scrub:(fun () -> Repdir_audit.Scrub.run ~config (Shard_world.reps world))
    ()

(* --- epoch drivers ------------------------------------------------------------------- *)

(* Whether the acknowledging representatives hold a write quorum of [cfg]'s
   votes. *)
let write_quorum_acked cfg acked =
  let sum = ref 0 in
  Array.iteri (fun i ok -> if ok then sum := !sum + Config.votes_of cfg i) acked;
  !sum >= cfg.Config.write_quorum

(* Install an epoch on representatives [0 .. n-1] with [install r] (true
   when [r] acknowledged), retrying the silent ones every 6 units until the
   acknowledging set is [covered]. Bounded by rounds, not by the driver's
   deadline: the record the epoch fences is already written, so a fence
   cut short at the deadline would report a completed step as failed. *)
let install_until sim ~n ~install ~covered =
  let acked = Array.make n false in
  let rec loop round =
    if (not (covered acked)) && round < 60 then begin
      for r = 0 to n - 1 do
        if not acked.(r) then acked.(r) <- install r
      done;
      if not (covered acked) then begin
        Sim.sleep sim 6.0;
        loop (round + 1)
      end
    end
  in
  loop 0;
  covered acked

(* At quiesce: install on every representative in turn, each given up to 20
   retries 3 units apart. The network is healed, so this terminates. *)
let broadcast sim ~n install =
  let rec go r tries =
    if r < n then
      if install r || tries > 20 then go (r + 1) 0
      else begin
        Sim.sleep sim 3.0;
        go r (tries + 1)
      end
  in
  go 0 0

let acknowledged = function Ok acked -> acked | Error _ -> false

let stamp ppf = function
  | Some t -> Format.fprintf ppf "t=%.1f" t
  | None -> Format.pp_print_string ppf "never"

(* --- the reconfiguration campaign --------------------------------------------------- *)

type reconfig_report = {
  join_started_at : float;
  joined_at : float option;
  retired_at : float option;
  digest_gate_ok : bool;
  converge_attempts : int;
  drain_attempts : int;
  final_epoch : int;
  steady_ops : int;
  steady_span : float;
  during_join_ops : int;
  during_join_span : float;
}

let pp_reconfig_report ppf r =
  Format.fprintf ppf
    "join started t=%.1f, completed %a; retire completed %a; digest gate %s \
     (%d converge, %d drain sessions); final epoch %d; throughput %d ops/%.0fu steady, \
     %d ops/%.0fu during join"
    r.join_started_at stamp r.joined_at stamp r.retired_at
    (if r.digest_gate_ok then "passed" else "FAILED")
    r.converge_attempts r.drain_attempts r.final_epoch r.steady_ops r.steady_span
    r.during_join_ops r.during_join_span

(* One scripted reconfiguration under faults, end to end:

   - the world has four representative slots from the start; slot 3 is a
     zero-vote [Joining] slot (an empty representative no quorum ever
     touches), the active members run the paper's 3-2-2 assignment;
   - at [join_at] the driver moves to a joint record giving slot 3 one vote
     (4 votes total, R=2, W=3), fences the old epoch, catches the joiner up
     with converge mega-sessions until the atomic root-digest gate passes,
     then promotes to the stable 4-member record;
   - after a steady window it drains slot 0 the same way (joint record to
     the 3-member [0;1;1;1] R=2 W=2 view, converge with the retiree as hub,
     stable record), leaving the retiree fenced at zero votes;
   - every step retries through the fault windows of the "reconfig"
     {!isolation_plan}; the workload keeps running (and being recorded)
     throughout.

   Epoch installation covers the write quorum of every view of both the
   previous and the new record before the driver proceeds, so every quorum
   a straggler could collect at the old epoch crosses a fencing
   representative; completed transitions are additionally broadcast to all
   representatives before the next one begins, which bounds any client's
   staleness at one record. *)
let run_reconfig ?(seed = 1983L) ?(duration = 1500.0) ?(key_space = 24) ?(op_gap = 2.0)
    ?(lease = 60.0) ?(audit = true) ?(clients = 2) ?(faults = true) ?(join_at = 80.0) () =
  if clients < 1 then invalid_arg "Nemesis.run_reconfig: need at least one client";
  let n = 4 in
  (* Slot 3 is the joiner: zero votes and an empty directory until the join
     promotes it. Slot 0 retires at the end, shrinking the roster back to
     three active members. *)
  let initial_config =
    Config.make_exn ~votes:[| 1; 1; 1; 0 |] ~read_quorum:2 ~write_quorum:2
  in
  let m0 =
    Member.initial ~config:initial_config
      ~roster:[| Member.Active; Member.Active; Member.Active; Member.Joining |]
  in
  (* Node layout: reps 0-3, workload clients, the admin (one more client
     slot), the anti-entropy node. The plan cuts victims from all of them. *)
  let plan =
    isolation_plan ~name:"reconfig" ~victims:n ~n_nodes:(n + clients + 2) ~calm:240.0
      ~duration ~seed:(Int64.add seed (Int64.mul 7919L 8L))
  in
  let world =
    Shard_world.create ~seed ~rpc_timeout:10.0 ~rpc_attempts:4 ~rpc_backoff:2.0
      ~two_phase:true ~n_clients:(clients + 1) ~lease ~config:initial_config ~groups:1 ()
  in
  let sim = Shard_world.sim world in
  let rig = rig (of_world world) ~seed ~audit ~clients in
  let suites =
    Array.init clients (fun c ->
        Shard_world.suite_for_client ?recorder:(recorder rig c) ~membership:m0 world c)
  in
  (* The admin drives the reconfiguration from its own client slot (and
     node): record writes go through an ordinary membership-armed suite, so
     they collect joint quorums and commit with two-phase commit like any
     other directory write. *)
  let admin = Shard_world.suite_for_client ~membership:m0 world clients in
  let syncer = Shard_world.make_sync world [ 0 ] in
  let admin_rng = Rng.create (Int64.add seed 5L) in
  (* --- the reconfiguration driver ---------------------------------------- *)
  let record = ref m0 in
  let phase = ref `Steady in
  let steady_ops = ref 0 and during_join_ops = ref 0 in
  let join_started = ref 0.0 and join_ended = ref 0.0 in
  let joined_at = ref None and retired_at = ref None in
  let digest_ok = ref false in
  let converge_attempts = ref 0 and drain_attempts = ref 0 in
  let driver_deadline = plan.duration -. 30.0 in
  let tr = Suite.transport admin in
  let install r m =
    acknowledged
      (Transport.send tr r (fun rep ->
           Rep.install_epoch rep ~epoch:(Member.epoch_of m) ~record:(Member.encode m)))
  in
  (* Install [next]'s epoch on representatives until the acknowledging set
     covers the write quorum of every view of [prev] and [next]: from then
     on any quorum collected at a stale epoch must cross a fencing
     representative. [all] waits for every representative instead — run
     after each completed transition so no client ends up more than one
     record behind. *)
  let install_fencing ?(all = false) ~prev next =
    let views = Member.views prev @ Member.views next in
    install_until sim ~n ~install:(fun r -> install r next)
      ~covered:(fun acked ->
        if all then Array.for_all Fun.id acked
        else List.for_all (fun v -> write_quorum_acked v.Member.config acked) views)
  in
  (* Write the encoded record to the distinguished directory entry through
     the admin suite — under whatever quorums the suite's current membership
     record demands (the joint ones, at every call site below). *)
  let rec write_record m =
    let enc = Member.encode m in
    match
      Suite.with_retries ~attempts:5 ~backoff:3.0 ~sleep:(Sim.sleep sim) ~rng:admin_rng
        (fun () ->
          match Suite.update admin Member.key enc with
          | Ok () -> ()
          | Error `Not_present -> (
              match Suite.insert admin Member.key enc with
              | Ok () -> ()
              | Error `Already_present ->
                  raise (Suite.Unavailable "membership record write raced")))
    with
    | () -> true
    | exception (Suite.Unavailable _ | Repdir_txn.Txn.Abort _) ->
        if Sim.now sim < driver_deadline then begin
          Sim.sleep sim 8.0;
          write_record m
        end
        else false
  in
  (* Converge participant sets for a joint record: the hub plus enough old-
     view members to cover a read quorum of the old view — every committed
     write's quorum intersects such a set, so the hub ends up dominating
     every committed version. The full suite comes first (it also converges
     the bystanders); the minimal subsets let an attempt dodge a partitioned
     or crashed victim. *)
  let converge_subsets ~hub joint =
    let old_view = List.hd (Member.views joint) in
    let votes i = Config.votes_of old_view.Member.config i in
    let voters = List.filter (fun i -> i <> hub && votes i > 0) (List.init n Fun.id) in
    let pairs =
      List.concat_map
        (fun a ->
          List.filter_map
            (fun b ->
              if b > a && votes a + votes b >= old_view.Member.config.Config.read_quorum
              then Some [ hub; a; b ]
              else None)
            voters)
        voters
    in
    List.init n Fun.id :: pairs
  in
  (* One two-step transition: write the joint record (under joint quorums),
     fence the old epoch, run [converge] sessions until the atomic digest
     gate passes, then write and fully broadcast the stable record. A
     transition that cannot pass the gate leaves the record joint — joint
     quorums keep governing, which is safe indefinitely. *)
  let transition ~joint ~hub ~attempts ~gate =
    (* Narrow the hub's divergence with ordinary pairwise digest sessions
       while the old record still governs — the paper-side of "catches up
       while holding zero votes". A joining hub pulls from each voter; a
       retiring hub pushes its surplus out. The converge mega-session that
       actually gates the transition then holds its whole-directory locks
       only briefly, so client traffic keeps flowing through most of the
       change. Failed sessions (faults, lost deadlocks) are fine: converge
       is the correctness gate, this is a warm-up. *)
    (let pre_view = Member.current !record in
     let votes i = Config.votes_of pre_view.Member.config i in
     let as_src = votes hub > 0 in
     let voters = List.filter (fun i -> i <> hub && votes i > 0) (List.init n Fun.id) in
     (* Quarter the key space: each slice session holds its range locks only
        briefly, so client traffic flows between the slices. The first slice
        starts at [Bound.Low] and therefore carries the membership entry
        too. *)
     let cuts =
       [
         Bound.Low;
         Bound.Key (Key.of_int (key_space / 4));
         Bound.Key (Key.of_int (key_space / 2));
         Bound.Key (Key.of_int (3 * key_space / 4));
         Bound.High;
       ]
     in
     let rec slices = function
       | a :: (b :: _ as rest) -> (a, b) :: slices rest
       | _ -> []
     in
     List.iter
       (fun v ->
         List.iter
           (fun (lo, hi) ->
             if Sim.now sim < driver_deadline then begin
               ignore
                 ((if as_src then Sync.session_between syncer ~lo ~hi ~src:hub ~dst:v
                   else Sync.session_between syncer ~lo ~hi ~src:v ~dst:hub)
                   : bool);
               Sim.sleep sim 4.0
             end)
           (slices cuts))
       voters);
    Suite.set_membership admin joint;
    let ok = write_record joint in
    let ok = ok && install_fencing ~prev:!record joint in
    record := joint;
    let subsets = converge_subsets ~hub joint in
    let rec converge_until k =
      incr attempts;
      let among = List.nth subsets (k mod List.length subsets) in
      match Sync.converge syncer ~hub ~among with
      | Some ds when Sync.digests_equal ds -> true
      | _ ->
          if Sim.now sim < driver_deadline then begin
            Sim.sleep sim 10.0;
            converge_until (k + 1)
          end
          else false
    in
    let ok = ok && converge_until 0 in
    if gate then digest_ok := ok;
    if not ok then false
    else
      match Member.finish_change joint with
      | Error _ -> false
      | Ok stable ->
          (* Written while the admin suite still holds the joint record, so
             the write collects quorums in both views. *)
          let wrote = write_record stable in
          Suite.set_membership admin stable;
          let installed = install_fencing ~all:true ~prev:joint stable in
          record := stable;
          wrote && installed
  in
  let driver () =
    Sim.sleep sim join_at;
    join_started := Sim.now sim;
    phase := `Join;
    (match Member.join !record ~slot:3 ~votes:1 ~read_quorum:2 ~write_quorum:3 with
    | Error _ -> ()
    | Ok joint ->
        if transition ~joint ~hub:3 ~attempts:converge_attempts ~gate:true then
          joined_at := Some (Sim.now sim));
    join_ended := Sim.now sim;
    phase := `After;
    (* A steady window between the two changes, then drain slot 0. *)
    Sim.sleep sim 60.0;
    match Member.retire !record ~slot:0 ~read_quorum:2 ~write_quorum:2 with
    | Error _ -> ()
    | Ok joint ->
        if transition ~joint ~hub:0 ~attempts:drain_attempts ~gate:false then
          retired_at := Some (Sim.now sim)
  in
  let outcome =
    drive rig ~name:plan.plan_name ~duration ~steps:(if faults then plan.steps else [])
      ~key_space ~op_gap ~lease ~clients:(Array.map suite_client suites)
      ~on_success:(fun () ->
        match !phase with
        | `Steady -> incr steady_ops
        | `Join -> incr during_join_ops
        | `After -> ())
      ~driver
      (* Every representative must settle at the final epoch before the
         audit — the scrubber insists on a single agreed epoch at quiesce. *)
      ~settle:(fun () -> broadcast sim ~n (fun r -> install r !record))
      ~scrub:(fun () ->
        (* Scrub under the settled configuration. If a transition could not
           pass its gate the campaign quiesced at a joint record: the old
           view's quorums are the ones still guaranteed to see every
           committed write (the new view's only become sufficient after the
           converge), so the scrubber sweeps those. *)
        let scrub_view =
          match !record with Member.Stable v -> v | Member.Joint (o, _) -> o
        in
        Repdir_audit.Scrub.run ~expected_epoch:(Member.epoch_of !record)
          ~config:scrub_view.Member.config (Shard_world.reps world))
      ()
  in
  ( outcome,
    {
      join_started_at = !join_started;
      joined_at = !joined_at;
      retired_at = !retired_at;
      digest_gate_ok = !digest_ok;
      converge_attempts = !converge_attempts;
      drain_attempts = !drain_attempts;
      final_epoch = Member.epoch_of !record;
      steady_ops = !steady_ops;
      steady_span = !join_started;
      during_join_ops = !during_join_ops;
      during_join_span = !join_ended -. !join_started;
    } )

(* --- the sharding campaign ----------------------------------------------------------- *)

type shard_report = {
  split_started_at : float;
  flipped_at : float option;
  shard_gate_ok : bool;
  catchup_sessions : int;
  gate_attempts : int;
  final_shard_epoch : int;
  epoch_agreed : bool;
  n_groups : int;
  n_shards : int;
  split_steady_ops : int;
  split_steady_span : float;
  during_split_ops : int;
  during_split_span : float;
}

let pp_shard_report ppf r =
  Format.fprintf ppf
    "split started t=%.1f, flipped %a; slice digest gate %s (%d rounds, \
     %d catch-up sessions); final shard epoch %d (%s across %d groups / %d shards); \
     throughput %d ops/%.0fu steady, %d ops/%.0fu during split"
    r.split_started_at stamp r.flipped_at
    (if r.shard_gate_ok then "passed" else "FAILED")
    r.gate_attempts r.catchup_sessions r.final_shard_epoch
    (if r.epoch_agreed then "agreed" else "DISAGREED")
    r.n_groups r.n_shards r.split_steady_ops r.split_steady_span
    r.during_split_ops r.during_split_span

(* One scripted shard split under faults, end to end:

   - [groups] replica groups share one simulated network; groups
     [0 .. groups-2] serve equal slices of the key space from epoch 0 and
     group [groups-1] starts empty;
   - at [split_at] the driver splits the last shard at the [groups-1]/[groups]
     point of the key space: {!Shard_map.begin_split} puts the upper slice
     into [Moving], and the new epoch is installed on a write quorum of the
     source group's votes BEFORE the copy starts — from then on any write
     quorum a stale client collects on the slice crosses a fencing
     representative and aborts wholesale, so the slice is frozen;
   - sliced {!Sync.session_between} hub rounds copy the slice into the
     target group (and converge the source group's own replicas on it),
     until the digest gate — every replica of both groups reports the same
     interior {!Rep.digest_range} over the slice — passes;
   - {!Shard_map.finish_move} lands the slice on the target group; the new
     epoch is installed on the source group FIRST (fencing the stale readers
     still routed there), then the target, then broadcast to everyone at
     quiesce, which bounds any client's staleness at one map.

   The workload keeps running (and being recorded) throughout: single-key
   operations, boundary [next] probes across the seam, and cross-shard
   read-write transactions committed with the router's two-phase protocol.
   A split that cannot pass its gate leaves the map [Moving] — reads keep
   flowing from the source group, which is safe indefinitely. *)
let run_shard ?(seed = 1983L) ?(duration = 1500.0) ?(key_space = 24) ?(op_gap = 2.0)
    ?(lease = 60.0) ?(audit = true) ?(clients = 2) ?(faults = true) ?(groups = 2)
    ?(split_at = 80.0) ?(config = Config.simple ~n:3 ~r:2 ~w:2) () =
  if clients < 1 then invalid_arg "Nemesis.run_shard: need at least one client";
  if groups < 2 then invalid_arg "Nemesis.run_shard: need at least two groups";
  if key_space < 2 * groups then invalid_arg "Nemesis.run_shard: key space too small";
  let n = Config.n_reps config in
  (* Victims rotate across every group's slots; the plan cuts them from the
     clients, the admin and the syncer too. *)
  let plan =
    isolation_plan ~name:"sharded split" ~victims:(groups * n)
      ~n_nodes:((groups * n) + clients + 2) ~calm:160.0 ~duration
      ~seed:(Int64.add seed (Int64.mul 7919L 11L))
  in
  let world =
    Shard_world.create ~seed ~rpc_timeout:10.0 ~rpc_attempts:4 ~rpc_backoff:2.0
      ~n_clients:(clients + 1) ~lease ~config ~groups ()
  in
  let sim = Shard_world.sim world in
  let rig = rig (of_world world) ~seed ~audit ~clients in
  (* Groups [0 .. groups-2] each serve an equal initial slice; the split cut
     sits at the [groups-1]/[groups] point, so after the flip every group —
     the newcomer included — serves a 1/[groups] slice. *)
  let cuts = List.init (groups - 2) (fun i -> Key.of_int ((i + 1) * key_space / groups)) in
  let m0 = Shard_map.initial ~cuts in
  let cut_int = (groups - 1) * key_space / groups in
  let src_g = groups - 2 and dst_g = groups - 1 in
  let routers =
    Array.init clients (fun c ->
        Shard_world.router_for_client ?recorder:(recorder rig c) world c ~map:m0)
  in
  (* The admin drives the migration from its own client slot (and node):
     epoch installs and gate digests ride its per-group transports. *)
  let admin = Shard_world.router_for_client world clients ~map:m0 in
  let cross = Shard_world.make_sync ~seed:0xc0_55eedL world [ src_g; dst_g ] in
  (* --- the migration driver ---------------------------------------------- *)
  let map = ref m0 in
  let phase = ref `Steady in
  let steady_ops = ref 0 and during_split_ops = ref 0 in
  let split_started = ref 0.0 and split_ended = ref 0.0 in
  let flipped_at = ref None in
  let gate_ok = ref false in
  let gate_attempts = ref 0 and catchup_sessions = ref 0 in
  let epoch_agreed = ref true in
  let driver_deadline = plan.duration -. 30.0 in
  let tr g = Suite.transport (Router.suite admin g) in
  let install g r m =
    acknowledged
      (Transport.send (tr g) r (fun rep ->
           Rep.install_shard_epoch rep ~epoch:(Shard_map.epoch_of m)
             ~record:(Shard_map.encode m)))
  in
  (* Install [m]'s epoch on group [g] until the acknowledging set covers the
     group's write quorum of votes: from then on any quorum a stale client
     collects there crosses a fencing representative (reads too, since
     R + W exceeds the total). *)
  let install_group g m =
    install_until sim ~n ~install:(fun r -> install g r m)
      ~covered:(write_quorum_acked (Shard_world.group_config world g))
  in
  (* The copy slice: {!Sync.session_between} and {!Rep.digest_range} work on
     half-open-at-the-low-side ranges [(lo, hi]], while the moving shard owns
     [[cut, HIGH)] — so the slice starts just below the cut. The workload
     only mints [Key.of_int] keys, so nothing lives strictly between
     [cut - 1] and [cut] and the slice is exactly the frozen range. *)
  let slice_lo = Bound.Key (Key.of_int (cut_int - 1)) in
  let slice_hi = Bound.High in
  let slice_digest g r =
    let txns = Shard_world.txns world in
    let txn = Repdir_txn.Txn.Manager.begin_txn txns in
    let res =
      Transport.send (tr g) r (fun rep ->
          (* The interior digest: the gap immediately above [slice_lo]
             extends below the cut, so its version keeps moving with live
             deletions in the un-frozen half and would never agree between
             source (bumped continuously) and target (as of the last
             session). The fence freezes everything the flip hands over —
             entries and interior absence proofs — and that is exactly what
             this digest covers. *)
          let d = Rep.digest_range ~interior:true rep ~txn ~lo:slice_lo ~hi:slice_hi in
          Rep.abort rep ~txn;
          d)
    in
    Repdir_txn.Txn.Manager.abort txns txn;
    match res with Ok d -> Some d | Error _ -> None
  in
  (* The gate: EVERY replica of both groups reports the same slice digest —
     all of the source's (they may have diverged before the freeze; a read
     quorum of any divergent pair dominates, and the hub rounds below push
     the merged slice back out) and all of the target's (so after the flip
     any read quorum there holds the full slice). Source-side writes are
     frozen by the fence, so the per-replica snapshots compose soundly. *)
  let gate_pass () =
    let peers = List.init n (fun r -> (src_g, r)) @ List.init n (fun r -> (dst_g, r)) in
    let ds =
      List.filter_map
        (fun (g, r) -> Option.map (fun d -> ((g * n) + r, d)) (slice_digest g r))
        peers
    in
    List.length ds = 2 * n && Sync.digests_equal ds
  in
  (* One hub round: pull every peer's slice onto target replica 0, then push
     the union back onto everyone — source and target replicas alike end up
     holding the merged slice. *)
  let hub = n in
  let catchup_round () =
    List.iter
      (fun pull ->
        for p = 0 to (2 * n) - 1 do
          if p <> hub && Sim.now sim < driver_deadline then begin
            incr catchup_sessions;
            let src, dst = if pull then (p, hub) else (hub, p) in
            ignore (Sync.session_between cross ~lo:slice_lo ~hi:slice_hi ~src ~dst : bool);
            Sim.sleep sim 3.0
          end
        done)
      [ true; false ]
  in
  let rec catchup_until () =
    incr gate_attempts;
    catchup_round ();
    if gate_pass () then true
    else if Sim.now sim < driver_deadline then begin
      Sim.sleep sim 10.0;
      catchup_until ()
    end
    else false
  in
  let driver () =
    Sim.sleep sim split_at;
    split_started := Sim.now sim;
    phase := `Split;
    (match
       Shard_map.begin_split !map ~shard:(Shard_map.n_shards !map - 1)
         ~at:(Key.of_int cut_int) ~to_g:dst_g
     with
    | Error _ -> ()
    | Ok moving ->
        let fenced = install_group src_g moving in
        map := moving;
        Router.set_map admin moving;
        let ok = fenced && catchup_until () in
        gate_ok := ok;
        if ok then
          match Shard_map.finish_move moving ~shard:(Shard_map.n_shards moving - 1) with
          | Error _ -> ()
          | Ok landed ->
              (* Source first: stale readers of the slice — still routed to
                 the source group while their map says [Moving] — are fenced
                 into adopting the landed map before the target serves. *)
              let on_src = install_group src_g landed in
              let on_dst = install_group dst_g landed in
              map := landed;
              Router.set_map admin landed;
              if on_src && on_dst then flipped_at := Some (Sim.now sim));
    split_ended := Sim.now sim;
    phase := `After
  in
  (* --- the workload ------------------------------------------------------- *)
  let model_next model probe =
    Hashtbl.fold
      (fun k v acc ->
        if String.compare k probe > 0 then
          match acc with
          | Some (kb, _) when String.compare kb k <= 0 -> acc
          | _ -> Some (k, v)
        else acc)
      model None
  in
  let cross_keys rng_c =
    ( Key.of_int (Rng.int rng_c (max 1 cut_int)),
      Key.of_int (cut_int + Rng.int rng_c (max 1 (key_space - cut_int))) )
  in
  let router_client r =
    (* Boundary probe: a [next] walk from just below the split cut crosses
       the shard seam mid-migration. *)
    let seam_probe oracle rng _value =
      let probe = Key.of_int (max 0 (cut_int - 1 - Rng.int rng 2)) in
      oracle.expect
        (match (Router.next r probe, model_next oracle.model probe) with
        | Some (k1, _, v1), Some (k2, v2) -> String.equal k1 k2 && String.equal v1 v2
        | None, None -> true
        | _ -> false)
    in
    (* Cross-shard transaction: read a low-half key and write a high-half
       key atomically across two groups' suites. *)
    let cross_txn oracle rng value =
      let k1, k2 = cross_keys rng in
      let seen, wrote =
        Router.with_txn r (fun txn ->
            let seen = Router.lookup ~txn r k1 in
            (seen, Router.update ~txn r k2 value))
      in
      oracle.expect (agrees oracle.model k1 seen);
      match wrote with
      | Ok () -> Hashtbl.replace oracle.model k2 value
      | Error `Not_present -> oracle.expect (not (Hashtbl.mem oracle.model k2))
    in
    {
      lookup = Router.lookup r;
      insert = Router.insert r;
      update = Router.update r;
      delete = Router.delete r;
      extras = [| seam_probe; cross_txn |];
      budget = None;
      rpc_retries =
        (fun () ->
          let acc = ref 0 in
          for g = 0 to groups - 1 do
            acc := !acc + (Suite.transport (Router.suite r g)).Transport.retry_count
          done;
          !acc);
    }
  in
  let outcome =
    drive rig ~name:plan.plan_name ~duration ~steps:(if faults then plan.steps else [])
      ~key_space ~op_gap ~lease ~clients:(Array.map router_client routers)
      ~on_success:(fun () ->
        match !phase with
        | `Steady -> incr steady_ops
        | `Split -> incr during_split_ops
        | `After -> ())
      ~driver
      ~settle:(fun () ->
        (* Every representative of every group settles at the final map
           before the audit — a single agreed shard epoch at quiesce is part
           of the campaign's acceptance. *)
        for g = 0 to groups - 1 do
          broadcast sim ~n (fun r -> install g r !map)
        done;
        let final_e = Shard_map.epoch_of !map in
        for g = 0 to groups - 1 do
          Array.iter
            (fun rep -> if Rep.shard_epoch rep <> final_e then epoch_agreed := false)
            (Shard_world.group_reps world g)
        done)
      ~scrub:(fun () ->
        (* Each group is a complete directory in its own right (own
           sentinels, own quorum invariants, frozen residue included), so
           the scrubber sweeps them independently. *)
        List.concat
          (List.init groups (fun g ->
               List.map
                 (Printf.sprintf "g%d: %s" g)
                 (Repdir_audit.Scrub.run
                    ~config:(Shard_world.group_config world g)
                    (Shard_world.group_reps world g)))))
      ()
  in
  ( outcome,
    {
      split_started_at = !split_started;
      flipped_at = !flipped_at;
      shard_gate_ok = !gate_ok;
      catchup_sessions = !catchup_sessions;
      gate_attempts = !gate_attempts;
      final_shard_epoch = Shard_map.epoch_of !map;
      epoch_agreed = !epoch_agreed;
      n_groups = groups;
      n_shards = Shard_map.n_shards !map;
      split_steady_ops = !steady_ops;
      split_steady_span = !split_started;
      during_split_ops = !during_split_ops;
      during_split_span = !split_ended -. !split_started;
    } )

let run_all ?(seed = 1983L) ?(config = Config.simple ~n:3 ~r:2 ~w:2) ?(duration = 1000.0)
    ?key_space ?op_gap ?lease ?audit ?clients ?cache ?(all = false) () =
  let n = Config.n_reps config in
  let plans =
    if all then all_plans ~duration ~n ~seed () else standard_plans ~duration ~n ~seed ()
  in
  List.mapi
    (fun i plan ->
      run_plan ~seed:(world_seed ~seed i) ~config ?key_space ?op_gap ?lease ?audit ?clients
        ?cache plan)
    plans

let table_of_outcomes outcomes =
  let t =
    Table.create
      ~header:
        [
          "Plan";
          "Ops";
          "Ok";
          "Unavail";
          "Retries";
          "Dropped";
          "Dup'd";
          "Reordered";
          "WAL repaired";
          "Leases";
          "Unilat";
          "ByCoord";
          "ByPeer";
          "Orphans";
          "InDoubt";
          "Events";
          "Violations";
          "Checked";
          "Ambig";
          "AuditViol";
        ]
      ()
  in
  List.iter
    (fun o ->
      Table.add_row t
        [
          o.plan;
          string_of_int o.attempted;
          string_of_int o.succeeded;
          string_of_int o.unavailable;
          string_of_int o.rpc_retries;
          string_of_int o.msgs_dropped;
          string_of_int o.msgs_duplicated;
          string_of_int o.msgs_reordered;
          string_of_int o.wal_records_repaired;
          string_of_int o.leases_expired;
          string_of_int o.unilateral_aborts;
          string_of_int o.indoubt_by_coordinator;
          string_of_int o.indoubt_by_peer;
          string_of_int o.orphan_locks;
          string_of_int o.indoubt_open;
          string_of_int o.sim_events;
          string_of_int o.violations;
          (match o.audit with None -> "-" | Some a -> string_of_int a.checked_ops);
          (match o.audit with None -> "-" | Some a -> string_of_int a.ambiguous_ops);
          (match o.audit with None -> "-" | Some _ -> string_of_int (audit_violations o));
        ])
    outcomes;
  Table.add_separator t;
  Table.add_row t
    [
      "total violations";
      string_of_int (List.fold_left (fun a o -> a + total_violations o) 0 outcomes);
    ];
  t
