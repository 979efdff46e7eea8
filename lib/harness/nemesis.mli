(** Nemesis: deterministic fault-injection campaigns over the simulator.

    A {!plan} is a declarative, timed schedule of adversarial actions —
    crash storms, rolling partitions, probabilistic link gremlins
    (drop/duplicate/reorder/latency spikes), and crashes that tear or
    corrupt the write-ahead log's tail. {!run_plan} drives a live
    random workload through the plan on a {!Shard_world}, checking every
    response against a sequential model, then heals the world, lets the
    transaction-termination protocol drain (leases expire abandoned
    transactions; in-doubt ones resolve against the coordinator or a peer),
    and verifies the whole key space again — with {i no} power-cycle: any
    lock still held at quiesce is reported as an orphan. All randomness —
    the plan builders, the workload, the link gremlins, the retry jitter —
    derives from explicit seeds, so a run is bit-reproducible.

    {!run_plan}, {!run_reconfig} and {!run_shard} share one runner: the
    fault schedule, the checker wiring, the client loop, the quiesce sweep
    and the {!outcome}. Each campaign supplies only its world and clients
    (a {!Repdir_core.Suite} or a {!Repdir_shard.Router} per client), any
    extra operation kinds, the driver process that reconfigures the
    deployment, and how the world settles and is scrubbed at quiesce.

    The transport is the hardened one: at-most-once RPC with request-id
    deduplication and bounded exponential-backoff retries, two-phase commit,
    and client-level retries via {!Repdir_core.Suite.with_retries} — the
    point of the exercise is that {i zero} sequential-model violations
    survive all five standard plans, and every lock manager drains to
    zero without anyone pulling a power plug. *)

open Repdir_sim
module Wal = Repdir_txn.Wal

(* --- fault-plan DSL ------------------------------------------------------------ *)

type action =
  | Crash of int  (** representative index *)
  | Recover of int
  | Torn_crash of int * Wal.storage_fault
      (** crash with tail damage hitting the victim's WAL *)
  | Partition of int list * int list  (** cut every link between the groups *)
  | Heal  (** restore all links *)
  | Flaky of Net.faults  (** network-wide probabilistic gremlins *)
  | Flaky_link of int * int * Net.faults  (** per-link override *)
  | Steady  (** clear all link gremlins *)
  | Clock_skew of int * float * float
      (** skew a representative's virtual clock: it reads
          [offset + rate * now]; [(i, 0.0, 1.0)] restores the true clock *)
  | Disk_full of int * Wal.io_fault option
      (** arm ([Some fault]) or heal ([None]) the representative's WAL write
          failure; while armed, mutating transactions abort cleanly and the
          representative stays up *)
  | Slow of int * float
      (** gray failure: every link touching the representative multiplies
          its latency by the factor — the node stays up and answers
          everything, just late. [Steady] restores it. *)

type step = { at : float; action : action }

type plan = { plan_name : string; duration : float; steps : step list }
(** Steps fire at their absolute virtual times; steps at or after
    [duration] are ignored by the runner (the cleanup phase owns that
    window). *)

val pp_action : Format.formatter -> action -> unit

(* --- standard plans ------------------------------------------------------------- *)

val crash_storm : n:int -> duration:float -> seed:int64 -> plan
(** Repeated waves in which each representative independently crashes (and
    later recovers), including waves that take the whole suite down. *)

val rolling_partition : n:int -> duration:float -> seed:int64 -> plan
(** Isolates each representative in turn from all the others. *)

val flaky_links : n:int -> duration:float -> seed:int64 -> plan
(** Windows of network-wide drop/duplication/reordering/latency spikes
    alternating with a very lossy single client link. *)

val torn_wal_crashes : n:int -> duration:float -> seed:int64 -> plan
(** Crashes that tear, corrupt, or truncate the victim's WAL tail; recovery
    must come back with exactly the committed prefix. *)

val coordinator_crash : n:int -> duration:float -> seed:int64 -> plan
(** Repeated short isolations of the client/coordinator node, aimed at the
    window between the prepare round and the decision (and between decision
    and commit round), sometimes combined with a representative bounce.
    Participants stranded mid-protocol must terminate on their own: lease
    expiry aborts unprepared transactions unilaterally; prepared ones go in
    doubt and resolve by querying the coordinator after the heal, a peer, or
    via crash recovery. *)

val clock_skew : n:int -> duration:float -> seed:int64 -> plan
(** Windows of per-representative virtual-clock skew and drift: fast clocks
    fire lease timers early (spurious unilateral aborts and in-doubt
    resolutions), slow ones hold leases past their true deadline. The
    network and the clients keep the true clock. *)

val disk_full : n:int -> duration:float -> seed:int64 -> plan
(** Windows in which one representative's WAL refuses every append
    ([Disk_full] or [Io_error]): mutating transactions must abort cleanly
    while reads keep flowing, and a post-heal bounce must replay exactly the
    acknowledged prefix. *)

val slow_replica : n:int -> duration:float -> seed:int64 -> plan
(** One representative at a time turns gray — alive and answering, but 6-16x
    slow on every link — for long windows, rotating victims. {!run_plan}
    arms the robustness stack for this plan by default, so health-scored
    quorum selection and hedging must keep the workload's latency flat. *)

val retry_storm : n:int -> duration:float -> seed:int64 -> plan
(** Repeated short total outages (all representatives but one crash) leave
    every client's retry schedule primed; recovery delivers the accumulated
    wave to freshly-restarted nodes. Admission control, retry budgets and
    deadline propagation (armed by default via {!run_plan}) must absorb it
    without a metastable collapse; occasional duplicate-heavy windows stress
    the dedup cache's bounded eviction mid-storm. *)

val standard_plans : ?duration:float -> n:int -> seed:int64 -> unit -> plan list
(** The five original plans (crash storm, rolling partition, flaky links,
    torn-WAL crashes, coordinator crash), with seeds derived from [seed]. *)

val all_plans : ?duration:float -> n:int -> seed:int64 -> unit -> plan list
(** {!standard_plans} plus {!clock_skew}, {!disk_full}, {!slow_replica} and
    {!retry_storm} — nine plans. New plans append at the end: {!run_all}
    seeds each plan's world from its position in this list. *)

val plan_catalog : (string * string * string) list
(** Every registered campaign as [(name, family, description)] — the single
    source of truth behind [repdir plans]. Families: ["standard"] (run by
    default), ["extended"] (opt-in via [--all]), ["robustness"] (opt-in via
    [--all]; runs with the overload/gray-failure stack armed),
    ["membership"] (the reconfiguration campaign, which needs its own
    runner), and ["sharding"] (the shard-split campaign, ditto). *)

(* --- running -------------------------------------------------------------------- *)

type audit = {
  checker_violations : string list;
      (** strict-serializability violations, pretty-printed *)
  scrub_violations : string list;  (** replica-scrubber findings *)
  checked_ops : int;  (** definite per-key projections the checker proved *)
  ambiguous_ops : int;  (** timed-out writes carried as optional *)
  chunks_closed : int;
  keys_given_up : int;  (** keys left unchecked by state-space caps *)
  dump : string -> unit;
      (** write the retained history window to the given path — the
          post-mortem artifact a failing campaign leaves behind *)
}
(** What the consistency auditor saw, when the plan ran with [~audit:true]:
    the recorded multi-client history judged by the strict-serializability
    checker ({!Repdir_audit.Checker}) and the quiesce-time replica scrubber
    ({!Repdir_audit.Scrub}). *)

type outcome = {
  plan : string;
  world_seed : int64;  (** the seed this plan's world ran under — the repro handle *)
  attempted : int;
  succeeded : int;
  unavailable : int;  (** ops that failed even after client-level retries *)
  violations : int;  (** responses disagreeing with the sequential model *)
  final_keys_checked : int;
  rpc_retries : int;  (** transport retransmissions *)
  msgs_dropped : int;
  msgs_duplicated : int;
  msgs_reordered : int;
  wal_records_repaired : int;  (** log records scrubbed by recoveries *)
  sim_events : int;  (** total simulator events — a reproducibility fingerprint *)
  leases_expired : int;  (** transaction leases that ran out, all reps *)
  unilateral_aborts : int;  (** lease expiries terminated alone (unprepared) *)
  indoubt_by_coordinator : int;  (** in-doubt resolutions answered by the coordinator *)
  indoubt_by_peer : int;  (** in-doubt resolutions answered by a peer rep *)
  indoubt_recovered : int;  (** resolved in-doubt transactions restored by recovery *)
  orphan_locks : int;
      (** locks still granted or queued anywhere at quiesce — must be 0 *)
  indoubt_open : int;  (** transactions still in doubt at quiesce — must be 0 *)
  cache_stats : Repdir_cache.Cache.counters option;
      (** aggregated client-cache counters; present iff [~cache:true] *)
  audit : audit option;  (** present iff the plan ran with [~audit:true] *)
}

val audit_violations : outcome -> int
(** Checker plus scrubber violations (0 when the plan was not audited). *)

val total_violations : outcome -> int
(** Sequential-model violations plus {!audit_violations}. *)

val unsafe : outcome -> bool
(** The campaign verdict: any violation, any lock still held or queued at
    quiesce, or any transaction still in doubt there. *)

val world_seed : seed:int64 -> int -> int64
(** The world seed {!run_all} gives the [i]th plan of a campaign seeded
    [seed], so one plan run alone with it replays bit for bit. *)

val run_plan :
  ?seed:int64 ->
  ?config:Repdir_quorum.Config.t ->
  ?key_space:int ->
  ?op_gap:float ->
  ?lease:float ->
  ?audit:bool ->
  ?clients:int ->
  ?cache:bool ->
  plan ->
  outcome
(** Defaults: the paper's 3-2-2 suite, 30 keys, exponential think time with
    mean 2.0 between operations, a 60-unit transaction lease.

    The plans whose point is the overload/gray-failure stack
    ({!slow_replica}, {!retry_storm}) run with all of it armed:
    representative admission control ({!Repdir_rep.Rep.default_admission}),
    a shared health-score table driving the [Healthy] picker, hedged reads
    (2.0-unit floor), a 30-unit per-operation deadline budget, and
    per-client retry budgets. Every other plan runs the bare world, whose
    historical event streams are unchanged.

    [audit] (default false) attaches a history recorder to every client and
    feeds the completed events to the online strict-serializability checker;
    at quiesce the replica scrubber sweeps the settled representatives. The
    findings land in the outcome's [audit] field. Recording is pure
    observation: an audited run replays the exact event stream of an
    unaudited one.

    [clients] (default 1) runs that many concurrent clients. With one
    client every response is checked against the inline sequential model
    (the seed behaviour); with more, the interleavings make that model
    meaningless, so the inline checks are skipped and the history checker
    is the oracle (run with [~audit:true]).

    [cache] (default false) attaches a version-validated client cache
    ({!Repdir_cache.Cache}) to every client's suite — the whole point being
    that the inline model, the checker, and the scrubber must stay exactly
    as clean as without it. Aggregated cache counters land in
    [cache_stats]. *)

(* --- the reconfiguration campaign ----------------------------------------------- *)

type reconfig_report = {
  join_started_at : float;  (** virtual time the join began *)
  joined_at : float option;
      (** when the joiner's promotion (stable record, fully broadcast)
          completed; [None] if the driver could not finish in time *)
  retired_at : float option;  (** same, for the retirement of slot 0 *)
  digest_gate_ok : bool;
      (** the promotion gate held: a converge mega-session saw the joiner's
          gap-map root digest equal every peer's, atomically, before the
          epoch bump *)
  converge_attempts : int;  (** catch-up sessions run for the joiner *)
  drain_attempts : int;  (** drain sessions run for the retiree *)
  final_epoch : int;  (** 4 for a completed join + retire *)
  steady_ops : int;  (** workload ops completed before the join began *)
  steady_span : float;  (** length of that window, virtual time *)
  during_join_ops : int;  (** ops completed while the join was in flight *)
  during_join_span : float;
}
(** What the reconfiguration driver achieved — the campaign's liveness side,
    complementing the safety verdict in the {!outcome}'s audit. *)

val pp_reconfig_report : Format.formatter -> reconfig_report -> unit

val run_reconfig :
  ?seed:int64 ->
  ?duration:float ->
  ?key_space:int ->
  ?op_gap:float ->
  ?lease:float ->
  ?audit:bool ->
  ?clients:int ->
  ?faults:bool ->
  ?join_at:float ->
  unit ->
  outcome * reconfig_report
(** One scripted online reconfiguration under the faults of the
    "reconfig" fault plan, end to end, with a live recorded workload
    throughout:

    the world starts as the paper's 3-2-2 suite plus a zero-vote [Joining]
    slot; the driver moves to a joint record giving the joiner one vote
    (4 votes, R=2, W=3), fences the old epoch (installation covers the
    write quorum of every governing view before the driver proceeds),
    catches the joiner up with {!Repdir_sync.Sync.converge} mega-sessions
    until the atomic root-digest gate passes, promotes to the stable
    4-member record, and later drains slot 0 back out the same way
    (ending at the 3-member [0;1;1;1] R=2 W=2 view, epoch 4). Completed
    transitions are broadcast to every representative before the next
    begins, so no client is ever more than one record behind.

    [audit] defaults to {b true} here: the point of the campaign is that
    the strict-serializability checker and the replica scrubber (which
    also demands a single agreed epoch, equal to the driver's final one)
    stay clean across epoch changes. Defaults: duration 1500, 24 keys,
    2 clients, op gap 2.0, lease 60.

    [faults] (default true) runs the fault plan: brief single-representative
    partitions that cut the victim from every node (clients, admin and
    syncer included) and occasional short bounces, rotating over the slots,
    with calm windows of about 240 units for the driver's retry loops;
    [false] gives the fault-free variant the throughput benchmark measures
    (steady-state versus during-join ops must not be confounded by
    partition-induced unavailability). [join_at] (default 80) is the
    virtual time the driver starts the join — the benchmark raises it to
    widen the steady-state measurement window. *)

(* --- the sharding campaign ------------------------------------------------------- *)

type shard_report = {
  split_started_at : float;  (** virtual time the split began *)
  flipped_at : float option;
      (** when the landed map's epoch covered a write quorum of both the
          source and target groups' votes; [None] if the driver could not
          finish in time (the map stays [Moving] — safe indefinitely) *)
  shard_gate_ok : bool;
      (** the copy gate held: every replica of both groups reported the same
          {!Repdir_rep.Rep.digest_range} over the (write-frozen) moving
          slice before the flip *)
  catchup_sessions : int;  (** sliced cross-group sync sessions run *)
  gate_attempts : int;  (** hub rounds (each ends with a gate check) *)
  final_shard_epoch : int;  (** 2 for a completed split *)
  epoch_agreed : bool;
      (** every representative of every group held the final map's epoch
          after the quiesce broadcast *)
  n_groups : int;
  n_shards : int;  (** shards in the final map *)
  split_steady_ops : int;  (** workload ops completed before the split began *)
  split_steady_span : float;  (** length of that window, virtual time *)
  during_split_ops : int;  (** ops completed while the slice was in flight *)
  during_split_span : float;
}
(** What the shard-migration driver achieved — the campaign's liveness side,
    complementing the safety verdict in the {!outcome}'s audit. *)

val pp_shard_report : Format.formatter -> shard_report -> unit

val run_shard :
  ?seed:int64 ->
  ?duration:float ->
  ?key_space:int ->
  ?op_gap:float ->
  ?lease:float ->
  ?audit:bool ->
  ?clients:int ->
  ?faults:bool ->
  ?groups:int ->
  ?split_at:float ->
  ?config:Repdir_quorum.Config.t ->
  unit ->
  outcome * shard_report
(** One scripted shard split under the faults of the "sharded split" plan
    (the reconfiguration campaign's plan shape, with victims rotating over
    every group's slots and calm windows of about 160 units), end to end,
    with a live recorded workload throughout.

    The world is a {!Shard_world} of [groups] (default 2, must be [>= 2])
    replica groups, each running [config] (default the paper's 3-2-2).
    Groups [0 .. groups-2] serve equal slices of the key space from epoch 0;
    group [groups-1] starts empty. At [split_at] (default 80) the driver
    splits the last shard at the [(groups-1)/groups] point:
    {!Repdir_shard.Shard_map.begin_split} puts the upper slice into
    [Moving], and the new epoch is installed on a write quorum of the source
    group's votes before the copy starts, freezing writes to the slice.
    Sliced cross-group sync sessions (hub rounds through the target's first
    replica) copy the slice until every replica of both groups reports the
    same slice digest, then {!Repdir_shard.Shard_map.finish_move} lands it —
    installed on the source group first (fencing the stale readers still
    routed there), then the target, then broadcast to every representative
    at quiesce.

    The workload runs through per-client {!Repdir_shard.Router}s: single-key
    operations, boundary [next] probes across the seam, and cross-shard
    read-write transactions committed with the router's two-phase protocol.
    With one client every response is checked against the inline sequential
    model; with more, [audit] (default {b true}) makes the
    strict-serializability checker the oracle, and the replica scrubber
    sweeps each group independently at quiesce. [faults] (default true) runs
    the fault plan; [false] gives the fault-free variant the
    throughput benchmark measures. Defaults: duration 1500, 24 keys,
    2 clients, op gap 2.0, lease 60. *)

val run_all :
  ?seed:int64 ->
  ?config:Repdir_quorum.Config.t ->
  ?duration:float ->
  ?key_space:int ->
  ?op_gap:float ->
  ?lease:float ->
  ?audit:bool ->
  ?clients:int ->
  ?cache:bool ->
  ?all:bool ->
  unit ->
  outcome list
(** Run the standard plans — all nine (adding {!clock_skew}, {!disk_full},
    {!slow_replica} and {!retry_storm}) when [all] is true — each in a fresh
    world with a seed derived from [seed]. *)

val table_of_outcomes : outcome list -> Repdir_util.Table.t
