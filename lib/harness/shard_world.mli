(** A complete simulated deployment on the discrete-event simulator:
    [groups] replica groups of [n] representatives each, all on one
    simulated network with shared clients, RPC between them, and failure
    injection. One group is the paper's directory suite, wired to a
    {!Repdir_core.Suite} by {!suite_for_client}; several are a sharded
    directory, wired to a {!Repdir_shard.Router} by {!router_for_client}.

    Node layout: group [g]'s representative [i] occupies node [g*n + i] (so
    one group's representatives are nodes [0 .. n-1]); client [c] follows at
    node [groups*n + c]; the anti-entropy node is last. Every function below
    that names a representative by a single index takes this node number.
    One transaction manager and one lock group span the whole deployment, so
    cross-shard client transactions and cross-group migration sessions
    serialize against single-group traffic exactly as they would inside one
    group. Representative lock waits suspend the server-side RPC process, so
    concurrent client transactions contend exactly as §3.1 prescribes. *)

open Repdir_sim
open Repdir_rep
open Repdir_quorum
open Repdir_txn
open Repdir_shard

type t

val create :
  ?seed:int64 ->
  ?latency:(Repdir_util.Rng.t -> float) ->
  ?rpc_timeout:float ->
  ?rpc_attempts:int ->
  ?rpc_backoff:float ->
  ?n_clients:int ->
  ?parallel_rpc:bool ->
  ?two_phase:bool ->
  ?lease:float ->
  ?group_commit:float ->
  ?admission:Rep.admission ->
  config:Config.t ->
  groups:int ->
  unit ->
  t
(** [create ~config ~groups ()] builds a [groups]-group deployment where
    every group runs [config]. Representatives are named [rep<i>] in a
    one-group deployment and [g<g>.rep<i>] otherwise.

    [latency] defaults to exponential with mean 1.0; [rpc_timeout] to 50.0
    time units; [n_clients] to 1. [parallel_rpc] (default true) fans quorum
    requests out concurrently (the §5 latency optimization); when false,
    quorum members are contacted one at a time as in the paper's
    pseudo-code. [two_phase] (default false) makes {!suite_for_client}'s
    suites commit with presumed-abort two-phase commit; it may be given only
    when [groups = 1] ([Invalid_argument] otherwise), since
    {!router_for_client}'s suites always commit that way. Each client
    doubles as the coordinator of its own transactions, keeping its
    decision log at its own node
    ({!coordinator}), which participants query to resolve in-doubt
    transactions. [lease] (default: none) arms a sliding virtual-clock lease
    over every transaction at every representative: an unprepared
    transaction idle for a lease period is unilaterally aborted (presumed
    abort) and its locks released; a prepared one goes in doubt and is
    resolved by querying its coordinator, then the peers of its group. The
    resolver is installed regardless of [lease], so crash-recovered in-doubt
    transactions always terminate.

    [group_commit] (default: none — every force syncs immediately, the seed
    behaviour) gives each representative's write-ahead log a group-commit
    window: a force that finds no sync pending becomes the group leader,
    waits that long in sim time, and syncs once for every force that arrived
    meanwhile (see {!Repdir_rep.Rep.create}). Keep it well below [lease].

    [admission] (default: none — every request is admitted, the seed
    behaviour) arms the sliding-window admission controller at every
    representative (see {!Repdir_rep.Rep.create}): requests beyond the
    window cap are rejected with {!Repdir_rep.Rep.Overloaded}, which client
    transports surface as [Error (Transport.Overloaded _)] and the suite
    treats as a non-quorum-eligible representative; maintenance traffic
    (anti-entropy, keepalives) is shed first.

    All client and anti-entropy RPCs go through
    {!Repdir_sim.Rpc.call_at_most_once}: each representative node keeps a
    request-id dedup cache (reset when it crashes), and a call timing out is
    retransmitted up to [rpc_attempts] times total (default 1 — no retries,
    the paper's behaviour) with exponential backoff starting at
    [rpc_backoff] (default 5.0) and deterministic jitter. *)

(* --- accessors --------------------------------------------------------------- *)

val sim : t -> Sim.t
val net : t -> Net.t
val txns : t -> Txn.Manager.t

val reps : t -> Rep.t array
(** Every representative, indexed by node. *)

val group_reps : t -> int -> Rep.t array
(** Group [g]'s representatives, for scrubbing and direct inspection at
    quiesce. *)

val group_config : t -> int -> Config.t
(** Group [g]'s vote configuration (every group runs [config]). *)

val coordinator : t -> int -> Coordinator.t
(** Client [i]'s two-phase-commit decision log (it lives at the client's
    node; in-doubt participants reach it by RPC). *)

(* --- clients ----------------------------------------------------------------- *)

val client_transport : ?health:Picker.Health.t -> t -> int -> int -> Repdir_core.Transport.t
(** [client_transport t i g] is client [i]'s transport to group [g]: the
    suite sees a plain [n]-representative world whose member [r] lives at
    node [g*n + r]. Calls must be made from inside a simulator process.
    Retransmissions count in the transport's [retry_count] and
    [msg_count]. [health] (default: none — no observations, the seed
    behaviour) feeds every call's outcome into a gray-failure score table
    (see {!Picker.Health}): latency is measured as the client saw it
    (retransmissions and timeout waits included) and a call counts as ok
    when the representative answered — an application exception is a timely
    answer; a timeout, crash or overload rejection is not. When the world
    runs with [parallel_rpc] (the default) the transport also offers
    {!Repdir_core.Transport.race}, so suites created with a hedge delay can
    race a spare against a suspected-slow representative. *)

val recorder_for_client : ?cap:int -> t -> int -> Repdir_audit.History.recorder
(** A history recorder stamped with client [i]'s id and the (unskewed)
    simulator clock, for the strict-serializability checker. *)

val shard_view_peek : t -> int -> int -> string option
(** [shard_view_peek t i g]: client [i] asks group [g]'s representatives in
    turn for their installed shard map record, returning the first non-empty
    answer — how a router blocked on a [Moving] range learns the flip landed
    without waiting to be fenced. *)

val suite_for_client :
  ?picker:Picker.strategy ->
  ?seed:int64 ->
  ?sync:Repdir_sync.Sync.t ->
  ?batching:bool ->
  ?notice_window:float ->
  ?recorder:Repdir_audit.History.recorder ->
  ?membership:Repdir_member.Member.record ->
  ?health:Picker.Health.t ->
  ?op_deadline:float ->
  ?hedge:float ->
  ?cache:Repdir_cache.Cache.t ->
  t ->
  int ->
  Repdir_core.Suite.t
(** Client [i]'s suite over a one-group deployment (raises
    [Invalid_argument] when there are more groups; use
    {!router_for_client}). The options are passed to
    {!Repdir_core.Suite.create} verbatim: [batching] (default false) turns on
    per-representative message batching, whose deferred-notice flush timer
    runs on the simulator clock with [notice_window] bounding how long a
    commit notice may ride unflushed; [recorder] attaches a consistency-audit
    history recorder (build one with {!recorder_for_client}); [membership]
    arms dynamic membership (quorums follow the record's view(s) and every
    call is epoch-stamped and fenced); [op_deadline] and [hedge] set the
    per-operation deadline budget and hedged slowest-member reads (the
    latter requires the [Healthy] picker); [cache] is the version-validated
    client cache. [health] is threaded to {!client_transport}; pair it with
    [~picker:(Picker.Healthy health)] to let quorum selection avoid
    suspected-gray representatives. *)

val router_for_client :
  ?picker:Picker.strategy ->
  ?seed:int64 ->
  ?batching:bool ->
  ?notice_window:float ->
  ?recorder:Repdir_audit.History.recorder ->
  ?cache:bool ->
  t ->
  int ->
  map:Shard_map.t ->
  Router.t
(** [router_for_client t i ~map] wires a {!Repdir_shard.Router} for client
    [i]: one two-phase suite per replica group of the deployment (not merely
    of [map] — see {!Router.create}'s [groups]), built like
    {!suite_for_client}'s, all sharing client [i]'s coordinator, the
    deployment transaction manager and (optionally) one recorder.
    [cache:true] attaches a version-validated client cache to every
    per-group suite; the router flushes them on shard-map epoch changes. *)

(* --- anti-entropy ------------------------------------------------------------ *)

val make_sync :
  ?config:Repdir_sync.Sync.config -> ?seed:int64 -> t -> int list -> Repdir_sync.Sync.t
(** [make_sync t groups] is an anti-entropy actor whose peers are the listed
    groups' representatives in order, reached over the at-most-once RPC
    layer from the anti-entropy node (same timeout/retry settings as client
    transports; an exhausted retry budget surfaces as an unreachable peer
    and fails the session). [seed] defaults to [0xa11_075eed]. Over
    [[from_g; to_g]], peer [n + j] is [to_g]'s representative [j], so
    [Sync.session_between ~src:i ~dst:(n+j)] is a sliced source-to-target
    catch-up session. The actor shares the deployment's lock group, so
    sessions serialize after in-flight client writers on the slice. It is
    not scheduled: drive it with {!Repdir_sync.Sync.round} from a simulator
    process, or with {!Repdir_sync.Sync.run}. *)

(* --- fault injection ---------------------------------------------------------- *)

val set_clock_skew : t -> int -> offset:float -> rate:float -> unit
(** Skew the clock of the representative at node [i]: it reads
    [offset + rate * Sim.now] and sees scheduled delays divided by [rate]
    (a fast clock, [rate > 1], fires lease timers early). The defaults
    [(0, 1)] reproduce the shared clock exactly. Affects everything driven
    by the representative's own timers — leases, termination retries,
    group-commit windows, deadline checks — while the network and the
    clients keep the true clock. Raises [Invalid_argument] if [rate] is not
    positive. *)

val crash_rep : ?wal_fault:Repdir_txn.Wal.storage_fault -> t -> int -> unit
(** Crash the representative at node [i]: network down, volatile state
    lost, RPC dedup cache reset. [wal_fault] additionally damages the
    write-ahead log's tail at the moment of the crash (torn write), to be
    discovered on recovery. *)

val recover_rep : t -> int -> unit
(** Bring node [i] back and replay its representative's write-ahead log. *)
