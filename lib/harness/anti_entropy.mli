(** Anti-entropy experiments: partition-then-heal convergence and the
    period-vs-staleness tradeoff.

    The convergence campaign is the subsystem's acceptance test: build a
    directory, cut one representative off, keep writing on the surviving
    quorum, heal — then stop {i all} client traffic and let the background
    actor reconcile. The suite must reach identical root digests at every
    representative, and the sync counters must show the repair moved O(diff)
    entries, not a full copy. Everything derives from the explicit seed, so
    runs are bit-reproducible. *)

open Repdir_rep
open Repdir_sync

val entry_divergence : Rep.t -> Rep.t -> int
(** Size of the symmetric difference of the two representatives'
    (key, version, value) entry sets. *)

val stale_entries : Rep.t array -> int
(** Entries (summed over live representatives) whose version at that
    representative lags the suite-wide maximum for their key. *)

val all_digests_equal : Rep.t array -> bool
(** Whether every live representative has the same root digest. *)

type outcome = {
  seed : int64;
  victim : int;  (** the representative that was partitioned away *)
  directory_size : int;  (** entries per representative at the end *)
  diverged_entries : int;  (** entry divergence measured at heal time *)
  converged : bool;  (** all root digests equal before the deadline *)
  heal_to_converged : float;  (** virtual time from heal to convergence *)
  entries_sent : int;  (** total entries moved by range transfers *)
  digest_rpcs : int;
  pull_rpcs : int;
  sessions : int;
  sessions_failed : int;
  ghosts_kept : int;
  sim_events : int;  (** reproducibility fingerprint *)
}

val convergence :
  ?seed:int64 ->
  ?config:Repdir_quorum.Config.t ->
  ?n_entries:int ->
  ?partition_writes:int ->
  ?sync_config:Sync.config ->
  ?deadline:float ->
  unit ->
  outcome
(** One partition-then-heal run. Defaults: the paper's 3-2-2 suite, 120
    entries, 12 writes during the partition, sync period 25.0, and a
    [deadline] of 1500.0 virtual time units measured from heal (a budget
    for reconciliation, not an absolute clock). The run uses single-phase
    commit — under two-phase commit every transaction that so much as
    probes the partitioned representative aborts at prepare, so the
    surviving quorum could not diverge. Quorum writes (w < n) scatter
    entries even without a partition, so the harness first drives explicit
    sync rounds until all digests agree, and the traffic counters in the
    {!outcome} are deltas measured from heal time. *)

val campaign :
  ?seeds:int64 list ->
  ?config:Repdir_quorum.Config.t ->
  ?n_entries:int ->
  ?partition_writes:int ->
  ?sync_config:Sync.config ->
  ?deadline:float ->
  unit ->
  outcome list
(** {!convergence} over several seeds (default: five fixed ones). *)

val table_of_outcomes : outcome list -> Repdir_util.Table.t

type staleness_row = {
  st_period : float;  (** the actor's sync period for this row *)
  st_mean_stale : float;  (** stale entries averaged over fixed-time samples *)
  st_end_stale : int;  (** stale entries left after the no-traffic grace window *)
  st_counters : Sync.counters;
  st_digests_equal : bool;  (** all root digests equal at the end *)
  st_orphan_locks : int;
      (** granted locks + queued waiters left across all representatives at
          quiesce; must be 0 — residue means the lease/termination machinery
          failed to clean up after a partition *)
  st_indoubt_open : int;  (** unresolved in-doubt transactions at quiesce; must be 0 *)
}

val staleness_sweep :
  ?seed:int64 ->
  ?config:Repdir_quorum.Config.t ->
  ?lease:float ->
  ?periods:float list ->
  ?duration:float ->
  unit ->
  staleness_row list
(** Sweep the actor's period under steady client writes and a repeating
    one-representative partition cycle: shorter periods keep replicas
    fresher (lower mean staleness) at the cost of more sessions and digest
    traffic. Each row also reports the end-of-run state after a grace
    window with no traffic: the stale-entry count the actor must drive to
    zero, whether root digests equalized outright (a delete-heavy workload
    can park mutually dominated ghosts that keep digests apart without any
    entry being stale — see DESIGN.md, "Ghosts and the representability
    limit"), and the orphan-lock / open-in-doubt residue that must be zero.

    The partitioned representative is {i not} restarted before rejoining:
    transactions orphaned by the partition terminate through the lease
    machinery ([lease], default 60.0 — unprepared work aborts unilaterally,
    prepared work resolves through coordinator/peer queries after heal). *)

val table_of_staleness_rows : staleness_row list -> Repdir_util.Table.t

val staleness_table :
  ?seed:int64 ->
  ?config:Repdir_quorum.Config.t ->
  ?lease:float ->
  ?periods:float list ->
  ?duration:float ->
  unit ->
  Repdir_util.Table.t
(** {!staleness_sweep} rendered with {!table_of_staleness_rows}. *)
