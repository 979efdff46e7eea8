(** Write-ahead log for one directory representative.

    Simulates the stable storage the paper assumes each representative's
    transactional storage system provides. Mutating operations append redo
    records before being applied; commit and abort append outcome records.
    After a crash (volatile state lost) the representative's gap map is
    rebuilt by {!Replay.replay}: starting from the newest checkpoint image,
    the redo records of committed transactions are re-applied in log order.
    Strict two-phase locking guarantees that records of different
    transactions that touch intersecting ranges appear in serialization
    order, so redo-only replay of committed transactions reconstructs
    exactly the committed state.

    Positions are absolute log sequence numbers (LSNs): the [n]-th record
    ever appended has LSN [n], whatever has been truncated since. Group
    commit tickets and the forced-write watermark are LSNs.

    On stable storage each record is a checksummed frame (marshalled bytes +
    FNV-1a checksum). Storage faults can be injected at the tail with
    {!inject} — a torn final write, a corrupted byte, frames that never
    reached the disk. {!repair} models what recovery reads back: the longest
    checksum-valid prefix. Because a transaction's effects replay only when
    its [Commit] record survives, repair always recovers exactly a committed
    prefix of history. *)

open Repdir_key

type record =
  | Begin of Txn.id
  | Insert of Txn.id * Key.t * Version.t * Repdir_gapmap.Gapmap_intf.value
  | Coalesce of Txn.id * Bound.t * Bound.t * Version.t
  | Sync_apply of Txn.id * Repdir_gapmap.Gapmap_intf.sync_op list
      (** Anti-entropy merge plan applied to this representative; replays by
          re-running the primitive ops in order. *)
  | Prepare of Txn.id * int
      (** Two-phase commit vote: the transaction's effects are durable and
          its outcome is delegated to the coordinator's decision record. The
          second field is the coordinator's network node id, so crash
          recovery knows whom to query for the outcome. *)
  | Commit of Txn.id
  | Abort of Txn.id
  | Recovery_marker
      (** Appended when the representative finishes crash recovery: records
          written before the marker belong to a previous incarnation whose
          volatile state (locks, undo logs, in-memory effects of active
          transactions) was lost. *)
  | Checkpoint of checkpoint
      (** A fuzzy checkpoint (see {!checkpoint_record}). Replay starts from
          the newest one; {!truncate} then drops the history it summarises. *)
  | Member_epoch of int * string
      (** Durable membership-epoch installation: the fencing epoch together
          with the encoded membership record it came from. Named to avoid
          confusion with the log's recovery markers. Recovery restores the
          newest one; a checkpoint carries it past truncation. *)
  | Shard_epoch of int * string
      (** Durable shard-map-epoch installation: the sharding fence epoch with
          the encoded shard map it came from — the exact analogue of
          [Member_epoch] for the multi-group directory's ownership map. *)

and checkpoint = {
  image : string;
      (** The representative's gap map, effects of pending transactions
          included ({!Repdir_gapmap.Gapmap_intf.BASE.to_image}). *)
  state : string;
      (** Marshalled: the undo lists of the transactions whose effects the
          image holds, and the log's index — the outcome of every
          transaction the log has recorded one for, the pending
          transactions, and the membership and shard fences. *)
  carried : Txn.id list;
      (** The transactions the image is not final for; their records are
          carried past truncation and replay below the image. *)
}

val pp_record : Format.formatter -> record -> unit

type t

val create : unit -> t

(** Injected write-path failure: while armed, appends are refused. Distinct
    from {!storage_fault}, which damages already-written frames and is only
    discovered at crash recovery — an io fault is observed synchronously by
    the writer, which must abort the transaction cleanly and keep serving. *)
type io_fault = Disk_full | Io_error

val pp_io_fault : Format.formatter -> io_fault -> unit

val set_io_fault : t -> io_fault option -> unit
(** Arm ([Some f]) or heal ([None]) the injected write failure. *)

val io_fault : t -> io_fault option

val try_append : t -> record -> (unit, io_fault) result
(** Append one record, or report the injected fault without writing
    anything. The representative write paths use this and translate
    [Error _] into a transaction abort. *)

val append : t -> record -> unit
(** Like {!try_append} but for callers with no storage-failure story
    (tests, fixtures): raises [Failure _] if an io fault is armed. *)

val sync : t -> unit
(** Force every appended frame to disk. Records below this watermark are
    durable: crash-time {!inject} faults can only damage the unsynced
    suffix, exactly as torn writes on a real fsynced log only hurt bytes
    written since the last forced write. Representatives force the log
    before acknowledging a prepare or commit. *)

val end_lsn : t -> int
(** The LSN the next record will get: the number of records ever appended,
    less any lost tail. *)

val synced_lsn : t -> int
(** Records below this LSN are durable (≤ {!end_lsn}). *)

val length : t -> int
(** Records retained: the newest checkpoint, the records after it, and the
    records carried below it. *)

val since_checkpoint : t -> int
(** Records appended after the newest checkpoint (all of them if none). *)

val records : t -> record list
(** Retained records, oldest first. *)

val txn_of : record -> Txn.id option
(** The transaction a record belongs to, if any. *)

type outcome = [ `Committed | `Aborted ]

val outcome : t -> Txn.id -> outcome option
(** The transaction's [Commit] / [Abort] record, including those a
    checkpoint summarises. O(1). *)

val outcomes : t -> (Txn.id, outcome) Hashtbl.t
(** A copy of every recorded outcome. *)

val committed : t -> Txn.id -> bool
(** Whether the outcome is [`Committed]. O(1). *)

val pending : t -> Txn.id list
(** Transactions with records but no outcome record. *)

val ops_before_last_recovery : t -> Txn.id -> bool
(** True if the transaction had records, and no outcome, when an earlier
    {!Recovery_marker} was written: the representative lost that
    transaction's volatile effects in a crash, so it must refuse to prepare
    or commit it. O(1) — this runs on every prepare, so it must not scan. *)

val in_doubt : t -> (Txn.id * int) list
(** Transactions with a [Prepare] record but no outcome, each with the
    coordinator node recorded at prepare time: their outcome must be
    resolved by the termination protocol (ask the coordinator, then peers).
    Sorted by transaction id. *)

val write_ranges : record list -> Bound.Interval.t list
(** Closed key intervals covering one transaction's redo records (one per
    record, possibly overlapping) — the RepModify footprint recovery must
    re-lock when it restores the transaction as in doubt. *)

val last_member_epoch : t -> (int * string) option
(** The newest [Member_epoch] record — the membership epoch a recovering
    representative must resume fencing at. O(1). *)

val last_shard_epoch : t -> (int * string) option
(** The newest [Shard_epoch] record — the shard-map epoch a recovering
    representative must resume fencing at. O(1). *)

val checkpoint_record : t -> image:string -> undo:Undo.t -> carry:Txn.id list -> record
(** A fuzzy checkpoint of the present log: the map [image] (which may hold
    effects of unfinished transactions), [undo] — the undo lists that take
    those effects out again — and the log's own index. It carries the
    records of every pending transaction, of every transaction [undo] holds
    a list for (its Commit may be logged while it waits for the force), and
    of [carry] — transactions whose logged outcome the image does not yet
    reflect, such as a recovered in-doubt transaction whose redo has not
    reached the map. *)

val truncate : t -> checkpoint:int -> unit
(** Drop every record older than the checkpoint at LSN [checkpoint], except
    the records of the transactions it carries, which stay below it in log
    order. Raises [Invalid_argument] unless that record is a forced
    checkpoint. *)

(* --- storage fault injection ---------------------------------------------------- *)

(** Damage applied to the persistent image of the log at crash time. *)
type storage_fault =
  | Truncate_tail of int
      (** The last [k] frames never reached the disk (lost buffered writes). *)
  | Tear_tail
      (** The final frame was only partially written; its checksum fails. *)
  | Corrupt_tail  (** A byte of the final frame flipped; its checksum fails. *)

val pp_storage_fault : Format.formatter -> storage_fault -> unit

val inject : t -> storage_fault -> unit
(** Mutate the persistent frames. The in-memory decoded view is refreshed
    only by {!repair} (which crash recovery must run first). *)

val repair : t -> int
(** Truncate the log at its first frame with a bad checksum; returns the
    number of records dropped (0 for a healthy log). *)

val tail_valid : t -> bool
(** Whether the final frame's checksum verifies (true for an empty log). *)

(** Ticket/leader bookkeeping for WAL group commit: concurrent transactions'
    force requests at one representative coalesce into a single {!sync}.

    A ticket is the log's {!end_lsn} at request time; a record is durable
    once {!synced_lsn} reaches its ticket. Both are absolute, so a
    checkpoint truncating the log under a pending group changes neither. The first force request with
    undurable records becomes the {e leader}: it calls {!lead}, holds a
    group window open (the representative owns the clock and the process
    suspension), then syncs and calls {!settle}. Force requests arriving
    while {!armed} are {e followers}: they {!enqueue} a wake-up callback and
    block; the leader's [settle Forced] covers their tickets. [settle
    Cancelled] (crash) wakes waiters without counting a force; each must
    re-check its ticket against the recovered log. *)
module Group : sig
  type outcome = Forced | Cancelled

  type group

  val create : unit -> group

  val armed : group -> bool
  val lead : group -> unit

  val enqueue : group -> (outcome -> unit) -> unit
  (** Register a follower's wake-up; bumps the absorbed counter. *)

  val settle : group -> outcome -> unit
  (** Disarm and wake every waiter in arrival order. [Forced] bumps the
      force counter. *)

  val count_force : group -> unit
  (** Record a force issued outside the leader protocol (no window
      configured, or a lone leader with no followers still forces once). *)

  val forces : group -> int
  (** Syncs actually issued through the group. *)

  val absorbed : group -> int
  (** Force requests that rode on another transaction's sync. *)
end

(** Rebuild a concrete gap map from the log. *)
module Replay (M : Repdir_gapmap.Gapmap_intf.S) : sig
  val replay : ?decided:(Txn.id -> bool) -> t -> M.t
  (** Fresh map holding exactly the committed state: the newest checkpoint
      image with its undo lists rolled back, then the records carried below
      it and the records after it, in log order. A transaction's records
      apply when the log holds its [Commit], or when it is prepared and
      [decided] (the coordinator's verdict; default: nobody) says
      committed. *)

  val redo : record list -> M.t -> unit
  (** Apply one transaction's redo records, in log order, to an existing
      map: the deferred commit of a recovery-restored in-doubt transaction.
      Only sound while the transaction's {!write_ranges} have stayed locked
      since the map was rebuilt. *)
end
