open Repdir_key

type record =
  | Begin of Txn.id
  | Insert of Txn.id * Key.t * Version.t * Repdir_gapmap.Gapmap_intf.value
  | Coalesce of Txn.id * Bound.t * Bound.t * Version.t
  | Sync_apply of Txn.id * Repdir_gapmap.Gapmap_intf.sync_op list
  | Prepare of Txn.id * int
  | Commit of Txn.id
  | Abort of Txn.id
  | Recovery_marker
  | Checkpoint of checkpoint
  | Member_epoch of int * string
  | Shard_epoch of int * string

and checkpoint = { image : string; state : string; carried : Txn.id list }

let pp_record ppf = function
  | Begin id -> Format.fprintf ppf "begin %d" id
  | Insert (id, k, v, _) -> Format.fprintf ppf "insert[%d] %a:%a" id Key.pp k Version.pp v
  | Coalesce (id, lo, hi, v) ->
      Format.fprintf ppf "coalesce[%d] (%a,%a)->%a" id Bound.pp lo Bound.pp hi Version.pp v
  | Sync_apply (id, ops) -> Format.fprintf ppf "sync-apply[%d] (%d ops)" id (List.length ops)
  | Prepare (id, coord) -> Format.fprintf ppf "prepare %d (coord %d)" id coord
  | Recovery_marker -> Format.pp_print_string ppf "recovery-marker"
  | Commit id -> Format.fprintf ppf "commit %d" id
  | Abort id -> Format.fprintf ppf "abort %d" id
  | Checkpoint c -> Format.fprintf ppf "checkpoint (%d-byte image)" (String.length c.image)
  | Member_epoch (e, _) -> Format.fprintf ppf "member-epoch %d" e
  | Shard_epoch (e, _) -> Format.fprintf ppf "shard-epoch %d" e

let txn_of = function
  | Begin id
  | Insert (id, _, _, _)
  | Coalesce (id, _, _, _)
  | Sync_apply (id, _)
  | Prepare (id, _)
  | Commit id
  | Abort id ->
      Some id
  | Recovery_marker | Checkpoint _ | Member_epoch _ | Shard_epoch _ -> None

(* --- stable-storage framing ------------------------------------------------------ *)

(* On stable storage each record is a frame: the marshalled record plus an
   FNV-1a checksum of those bytes. An intact frame decodes back to exactly
   its record, so the log keeps records only; a frame is built when a
   storage fault damages one, and repair then checks its bytes. *)

type frame = { payload : string; crc : int64 }

let fnv1a = Repdir_util.Checksum.fnv1a

let frame_of_record (r : record) =
  let payload = Marshal.to_string r [] in
  { payload; crc = fnv1a payload }

let frame_valid f = Int64.equal (fnv1a f.payload) f.crc

(* Injected storage failure modes for the *write* path: while armed, every
   append is refused. Unlike {!storage_fault} (damage discovered at crash
   time), an io fault is observed synchronously by the writer, which must
   turn it into a clean transaction abort rather than wedging. *)
type io_fault = Disk_full | Io_error

let pp_io_fault ppf = function
  | Disk_full -> Format.pp_print_string ppf "disk-full"
  | Io_error -> Format.pp_print_string ppf "io-error"

type outcome = [ `Committed | `Aborted ]

(* Derived metadata, maintained on append so the per-prepare and per-replay
   questions cost O(1) instead of a log scan. A checkpoint marshals it whole,
   so it survives the truncation of the records it was derived from. *)
type index = {
  outcomes : (Txn.id, outcome) Hashtbl.t;  (* from Commit / Abort records *)
  pending : (Txn.id, unit) Hashtbl.t;  (* transactions with records, no outcome yet *)
  lost : (Txn.id, unit) Hashtbl.t;  (* pending at a recovery marker *)
  mutable member : (int * string) option;  (* newest Member_epoch *)
  mutable shard : (int * string) option;  (* newest Shard_epoch *)
}

(* What a checkpoint carries besides the map image: the undo lists of the
   transactions whose effects the image holds, and the index. *)
type state = { undo : Undo.t; index : index }

type t = {
  mutable log : record list; (* newest first *)
  mutable len : int;
  mutable end_lsn : int; (* the LSN the next record gets *)
  mutable synced : int; (* records below this LSN are forced to disk *)
  mutable since_checkpoint : int; (* records newer than the newest checkpoint *)
  mutable damaged : (int * frame) list; (* LSN and frame of each damaged record *)
  mutable io_fault : io_fault option;
  index : index;
}

let newer_epoch a b =
  match (a, b) with
  | Some (e, _), Some (e', _) when e' >= e -> b
  | Some _, _ -> a
  | None, _ -> b

let settle ix id outcome =
  Hashtbl.remove ix.pending id;
  Hashtbl.remove ix.lost id;
  Hashtbl.replace ix.outcomes id outcome

let index_record t r =
  let ix = t.index in
  t.since_checkpoint <- t.since_checkpoint + 1;
  match r with
  | Begin id | Insert (id, _, _, _) | Coalesce (id, _, _, _) | Sync_apply (id, _) | Prepare (id, _)
    ->
      Hashtbl.replace ix.pending id ()
  | Commit id -> settle ix id `Committed
  | Abort id -> settle ix id `Aborted
  | Recovery_marker -> Hashtbl.iter (fun id () -> Hashtbl.replace ix.lost id ()) ix.pending
  | Member_epoch (e, rc) -> ix.member <- newer_epoch ix.member (Some (e, rc))
  | Shard_epoch (e, rc) -> ix.shard <- newer_epoch ix.shard (Some (e, rc))
  | Checkpoint _ -> t.since_checkpoint <- 0

(* Re-derive the index from the retained records. A checkpoint among them
   brings back what its truncated history said (in an untruncated log that
   history agrees). Lost transactions are pending, so their records were
   carried and recovery's next marker finds them again. *)
let rebuild_index t =
  let ix = t.index in
  Hashtbl.reset ix.outcomes;
  Hashtbl.reset ix.pending;
  Hashtbl.reset ix.lost;
  ix.member <- None;
  ix.shard <- None;
  t.since_checkpoint <- 0;
  List.iter
    (fun r ->
      (match r with
      | Checkpoint c ->
          let (st : state) = Marshal.from_string c.state 0 in
          Hashtbl.iter (fun id o -> Hashtbl.replace ix.outcomes id o) st.index.outcomes;
          ix.member <- newer_epoch ix.member st.index.member;
          ix.shard <- newer_epoch ix.shard st.index.shard
      | _ -> ());
      index_record t r)
    (List.rev t.log)

let create () =
  {
    log = [];
    len = 0;
    end_lsn = 0;
    synced = 0;
    since_checkpoint = 0;
    damaged = [];
    io_fault = None;
    index =
      {
        outcomes = Hashtbl.create 64;
        pending = Hashtbl.create 16;
        lost = Hashtbl.create 8;
        member = None;
        shard = None;
      };
  }

let set_io_fault t f = t.io_fault <- f
let io_fault t = t.io_fault

let unchecked_append t r =
  t.log <- r :: t.log;
  t.len <- t.len + 1;
  t.end_lsn <- t.end_lsn + 1;
  index_record t r

let try_append t r =
  match t.io_fault with
  | Some f -> Error f
  | None ->
      unchecked_append t r;
      Ok ()

let append t r =
  (* Callers off the representative write paths (tests, replay fixtures) do
     not expect storage failures; fail loudly rather than drop the record. *)
  match try_append t r with
  | Ok () -> ()
  | Error f -> Format.kasprintf failwith "Wal.append under injected %a" pp_io_fault f

let sync t = t.synced <- t.end_lsn
let end_lsn t = t.end_lsn
let synced_lsn t = t.synced
let since_checkpoint t = t.since_checkpoint

let length t = t.len
let records t = List.rev t.log

let outcome t id = Hashtbl.find_opt t.index.outcomes id
let outcomes t = Hashtbl.copy t.index.outcomes
let committed t id = outcome t id = Some `Committed
let pending t = Hashtbl.fold (fun id () acc -> id :: acc) t.index.pending []
let ops_before_last_recovery t id = Hashtbl.mem t.index.lost id

let in_doubt t =
  let seen = Hashtbl.create 8 in
  List.fold_left
    (fun acc r ->
      match r with
      | Prepare (id, coord) when Hashtbl.mem t.index.pending id && not (Hashtbl.mem seen id) ->
          Hashtbl.replace seen id ();
          (id, coord) :: acc
      | _ -> acc)
    [] (records t)
  |> List.sort compare

(* Key-space footprint of a transaction's redo records, for re-holding its
   locks when recovery restores it as in doubt. One interval per record is
   coarse but safe: it covers at least what the pre-crash RepModify locks
   covered. *)
let write_ranges recs =
  let span_of_ops ops =
    let bound_of = function
      | Repdir_gapmap.Gapmap_intf.Sync_put (k, _, _) | Repdir_gapmap.Gapmap_intf.Sync_del k ->
          Bound.Key k
      | Repdir_gapmap.Gapmap_intf.Sync_gap (b, _) -> b
    in
    match List.map bound_of ops with
    | [] -> None
    | b :: rest ->
        let lo = List.fold_left Bound.min b rest and hi = List.fold_left Bound.max b rest in
        Some (Bound.Interval.make lo hi)
  in
  List.filter_map
    (function
      | Insert (_, k, _, _) -> Some (Bound.Interval.point (Bound.Key k))
      | Coalesce (_, lo, hi, _) -> Some (Bound.Interval.make lo hi)
      | Sync_apply (_, ops) -> span_of_ops ops
      | _ -> None)
    recs

let last_member_epoch t = t.index.member
let last_shard_epoch t = t.index.shard

(* --- checkpoints -------------------------------------------------------------------- *)

(* The transactions the image is not final for: pending ones, ones whose
   undo lists it holds (a commit still waiting for its force), and [carry]
   (the caller's in-doubt transactions, whose Commit may be logged before
   their redo reaches the map). Their records survive truncation, and
   replay redoes the committed ones on the rolled-back image. *)
let checkpoint_record t ~image ~undo ~carry =
  let carried = List.sort_uniq compare (pending t @ Undo.active_txns undo @ carry) in
  Checkpoint { image; state = Marshal.to_string { undo; index = t.index } []; carried }

let carrying c =
  let h = Hashtbl.create 8 in
  List.iter (fun id -> Hashtbl.replace h id ()) c.carried;
  fun r -> match txn_of r with Some id -> Hashtbl.mem h id | None -> false

(* Records older than the checkpoint at [lsn] are dropped unless they belong
   to a transaction it carries; those keep their log order and sit just
   below the checkpoint, which keeps its LSN. Damage older than the
   checkpoint goes with the rewritten prefix. *)
let truncate t ~checkpoint:lsn =
  if lsn >= t.synced then invalid_arg "Wal.truncate: checkpoint not forced";
  let rec split newer n = function
    | [] -> invalid_arg "Wal.truncate: no checkpoint at that LSN"
    | r :: older ->
        if t.end_lsn - 1 - n = lsn then (
          match r with
          | Checkpoint c ->
              let kept = List.filter (carrying c) older in
              t.log <- List.rev_append newer (r :: kept);
              t.len <- n + 1 + List.length kept
          | _ -> invalid_arg "Wal.truncate: no checkpoint at that LSN")
        else split (r :: newer) (n + 1) older
  in
  split [] 0 t.log;
  t.damaged <- List.filter (fun (l, _) -> l > lsn) t.damaged

(* --- storage fault injection ------------------------------------------------------ *)

type storage_fault =
  | Truncate_tail of int
  | Tear_tail
  | Corrupt_tail

let pp_storage_fault ppf = function
  | Truncate_tail k -> Format.fprintf ppf "truncate-tail(%d)" k
  | Tear_tail -> Format.pp_print_string ppf "torn-tail"
  | Corrupt_tail -> Format.pp_print_string ppf "corrupt-tail"

let rec drop_newest k log = if k <= 0 then log else match log with [] -> [] | _ :: r -> drop_newest (k - 1) r

(* Drop every record at or above [lsn]. *)
let cut t lsn =
  let k = t.end_lsn - lsn in
  t.log <- drop_newest k t.log;
  t.len <- t.len - k;
  t.end_lsn <- lsn;
  t.synced <- min t.synced lsn;
  t.damaged <- List.filter (fun (l, _) -> l < lsn) t.damaged;
  rebuild_index t

let damage_tail t mutate =
  match t.log with
  | [] -> ()
  | r :: _ ->
      let lsn = t.end_lsn - 1 in
      let f = match List.assoc_opt lsn t.damaged with Some f -> f | None -> frame_of_record r in
      t.damaged <- (lsn, mutate f) :: List.remove_assoc lsn t.damaged

(* A crash can only hurt frames that were never forced to disk: anything at
   or below the [synced] watermark survived the last forced write, so every
   fault clamps to the unsynced suffix. This is the torn-write model of a
   real fsynced log — acknowledged commits are durable by construction. *)
let inject t fault =
  let unsynced = t.end_lsn - t.synced in
  match fault with
  | Truncate_tail k ->
      if k < 0 then invalid_arg "Wal.inject: negative truncation";
      cut t (t.end_lsn - min k unsynced)
  | Tear_tail when unsynced > 0 ->
      (* A torn write: only a prefix of the frame's bytes reached the disk;
         the checksum (written last) covers the full payload and no longer
         matches. *)
      damage_tail t (fun f ->
          { f with payload = String.sub f.payload 0 (String.length f.payload / 2) })
  | Corrupt_tail when unsynced > 0 ->
      damage_tail t (fun f ->
          let b = Bytes.of_string f.payload in
          let i = Bytes.length b / 2 in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
          { f with payload = Bytes.to_string b })
  | Tear_tail | Corrupt_tail -> ()

let repair t =
  (* The first bad checksum ends the readable prefix (everything after a
     torn write is unrecoverable in a real sequential log). A damaged frame
     whose checksum still verifies decodes to its record unchanged. *)
  let bad = List.filter_map (fun (l, f) -> if frame_valid f then None else Some l) t.damaged in
  t.damaged <- [];
  match bad with
  | [] -> 0
  | l :: ls ->
      let first = List.fold_left min l ls in
      let dropped = t.end_lsn - first in
      cut t first;
      dropped

let tail_valid t =
  match List.assoc_opt (t.end_lsn - 1) t.damaged with None -> true | Some f -> frame_valid f

(* --- group commit ------------------------------------------------------------- *)

(* Ticket/leader bookkeeping for coalescing concurrent force requests into a
   single [sync]. A "ticket" is the log's end LSN at request time: a record
   is durable once [synced_lsn] passes its ticket, so a follower never needs
   its own force — it only waits for the leader's. LSNs are absolute, so a
   checkpoint truncating the log under a pending group leaves every ticket
   meaning what it did. The timing side (the group window, and suspending
   the calling process) belongs to the representative, which owns the
   clock; this module only tracks who leads, who waits, and how many syncs
   were saved. *)
module Group = struct
  type outcome = Forced | Cancelled

  type group = {
    mutable armed : bool; (* a leader is holding the window open *)
    mutable waiters : (outcome -> unit) list; (* newest first *)
    mutable forces : int;
    mutable absorbed : int;
  }

  let create () = { armed = false; waiters = []; forces = 0; absorbed = 0 }
  let forces g = g.forces
  let absorbed g = g.absorbed
  let armed g = g.armed
  let lead g = g.armed <- true

  let enqueue g k =
    g.absorbed <- g.absorbed + 1;
    g.waiters <- k :: g.waiters

  let count_force g = g.forces <- g.forces + 1

  (* Close the window: wake every waiter in arrival order. [Forced] means the
     leader synced the log (covering every ticket issued so far); [Cancelled]
     means the representative crashed and waiters must re-check for
     themselves. *)
  let settle g outcome =
    g.armed <- false;
    (match outcome with Forced -> count_force g | Cancelled -> ());
    let ws = List.rev g.waiters in
    g.waiters <- [];
    List.iter (fun k -> k outcome) ws
end

module Replay (M : Repdir_gapmap.Gapmap_intf.S) = struct
  module Undo_apply = Undo.Apply (M)

  let apply map = function
    | Insert (_, k, v, value) -> M.insert map k v value
    | Coalesce (_, lo, hi, v) -> ignore (M.coalesce map ~lo ~hi v)
    | Sync_apply (_, ops) -> List.iter (M.apply_sync_op map) ops
    | Begin _ | Prepare _ | Commit _ | Abort _ | Recovery_marker | Checkpoint _ | Member_epoch _
    | Shard_epoch _ ->
        ()

  let replay ?decided t =
    (* Split at the newest checkpoint: [older] and [suffix] oldest first. *)
    let rec split suffix = function
      | [] -> (None, [], suffix)
      | Checkpoint c :: older -> (Some c, List.rev older, suffix)
      | r :: older -> split (r :: suffix) older
    in
    let ck, older, suffix = split [] t.log in
    let map, carried =
      match ck with
      | None -> (M.create (), fun _ -> true)
      | Some c ->
          (* The image may hold effects of transactions it is not final
             for; their undo lists take the map back to the state before
             them, and their records — carried below the checkpoint — replay
             like any other. *)
          let map = M.of_image c.image in
          let (st : state) = Marshal.from_string c.state 0 in
          List.iter (fun txn -> Undo_apply.rollback st.undo ~txn map) (Undo.active_txns st.undo);
          (map, carrying c)
    in
    let applies =
      match decided with
      | None -> committed t
      | Some decided ->
          let prepared = Hashtbl.create 8 in
          List.iter (function Prepare (id, _) -> Hashtbl.replace prepared id () | _ -> ()) t.log;
          fun id -> committed t id || (Hashtbl.mem prepared id && decided id)
    in
    let replay_one r =
      match txn_of r with Some id when applies id -> apply map r | Some _ | None -> ()
    in
    List.iter (fun r -> if carried r then replay_one r) older;
    List.iter replay_one suffix;
    map

  let redo recs map = List.iter (apply map) recs
end
