open Repdir_key
open Repdir_util
open Repdir_quorum
open Repdir_txn
open Repdir_rep
module Gi = Repdir_gapmap.Gapmap_intf
module History = Repdir_audit.History
module Member = Repdir_member.Member
module Cache = Repdir_cache.Cache

type value = string

exception Unavailable of string

exception Deadline_exceeded of string

(* Client-side retry budget: a token bucket shared by all of one client's
   operations. Retries spend a token; successes earn a fraction back. Under
   occasional failures the bucket stays near its cap and every retry is
   granted; under sustained unavailability it drains, and the client fails
   fast instead of joining the retry storm that turns a transient brownout
   into a metastable outage (the goodput-collapse mode: servers spending all
   capacity on retries of work whose clients have given up). *)
module Retry_budget = struct
  type t = { mutable tokens : float; cap : float; earn : float }

  let create ?(cap = 10.0) ?(earn = 0.1) () =
    if cap < 1.0 then invalid_arg "Retry_budget.create: cap must be at least 1.0";
    if earn <= 0.0 then invalid_arg "Retry_budget.create: earn must be positive";
    { tokens = cap; cap; earn }

  let tokens b = b.tokens

  let try_spend b =
    if b.tokens >= 1.0 then begin
      b.tokens <- b.tokens -. 1.0;
      true
    end
    else false

  let earn b = b.tokens <- Float.min b.cap (b.tokens +. b.earn)
end

module Int_set = Set.Make (Int)

(* Per-transaction session: which representatives the transaction has
   operated on, and each one's incarnation number at first contact. A
   participant that restarts mid-transaction has lost the transaction's
   volatile state — locks, undo records, possibly unforced log records — so
   any evidence of a restart (a changed incarnation) must fail the
   transaction rather than let a half-remembered participant vote.
   [prepared] are members whose two-phase-commit vote was already collected
   by a piggybacked [B_prepare]; [finished] are members released in-round by
   [B_finish_readonly] — both are skipped by the termination rounds. *)
type session = {
  mutable reps : Int_set.t;
  mutable prepared : Int_set.t;
  mutable finished : Int_set.t;
  incarnations : (int, int) Hashtbl.t;
}

(* Sharding hook. The multi-group router (lib/shard) attaches one of these
   to each per-group suite; the closures read the router's current shard map
   so this module never depends on the shard library. [shard_epoch] stamps
   every representative call (fenced server-side with
   [Rep.shard_fence_check], exactly parallel to the membership fence);
   [shard_label] names the owned range and group in failure messages so a
   sharded campaign's errors are attributable. *)
type shard_info = { shard_label : unit -> string; shard_epoch : unit -> int }

type t = {
  config : Config.t;
  (* Dynamic membership: when set, quorums are collected from the record's
     view(s) instead of [config], every representative call is stamped with
     the record's epoch (and fenced server-side), and a [Rep.Stale_epoch]
     rejection makes the suite adopt the newer record it carries. [None]
     preserves the static seed behaviour exactly — no stamping, no fencing,
     identical quorum selection and RNG consumption. *)
  mutable membership : Member.record option;
  (* Sharding: when set, every representative call is additionally stamped
     with the router's shard-map epoch, quorum failures name the shard, and
     the cache epoch folds the shard epoch in. [None] is the seed (and
     single-group) behaviour, byte-identical. *)
  shard : shard_info option;
  picker : Picker.strategy;
  transport : Transport.t;
  txns : Txn.Manager.t;
  rng : Rng.t;
  touched : (Txn.id, session) Hashtbl.t;
  two_phase : bool;
  coordinator : Coordinator.t;
  batch_depth : int;
  sync : Repdir_sync.Sync.t option;
  batching : bool;
  timers : Rep.timers option;
  notice_window : float;
  (* Deferred termination notices, per representative, oldest first. They
     piggyback on the next message to that representative (see [call]); the
     flush timer is the fallback for idle periods, and the representatives'
     lease/termination protocol is the backstop if even that is lost. *)
  pending : (int, Rep.notice list ref) Hashtbl.t;
  mutable flush_armed : bool;
  recorder : Repdir_audit.History.recorder option;
  (* Deadline propagation: each operation's budget in time units, converted
     to an absolute deadline when the operation starts and stamped on every
     RPC it issues ([Rep.reject_expired] server-side). None = no stamping,
     the seed behaviour. Needs [timers]. *)
  op_deadline : float option;
  (* Hedging: when set (the floor delay), quorum lookups race their slowest
     quorum member against a spare replica after a p99-derived delay.
     Requires a [Picker.Healthy] picker (the EWMA scores choose the hedge
     target and the spare) and a transport with a race primitive. *)
  hedge : float option;
  mutable hedged : int;  (* hedge backups actually launched *)
  (* Version-validated client cache (a weak representative). When set, the
     quorum read path collects version tags instead of payloads and fetches
     the full entry from at most one member, only on a miss or mismatch; a
     hit plus quorum version agreement is a zero-payload round. [None] is
     the seed read path, byte-identical. *)
  cache : Cache.t option;
  (* Cache stores staged per transaction and applied only at commit: a line
     learned from a transaction's own uncommitted write must die with an
     abort, or its (aborted) version number could later collide with a
     committed write of the same version and serve the wrong payload. Each
     staged update carries the suite epoch at stage time: a line proven
     current against old-view quorums must not be installed as if learned
     under a view adopted between the operation and the commit. *)
  pending_cache : (Txn.id, (int * cache_update) list ref) Hashtbl.t;
}

and cache_update =
  | C_store of Bound.t * Cache.line
  | C_invalidate_range of Bound.t * Bound.t

let create ?(picker = Picker.Random) ?(seed = 1L) ?(two_phase = false)
    ?coordinator ?(batch_depth = 1) ?sync ?(batching = false) ?timers
    ?(notice_window = 5.0) ?recorder ?membership ?shard ?op_deadline ?hedge ?cache
    ~config ~transport ~txns () =
  if Config.n_reps config <> transport.Transport.n_reps then
    invalid_arg "Suite.create: config and transport disagree on representative count";
  if batch_depth < 1 then invalid_arg "Suite.create: batch_depth must be at least 1";
  (match membership with
  | Some m when Config.n_reps (Member.current m).Member.config <> transport.Transport.n_reps
    ->
      invalid_arg "Suite.create: membership record and transport disagree on slot count"
  | _ -> ());
  (match op_deadline with
  | Some d when d <= 0.0 -> invalid_arg "Suite.create: op_deadline must be positive"
  | _ -> ());
  (match hedge with
  | Some _ -> (
      match picker with
      | Picker.Healthy _ -> ()
      | _ -> invalid_arg "Suite.create: hedging needs a Picker.Healthy strategy")
  | None -> ());
  let coordinator =
    match coordinator with Some c -> c | None -> Coordinator.create ()
  in
  {
    config;
    membership;
    shard;
    picker;
    transport;
    txns;
    rng = Rng.create seed;
    touched = Hashtbl.create 16;
    two_phase;
    coordinator;
    batch_depth;
    sync;
    batching;
    timers;
    notice_window;
    pending = Hashtbl.create 8;
    flush_armed = false;
    recorder;
    op_deadline;
    hedge;
    hedged = 0;
    cache;
    pending_cache = Hashtbl.create 8;
  }

(* --- history recording ---------------------------------------------------------- *)

(* The attached recorder (if any) sees every single-key operation with its
   observed result, stamped at operation completion. Completion lies inside
   the strict-2PL window for the touched key — after its lock was granted,
   before commit releases it — so the [prim-completion, transaction-finish]
   interval always contains a valid serialization point and the checker's
   real-time precedence stays sound. *)
let record_prim t ~txn prim =
  match t.recorder with None -> () | Some r -> History.record r ~txn prim

(* Outcome classification when the commit path raised. Under two-phase
   commit the client is the coordinator, so its own decision log is
   authoritative: no decision or an abort decision means presumed abort
   (clean failure, no effects anywhere); a commit decision with a
   client-visible failure means the effects land through the termination
   protocol at some unknown later time — ambiguous. Without two-phase
   commit the best-effort commit round makes every unclear outcome
   ambiguous. *)
let failed_commit_status t txn =
  if t.two_phase then
    match Coordinator.decision t.coordinator txn with
    | Some Coordinator.Committed -> `Ambiguous
    | Some Coordinator.Aborted | None -> `Failed
  else `Ambiguous

let record_finish t ~txn status =
  match t.recorder with None -> () | Some r -> History.finish r ~txn status

let config t = t.config
let membership t = t.membership
let epoch t = match t.membership with None -> 0 | Some m -> Member.epoch_of m
let shard_epoch t = match t.shard with None -> 0 | Some si -> si.shard_epoch ()

(* What failure messages append so sharded campaign errors name the range
   and group that failed; empty (message-identical to the seed) when the
   suite is unsharded. *)
let shard_suffix t =
  match t.shard with None -> "" | Some si -> " at " ^ si.shard_label ()

(* A membership change invalidates the whole cache: version tags prove a
   line current only against quorums of the view that produced it, so lines
   learned under an older epoch must not survive into the new one. The same
   argument applies to a shard-map change — a migrated range's lines were
   proven current against the *old owning group's* quorums — so the cache
   epoch folds both counters together: either advancing flushes every line.
   Membership epochs stay far below the shift in practice (each
   reconfiguration adds 2). *)
let cache_epoch t = epoch t lor (shard_epoch t lsl 20)

(* Also the router's eager-flush hook when it adopts a newer shard map:
   [find] and [store] would flush lazily anyway (they compare the line
   epoch), but a migrated range must never even *hold* lines cached under
   the old owning group once the router knows about the move. *)
let sync_cache_epoch t =
  match t.cache with
  | None -> ()
  | Some c -> Cache.sync_epoch c ~epoch:(cache_epoch t)

let set_membership t m =
  if Config.n_reps (Member.current m).Member.config <> t.transport.Transport.n_reps then
    invalid_arg "Suite.set_membership: record and transport disagree on slot count";
  t.membership <- Some m;
  sync_cache_epoch t

(* Adopt the configuration a fencing representative handed back — but only
   forward: a delayed rejection must never roll the suite's view back. *)
let adopt t record =
  match Member.decode record with
  | Error _ -> ()
  | Ok m -> (
      match t.membership with
      | Some cur when Member.epoch_of cur >= Member.epoch_of m -> ()
      | Some _ | None ->
          t.membership <- Some m;
          sync_cache_epoch t)

let transport t = t.transport
let coordinator t = t.coordinator
let sync t = t.sync
let hedged_count t = t.hedged
let cache t = t.cache
let cache_counters t = Option.map Cache.counters t.cache

(* --- staged cache updates ------------------------------------------------------ *)

let cache_stage t txn upd =
  match t.cache with
  | None -> ()
  | Some _ ->
      let l =
        match Hashtbl.find_opt t.pending_cache txn with
        | Some l -> l
        | None ->
            let l = ref [] in
            Hashtbl.replace t.pending_cache txn l;
            l
      in
      l := (cache_epoch t, upd) :: !l

(* Apply a committed transaction's staged lines, in operation order. Every
   line describes committed state as of this transaction's serialization
   point: reads were validated (or fetched) under quorum read locks, writes
   are the transaction's own now-committed effects. Stores are applied only
   if the suite still runs the epoch they were staged under — a membership
   adopted mid-transaction (set_membership / adopt) must not inherit lines
   proven current only against the old view's quorums, or they would
   survive the flush sync_epoch guarantees. Invalidations are conservative
   and always safe to apply. *)
let cache_apply t txn =
  match t.cache with
  | None -> ()
  | Some c -> (
      match Hashtbl.find_opt t.pending_cache txn with
      | None -> ()
      | Some l ->
          Hashtbl.remove t.pending_cache txn;
          let now = cache_epoch t in
          List.iter
            (fun (staged_epoch, upd) ->
              match upd with
              | C_store (b, line) ->
                  if staged_epoch = now then Cache.store c ~epoch:now b line
              | C_invalidate_range (lo, hi) -> Cache.invalidate_range c ~lo ~hi)
            (List.rev !l))

let cache_drop t txn = Hashtbl.remove t.pending_cache txn

(* --- deferred termination notices --------------------------------------------- *)

let enqueue_notice t i n =
  let l =
    match Hashtbl.find_opt t.pending i with
    | Some l -> l
    | None ->
        let l = ref [] in
        Hashtbl.replace t.pending i l;
        l
  in
  l := !l @ [ n ]

let take_notices t i =
  match Hashtbl.find_opt t.pending i with
  | Some l when !l <> [] ->
      let ns = !l in
      l := [];
      ns
  | _ -> []

let requeue_notices t i ns =
  if ns <> [] then
    match Hashtbl.find_opt t.pending i with
    | Some l -> l := ns @ !l
    | None -> Hashtbl.replace t.pending i (ref ns)

let pending_notice_count t =
  Hashtbl.fold (fun _ l acc -> acc + List.length !l) t.pending 0

(* --- wire-byte accounting ------------------------------------------------------ *)

(* A fixed serialization model charging [Transport.bytes_count] with the
   estimated request and reply bytes of every message the suite puts on the
   wire. The absolute numbers are a model (nothing here really serializes);
   what matters is that the model is applied identically with and without
   the client cache, so the bytes/op delta isolates exactly what the cache
   changes: full values versus version tags on the read path. *)
module Wire = struct
  let header = 16 (* per-message envelope: src/dst/txn/request id *)
  let ver = 8
  let tag = ver + 1 (* version + presence discriminant *)
  let bound = function
    | Bound.Key k -> String.length k + 2
    | Bound.Low | Bound.High -> 1

  let value v = String.length v + 4

  let op = function
    | Rep.B_lookup b | Rep.B_validate b | Rep.B_predecessor b | Rep.B_successor b ->
        1 + bound b
    | Rep.B_predecessor_chain (b, _) | Rep.B_successor_chain (b, _) -> 1 + bound b + 4
    | Rep.B_insert (k, _, v) | Rep.B_insert_if_absent (k, _, v) ->
        1 + bound (Bound.Key k) + ver + value v
    | Rep.B_coalesce (lo, hi, _) -> 1 + bound lo + bound hi + ver
    | Rep.B_prepare _ -> 1 + 4
    | Rep.B_finish_readonly -> 1

  let result r =
    let neighbor (n : Gi.neighbor) = bound n.Gi.key + ver + ver in
    match r with
    | Rep.R_lookup (Gi.Present { value = v; _ }) -> 1 + ver + value v
    | Rep.R_lookup (Gi.Absent _) -> 1 + ver
    | Rep.R_tag _ -> tag
    | Rep.R_neighbor n -> neighbor n
    | Rep.R_chain ns -> List.fold_left (fun a n -> a + neighbor n) 1 ns
    | Rep.R_unit | Rep.R_inserted _ | Rep.R_finished _ -> 1
    | Rep.R_removed _ -> 4

  let msg body = header + body
  let ops l = List.fold_left (fun a o -> a + op o) 0 l
  let results l = List.fold_left (fun a r -> a + result r) 0 l

  (* Termination and notice traffic: a txn id plus a discriminant. *)
  let control = 9
end

let acct t n = Transport.add_bytes t.transport n

(* A termination-round message ([Transport.send]) and its short ack. *)
let acct_send t body = acct t (Wire.msg body + Wire.msg 1)

(* Deliver every queued notice in a dedicated message per representative.
   Failures re-queue: notices are idempotent (duplicate commit/abort
   delivery is a no-op) and the termination protocol settles any
   transaction whose notice never lands. *)
let flush_notices t =
  Hashtbl.iter
    (fun i l ->
      match !l with
      | [] -> ()
      | ns -> (
          l := [];
          acct_send t (Wire.control * List.length ns);
          match Transport.send t.transport i (fun rep -> Rep.deliver_notices rep ns) with
          | Ok () -> ()
          | Error _ -> requeue_notices t i ns
          | exception _ -> requeue_notices t i ns))
    t.pending

let rec arm_flush t =
  match t.timers with
  | Some timers when (not t.flush_armed) && t.notice_window > 0. ->
      t.flush_armed <- true;
      timers.Rep.after t.notice_window (fun () ->
          t.flush_armed <- false;
          flush_notices t;
          (* A failed delivery re-queues; keep the timer alive until the
             queues drain. *)
          if pending_notice_count t > 0 then arm_flush t)
  | _ -> ()
let sync_counters t = Option.map Repdir_sync.Sync.counters t.sync

let set_sync_enabled t on =
  match t.sync with
  | Some s -> Repdir_sync.Sync.set_enabled s on
  | None -> invalid_arg "Suite.set_sync_enabled: suite has no sync actor attached"

type delete_report = {
  was_present : bool;
  removed_per_rep : (int * int) array;
  repair_inserts : int;
  ghosts_deleted : int;
  pred : Bound.t;
  succ : Bound.t;
}

(* --- per-operation context --------------------------------------------------- *)

(* An operation context carries the transaction and the set of
   representatives found unreachable during this operation; those are
   excluded from quorum re-selection when the operation body is re-run.
   [final] marks a single-operation implicit transaction: the operation's
   last write round is the transaction's last round, so the batched suite
   may piggyback the two-phase-commit prepare (or a read-only finish) on
   it. *)
type ctx = {
  txn : Txn.id;
  mutable excluded : Int_set.t;
  suite : t;
  final : bool;
  (* Absolute deadline for this operation (client clock), stamped on every
     RPC and checked before each body re-run. None = no deadline. *)
  deadline : float option;
}

let fanout ctx f arr = ctx.suite.transport.Transport.fanout.Transport.map f arr

let restarted i =
  Unavailable (Printf.sprintf "representative %d restarted mid-transaction" i)

let session_of ctx =
  let t = ctx.suite in
  match Hashtbl.find_opt t.touched ctx.txn with
  | Some s -> s
  | None ->
      let s =
        {
          reps = Int_set.empty;
          prepared = Int_set.empty;
          finished = Int_set.empty;
          incarnations = Hashtbl.create 8;
        }
      in
      Hashtbl.replace t.touched ctx.txn s;
      s

(* [seen] is the incarnation [call] found before sending, which equals the
   one the session recorded at first contact (anything else raised before
   the send), and that entry is never rewritten: comparing the current
   incarnation against [seen] is the whole post-call restart check. *)
let same_incarnation t i seen =
  if t.transport.Transport.incarnation i <> seen then raise (restarted i)

let call ctx i f =
  let t = ctx.suite in
  (* Epoch fencing: stamp the request with the suite's current membership
     epoch, checked server-side before the operation runs. Only operation
     work goes through [call]; the termination rounds (prepare, commit,
     abort, outcome queries) use [Transport.send] directly and are
     deliberately unfenced — a prepared transaction must be able to settle
     across a configuration change. *)
  let f =
    match t.membership with
    | None -> f
    | Some m ->
        let e = Member.epoch_of m in
        fun rep ->
          Rep.fence_check rep ~epoch:e;
          f rep
  in
  (* Shard-map fencing, exactly parallel: requests carry the router's shard
     epoch, and a representative that has installed a newer map refuses the
     operation (the range may no longer be served here). Unsharded suites
     stamp nothing, keeping the seed path identical. *)
  let f =
    match t.shard with
    | None -> f
    | Some si ->
        let e = si.shard_epoch () in
        fun rep ->
          Rep.shard_fence_check rep ~epoch:e;
          f rep
  in
  (* Deadline propagation: the operation's absolute deadline rides on every
     RPC; a representative whose clock says it has passed refuses the work
     instead of executing it ([Rep.Deadline_exceeded] unwinds the operation
     like any other abort). The budget decrements across hops for free
     because the deadline is absolute while time keeps advancing. Like the
     fence, only operation work is stamped — termination traffic must settle
     no matter how late it runs. *)
  let f =
    match ctx.deadline with
    | None -> f
    | Some d ->
        fun rep ->
          Rep.reject_expired rep ~deadline:d;
          f rep
  in
  let s = session_of ctx in
  s.reps <- Int_set.add i s.reps;
  let seen = t.transport.Transport.incarnation i in
  (match Hashtbl.find_opt s.incarnations i with
  | None -> Hashtbl.replace s.incarnations i seen
  | Some first when first <> seen -> raise (restarted i)
  | Some _ -> ());
  (* Ride any deferred termination notices for this representative on the
     message we are sending anyway (commit pipelining): they are applied
     server-side before the operation, so locks they release are available
     to it. A transport failure re-queues them — delivery is idempotent, so
     over-delivering on an ambiguous failure is safe. *)
  let notices = take_notices t i in
  let f =
    if notices = [] then f
    else
      fun rep ->
      Rep.deliver_notices rep notices;
      f rep
  in
  match Transport.call_exn t.transport i f with
  | r ->
      (* The participant may have restarted while the call was in flight: an
         at-most-once retransmission then re-executed against an amnesiac
         incarnation that knows nothing of the transaction's earlier ops. *)
      same_incarnation t i seen;
      r
  | exception (Transport.Rpc_failed _ as e) ->
      requeue_notices t i notices;
      same_incarnation t i seen;
      raise e
  | exception e ->
      (* Same window: a re-execution against post-recovery state can fail in
         arbitrary ways (missing endpoints, spurious lock conflicts). The
         restart, not the symptom, is the real error. *)
      same_incarnation t i seen;
      raise e

(* One message, many representative ops (the §4 observation that calls
   "batch into few messages"). This is the suite's only way to put work on
   a representative: an unbatched round simply sends one op per message. *)
let exec ctx i ops =
  let t = ctx.suite in
  acct t (Wire.msg (Wire.ops ops));
  let rs = call ctx i (fun rep -> Rep.execute rep ~txn:ctx.txn ops) in
  acct t (Wire.msg (Wire.results rs));
  rs

let exec1 ctx i op = match exec ctx i [ op ] with [ r ] -> r | _ -> assert false

let available ctx i =
  ctx.suite.transport.Transport.is_up i && not (Int_set.mem i ctx.excluded)

(* Which view failed, for debuggable nemesis logs during a transition: a
   joint record has two views, and "cannot collect a write quorum" alone
   does not say whether the old or the new epoch is starved. *)
let quorum_failure t m ~read k =
  let v = List.nth (Member.views m) k in
  Unavailable
    (Format.asprintf "cannot collect a %s quorum in epoch %d (%a)%s"
       (if read then "read" else "write")
       v.Member.epoch Member.pp_view v (shard_suffix t))

let collect_read_quorum ctx =
  let t = ctx.suite in
  match t.membership with
  | None -> (
      match Picker.read_quorum t.picker t.rng t.config ~available:(available ctx) with
      | Some q -> q
      | None -> raise (Unavailable ("cannot collect a read quorum" ^ shard_suffix t)))
  | Some m -> (
      match
        Picker.collect_joint t.picker t.rng
          (Member.targets m ~read:true)
          ~available:(available ctx)
      with
      | Ok q -> q
      | Error k -> raise (quorum_failure t m ~read:true k))

let collect_write_quorum ctx =
  let t = ctx.suite in
  (* Batched mode prefers members the transaction already touched: the
     piggybacked prepare then covers the whole participant set and the
     read-only members need no termination round of their own. *)
  let prefer =
    if t.batching then
      match Hashtbl.find_opt t.touched ctx.txn with
      | Some s -> fun i -> Int_set.mem i s.reps
      | None -> fun _ -> false
    else fun _ -> false
  in
  match t.membership with
  | None -> (
      match
        Picker.write_quorum ~prefer t.picker t.rng t.config ~available:(available ctx)
      with
      | Some q -> q
      | None -> raise (Unavailable ("cannot collect a write quorum" ^ shard_suffix t)))
  | Some m -> (
      match
        Picker.collect_joint ~prefer t.picker t.rng
          (Member.targets m ~read:false)
          ~available:(available ctx)
      with
      | Ok q -> q
      | Error k -> raise (quorum_failure t m ~read:false k))

(* --- DirSuiteLookup (Figure 8) ------------------------------------------------ *)

(* Hedged quorum fan-out: race the quorum member with the worst smoothed
   latency against a spare replica, started after a p99-derived delay — the
   gray-failure mitigation for the one case quorum re-selection cannot help
   with: a member that is slow but not slow enough to be excluded, stalling
   every round it joins. Vote-sound by construction: the spare must carry at
   least as many votes as the member it stands in for, so whichever branch
   answers, the replies always cover a full read quorum. Both branches go
   through [call], so both representatives join the transaction's session
   and are released by its termination round; a late losing reply re-executes
   idempotently against locks the session still holds and is discarded
   client-side. Active only when all the machinery is present: a hedge
   window, a transport race primitive, a [Healthy] picker (for the scores),
   a clock, and static membership (joint-quorum vote accounting would need
   per-view spares). NB for callers: when the hedge fires and the spare wins,
   the slow member's slot in the result array holds the *spare's* reply — a
   caller that must know which representative produced a reply has to pair it
   inside [callf] ([fun i -> (i, ...)]); indexing [quorum] is not sound. *)
let hedged_fanout ctx quorum callf =
  let t = ctx.suite in
  match (t.hedge, t.transport.Transport.race, t.picker, t.timers, t.membership) with
  | Some floor, Some race, Picker.Healthy health, Some _, None when Array.length quorum > 0
    ->
      let slowest = ref quorum.(0) in
      Array.iter
        (fun i ->
          if Picker.Health.latency health i > Picker.Health.latency health !slowest then
            slowest := i)
        quorum;
      let slow = !slowest in
      let in_quorum i = Array.exists (Int.equal i) quorum in
      (* Hedge only a quorum member that looks gray — flagged as an outlier,
         or (during the detection lag, before it has the samples to be
         flagged) already [suspect] next to the spare — and only to a healthy
         spare. A speculative call is not free: the spare executes it, takes
         the read lock, and becomes a 2PC participant whose prepare/commit
         rounds the transaction then waits on — so hedging a healthy quorum
         against a gray spare would *add* the gray replica to the critical
         path it was chosen to avoid. *)
      let spare = ref None in
      for i = 0 to t.transport.Transport.n_reps - 1 do
        if
          (not (in_quorum i))
          && available ctx i
          && (not (Picker.Health.outlier health i))
          && Config.votes_of t.config i >= Config.votes_of t.config slow
        then begin
          let better =
            match !spare with
            | None -> true
            | Some s -> Picker.Health.latency health i < Picker.Health.latency health s
          in
          if better then spare := Some i
        end
      done;
      (match !spare with
      | Some s
        when Picker.Health.outlier health slow
             || Picker.Health.suspect health slow ~against:s ->
          let delay = Picker.Health.hedge_delay ~floor health in
          fanout ctx
            (fun i ->
              if i = slow then
                race.Transport.run
                  (fun () -> callf i)
                  ~after:delay
                  (fun () ->
                    t.hedged <- t.hedged + 1;
                    callf s)
              else callf i)
            quorum
      | Some _ | None -> fanout ctx callf quorum)
  | _ -> fanout ctx callf quorum

(* Members that settled their part of the transaction in-round: released by
   a piggybacked [B_finish_readonly], or holding the yes vote of a
   piggybacked [B_prepare]. The termination rounds skip both. *)
let note_finished ctx i =
  let s = session_of ctx in
  s.finished <- Int_set.add i s.finished

let note_prepared ctx i =
  let s = session_of ctx in
  s.prepared <- Int_set.add i s.prepared

(* The two-phase-commit prepare a batched implicit transaction piggybacks on
   its final work round (last-round optimization), so the explicit prepare
   round disappears; empty in every other case. A piggybacked vote that
   fails raises out of the batch and aborts the transaction, exactly as a
   failed explicit prepare would. *)
let piggyback ctx =
  let t = ctx.suite in
  if t.batching && ctx.final && t.two_phase then
    [ Rep.B_prepare (Coordinator.id t.coordinator) ]
  else []

(* The quorum read rule: believe the reply with the highest version number —
   an entry's own version, or an absent key's gap version — the first
   maximal reply in quorum order winning ties. Every quorum read folds its
   replies with this, starting from [no_reply]. *)
let no_reply = (false, Version.lowest - 1, "")

let best_reply ((_, bestv, _) as best) = function
  | Gi.Present { version; value } when version > bestv -> (true, version, value)
  | Gi.Absent { gap_version } when gap_version > bestv -> (false, gap_version, "")
  | Gi.Present _ | Gi.Absent _ -> best

(* Send DirRepLookup to a read quorum; believe the highest version number.
   Works over bounds so the real-predecessor walk can look up LOW/HIGH,
   which every representative reports present at the lowest version.
   [finishing] (batched single-operation transactions) sends the read-only
   release in the same message: a member that grants it ([R_finished true])
   is done with the transaction; refusals simply fall back to the normal
   termination round. Only the plain read is hedged. *)
let suite_lookup_payload ctx ~finishing bound =
  let quorum = collect_read_quorum ctx in
  let ops = Rep.B_lookup bound :: (if finishing then [ Rep.B_finish_readonly ] else []) in
  let read i =
    match exec ctx i ops with
    | [ Rep.R_lookup l ] -> l
    | [ Rep.R_lookup l; Rep.R_finished fin ] ->
        if fin then note_finished ctx i;
        l
    | _ -> assert false
  in
  let replies =
    if finishing then fanout ctx read quorum else hedged_fanout ctx quorum read
  in
  Array.fold_left best_reply no_reply replies

let line_of_result (isin, v, value) =
  if isin then Cache.Entry { version = v; value } else Cache.Gap { version = v }

(* The winning tag of a validation round, with the tie-break of the payload
   fold (first maximal reply in quorum order): the index into [quorum] whose
   tag carries the highest version, scanning left to right with strict
   improvement. *)
let winning_tag tags =
  let version_of = function Rep.Tag_entry v | Rep.Tag_gap v -> v in
  let best = ref 0 in
  Array.iteri
    (fun j t -> if version_of t > version_of tags.(!best) then best := j)
    tags;
  (!best, tags.(!best))

(* Version-validated quorum read (Gifford's weak-representative validation):
   collect the read quorum as version tags — same locks, same serialization
   point, no payload — and serve the cached line when the winning tag agrees
   with it. Otherwise fetch the payload from exactly one member holding the
   winning version (the healthiest one when EWMA scores exist) and install
   the result. Absence needs no payload at all: the winning gap tag *is* the
   result. Hedging covers the validation leg — the fan-out below is the same
   [hedged_fanout] the payload path uses. *)
let suite_lookup_validated ctx bound c =
  let t = ctx.suite in
  let cached = Cache.find c ~epoch:(cache_epoch t) bound in
  let quorum = collect_read_quorum ctx in
  (* Pair every reply with the representative that actually produced it:
     under hedging the slow member's slot may carry the spare's tag, so a
     reply's position in [quorum] does not identify its source. *)
  let ops = [ Rep.B_validate bound ] in
  let replies =
    hedged_fanout ctx quorum (fun i ->
        match exec ctx i ops with [ Rep.R_tag tag ] -> (i, tag) | _ -> assert false)
  in
  let tags = Array.map snd replies in
  let _, tag = winning_tag tags in
  match tag with
  | Rep.Tag_gap gv ->
      (match cached with
      | Some (Cache.Gap { version }) when version = gv -> Cache.note c `Hit
      | Some _ -> Cache.note c `Mismatch
      | None -> Cache.note c `Miss);
      cache_stage t ctx.txn (C_store (bound, Cache.Gap { version = gv }));
      (false, gv, "")
  | Rep.Tag_entry v -> (
      match cached with
      | Some (Cache.Entry { version; value }) when version = v ->
          Cache.note c `Hit;
          (true, v, value)
      | prior -> (
          Cache.note c (match prior with Some _ -> `Mismatch | None -> `Miss);
          (* Everyone whose tag carries the winning version holds the same
             committed (key, version, value) triple — fetch from the
             healthiest of them, identified by responder id, never by
             quorum slot. The validation locked the key at every member it
             reached, so the entry cannot change under us. *)
          let holders =
            let l = ref [] in
            Array.iter
              (fun (src, tg) -> if tg = Rep.Tag_entry v then l := src :: !l)
              replies;
            Array.of_list (List.rev !l)
          in
          let source =
            match t.picker with
            | Picker.Healthy h -> (
                match Picker.Health.best h holders with
                | Some i -> i
                | None -> quorum.(0))
            | _ -> if Array.length holders > 0 then holders.(0) else quorum.(0)
          in
          match exec1 ctx source (Rep.B_lookup bound) with
          | Rep.R_lookup (Gi.Present { version = v'; value }) when v' = v ->
              cache_stage t ctx.txn (C_store (bound, Cache.Entry { version = v'; value }));
              (true, v', value)
          | Rep.R_lookup (Gi.Present _ | Gi.Absent _) ->
              (* The fetched copy contradicts the validated quorum — only
                 possible if source selection escaped the validation's lock
                 coverage (e.g. a hedge spare that answered for a slot but
                 lost a later race). Never serve it: fall back to the full
                 payload quorum read, whose own fold returns the committed
                 maximum, and cache that instead. *)
              let r = suite_lookup_payload ctx ~finishing:false bound in
              cache_stage t ctx.txn (C_store (bound, line_of_result r));
              r
          | _ -> assert false))

(* Cached variant of the finishing lookup: the validation piggybacks on the
   read-only release, so a cache hit stays a single zero-payload round. A
   version mismatch on a present entry discards the round — the granted
   releases are rolled back client-side so round 2 re-locks at every member
   it touches and termination still reaches anyone left holding locks — and
   falls back to the plain payload round, whose locks define the
   serialization point (sound here: the finishing path is only used by
   single-operation implicit transactions, which have no earlier reads to
   stay consistent with). A winning gap tag never needs the fallback: the
   tag is the whole answer. *)
let suite_lookup_finishing_validated ctx bound c =
  let t = ctx.suite in
  let fallback note =
    Cache.note c note;
    let r = suite_lookup_payload ctx ~finishing:true bound in
    cache_stage t ctx.txn (C_store (bound, line_of_result r));
    r
  in
  match Cache.find c ~epoch:(cache_epoch t) bound with
  | None -> fallback `Miss
  | Some line -> (
      let quorum = collect_read_quorum ctx in
      let granted = ref Int_set.empty in
      let ops = [ Rep.B_validate bound; Rep.B_finish_readonly ] in
      let tags =
        fanout ctx
          (fun i ->
            match exec ctx i ops with
            | [ Rep.R_tag tag; Rep.R_finished fin ] ->
                if fin then begin
                  note_finished ctx i;
                  granted := Int_set.add i !granted
                end;
                tag
            | _ -> assert false)
          quorum
      in
      let _, tag = winning_tag tags in
      match (tag, line) with
      | Rep.Tag_gap gv, Cache.Gap { version } when version = gv ->
          Cache.note c `Hit;
          (false, gv, "")
      | Rep.Tag_gap gv, _ ->
          Cache.note c `Mismatch;
          cache_stage t ctx.txn (C_store (bound, Cache.Gap { version = gv }));
          (false, gv, "")
      | Rep.Tag_entry v, Cache.Entry { version; value } when version = v ->
          Cache.note c `Hit;
          (true, v, value)
      | Rep.Tag_entry _, _ ->
          let s = session_of ctx in
          Int_set.iter (fun i -> s.finished <- Int_set.remove i s.finished) !granted;
          fallback `Mismatch)

let suite_lookup_bound ctx bound =
  match ctx.suite.cache with
  | None -> suite_lookup_payload ctx ~finishing:false bound
  | Some c -> suite_lookup_validated ctx bound c

(* --- RealPredecessor / RealSuccessor (Figure 12) ------------------------------- *)

(* One direction of the neighbour walk. [probe] asks a representative for
   its nearest neighbour of a bound, [chain] for that many successive
   neighbours (§4 batching). [pick] chooses the quorum's candidate — the
   nearest of the members' neighbours — starting from the sentinel
   [toward] the walk heads for; [origin] is the sentinel it would start
   from. [beyond n k] holds when [n] lies strictly past [k]. *)
type direction = {
  probe : Bound.t -> Rep.batch_op;
  chain : Bound.t -> int -> Rep.batch_op;
  pick : Bound.t -> Bound.t -> Bound.t;
  toward : Bound.t;
  origin : Bound.t;
  beyond : Bound.t -> Bound.t -> bool;
}

let downward =
  {
    probe = (fun b -> Rep.B_predecessor b);
    chain = (fun b depth -> Rep.B_predecessor_chain (b, depth));
    pick = Bound.max;
    toward = Bound.Low;
    origin = Bound.High;
    beyond = (fun n k -> Bound.compare n k < 0);
  }

let upward =
  {
    probe = (fun b -> Rep.B_successor b);
    chain = (fun b depth -> Rep.B_successor_chain (b, depth));
    pick = Bound.min;
    toward = Bound.High;
    origin = Bound.Low;
    beyond = (fun n k -> Bound.compare n k > 0);
  }

(* Every quorum member's nearest neighbour of [k], one probe message each. *)
let probe_quorum ctx dir quorum k =
  let op = dir.probe k in
  fanout ctx
    (fun i -> match exec1 ctx i op with Rep.R_neighbor n -> n | _ -> assert false)
    quorum

(* The first element of a cached chain lying strictly past [k]. *)
let rec past dir k = function
  | [] -> None
  | (n : Gi.neighbor) :: rest -> if dir.beyond n.Gi.key k then Some n else past dir k rest

(* Walk from [x] through candidate neighbours, skipping ghosts, until a key
   current in the suite is found. Returns the neighbour, its current version
   and value, and the largest gap version seen along the walk — which
   dominates every version ever associated with any key in the range,
   because each step consults a full read quorum.

   At [batch_depth] 1 every step probes the whole quorum: the paper's
   pseudo-code exactly. Deeper (§4), each member ships a chain of that many
   successive neighbours, and a step re-calls — in one fan-out — only the
   members whose cached chain no longer reaches past the probe. A chain
   anchored at k0 lists *consecutive* entries of that representative, so for
   any later probe k short of the anchor, the first chain element past k is
   exactly that representative's neighbour of k, and the element's gap
   version is the gap between the two. *)
let walk ctx dir x =
  let depth = ctx.suite.batch_depth in
  let quorum = collect_read_quorum ctx in
  let chains = if depth = 1 then [||] else Array.map (fun i -> (i, ref [])) quorum in
  let nearest k =
    if depth = 1 then probe_quorum ctx dir quorum k
    else begin
      let stale =
        Array.of_seq
          (Seq.filter (fun (_, chain) -> past dir k !chain = None) (Array.to_seq chains))
      in
      let op = dir.chain k depth in
      ignore
        (fanout ctx
           (fun (i, chain) ->
             match exec1 ctx i op with Rep.R_chain ns -> chain := ns | _ -> assert false)
           stale);
      Array.map (fun (_, chain) -> Option.get (past dir k !chain)) chains
    end
  in
  let maxv = ref Version.lowest in
  let rec step k =
    let cand =
      Array.fold_left
        (fun acc (n : Gi.neighbor) ->
          maxv := Version.max n.Gi.gap_version !maxv;
          dir.pick n.Gi.key acc)
        dir.toward (nearest k)
    in
    let isin, ver, value = suite_lookup_bound ctx cand in
    if isin then (cand, value, ver, !maxv) else step cand
  in
  step (Bound.Key x)

(* --- operation bodies ----------------------------------------------------------- *)

let do_lookup ctx key =
  let bound = Bound.Key key in
  (* A batched single-operation transaction releases the read quorum in the
     same round. *)
  let finishing = ctx.suite.batching && ctx.final in
  let isin, v, value =
    match ctx.suite.cache with
    | None -> suite_lookup_payload ctx ~finishing bound
    | Some c when finishing -> suite_lookup_finishing_validated ctx bound c
    | Some c -> suite_lookup_validated ctx bound c
  in
  if isin then Some (v, value) else None

(* The first run's value of a decision an operation body may re-run after a
   transport failure: the re-run's reads observe the operation's own
   uncommitted writes, so it must not decide again. *)
let remember memo fresh =
  match !memo with
  | Some d -> d
  | None ->
      memo := Some fresh;
      fresh

(* DirSuiteInsert / DirSuiteUpdate (Figure 9).

   [memo] carries the decision across re-runs of the operation body after a
   transport failure: without it, the re-run's lookup would observe the
   operation's *own* uncommitted write and misreport [`Already_present`]
   (and escalate the version). The memoized version also keeps the re-run's
   representative writes literally identical, i.e. idempotent. *)
let do_write ctx memo key value ~must_exist =
  let decide () =
    match !memo with
    | Some d -> d
    | None ->
        let isin, ver, _ = suite_lookup_bound ctx (Bound.Key key) in
        let d =
          if must_exist && not isin then Error `Not_present
          else if (not must_exist) && isin then Error `Already_present
          else Ok (Version.next ver)
        in
        memo := Some d;
        d
  in
  match decide () with
  | Error e -> Error e
  | Ok ver' ->
      let quorum = collect_write_quorum ctx in
      let prepare = piggyback ctx in
      let ops = Rep.B_insert (key, ver', value) :: prepare in
      ignore
        (fanout ctx
           (fun i ->
             ignore (exec ctx i ops);
             if prepare <> [] then note_prepared ctx i)
           quorum);
      cache_stage ctx.suite ctx.txn
        (C_store (Bound.Key key, Cache.Entry { version = ver'; value }));
      Ok ()

(* Fused neighbour walks for the batched delete: round 1 sends the
   successor probe, the predecessor probe, and the victim lookup in one
   message per read-quorum member; each later round carries a walking
   side's candidate resolution (is it current?) together with a speculative
   neighbour probe from it, so skipping a ghost costs one round instead of
   the unbatched walk's probe-round-then-lookup-round pair. The speculative
   probe's replies are discarded — in particular not folded into the
   dominating version — when the candidate turns out current, which is
   exactly the point where the unbatched walk stops probing. Sentinel
   candidates resolve locally: they are present at every representative
   with the lowest version by construction, so their quorum lookup is
   already known. *)
let delete_walk ctx x =
  let quorum = collect_read_quorum ctx in
  let maxv = ref Version.lowest in
  let advance dir neighbours =
    let cand =
      List.fold_left
        (fun acc (n : Gi.neighbor) ->
          maxv := Version.max n.Gi.gap_version !maxv;
          dir.pick acc n.Gi.key)
        dir.toward neighbours
    in
    match cand with
    | Bound.Key k -> `Walk k
    | (Bound.Low | Bound.High) as b -> `Done (b, "", Version.lowest)
  in
  let first =
    fanout ctx
      (fun i ->
        match exec ctx i [ Rep.B_successor x; Rep.B_predecessor x; Rep.B_lookup x ] with
        | [ Rep.R_neighbor s; Rep.R_neighbor p; Rep.R_lookup l ] -> (s, p, l)
        | _ -> assert false)
      quorum
  in
  let s0 = advance upward (Array.to_list (Array.map (fun (s, _, _) -> s) first)) in
  let p0 = advance downward (Array.to_list (Array.map (fun (_, p, _) -> p) first)) in
  let isin, vx, _ = Array.fold_left (fun best (_, _, l) -> best_reply best l) no_reply first in
  let rec resolve s_state p_state =
    match (s_state, p_state) with
    | `Done s, `Done p -> (s, p)
    | _ ->
        let side_ops dir = function
          | `Walk k -> [ Rep.B_lookup (Bound.Key k); dir.probe (Bound.Key k) ]
          | `Done _ -> []
        in
        let s_ops = side_ops upward s_state in
        let p_ops = side_ops downward p_state in
        let parts =
          fanout ctx
            (fun i ->
              match (s_state, p_state, exec ctx i (s_ops @ p_ops)) with
              | ( `Walk _,
                  `Walk _,
                  [ Rep.R_lookup ls; Rep.R_neighbor ns; Rep.R_lookup lp; Rep.R_neighbor np ]
                ) ->
                  ((Some ls, Some ns), (Some lp, Some np))
              | `Walk _, `Done _, [ Rep.R_lookup ls; Rep.R_neighbor ns ] ->
                  ((Some ls, Some ns), (None, None))
              | `Done _, `Walk _, [ Rep.R_lookup lp; Rep.R_neighbor np ] ->
                  ((None, None), (Some lp, Some np))
              | _ -> assert false)
            quorum
        in
        let step dir state proj =
          match state with
          | `Done _ as d -> d
          | `Walk k ->
              let collect part = Array.to_list parts |> List.filter_map (fun p -> part (proj p)) in
              let isin, ver, value = List.fold_left best_reply no_reply (collect fst) in
              if isin then `Done (Bound.Key k, value, ver) else advance dir (collect snd)
        in
        resolve (step upward s_state fst) (step downward p_state snd)
  in
  let s, p = resolve s0 p0 in
  (s, p, isin, vx, !maxv)

(* Batched DirSuiteDelete: the fused walks above already computed every
   input of the final round — the coalesce version [Version.next (max
   walk_ver vx)] needs nothing from the repair round — so the per-member
   existence checks + repair copies, the victim-presence probe, the
   coalesce, and (for an implicit two-phase transaction) the prepare all
   collapse into ONE message per write-quorum member. Member-local op order
   matches the unbatched rounds (repairs before coalesce), and members carry
   no cross-member data dependencies, so the interleaving is equivalent. *)
let do_delete_batched ctx memo key =
  let t = ctx.suite in
  let x = Bound.Key key in
  let (succ, svalue, sver), (pred, pvalue, pver), isin, vx, walk_ver = delete_walk ctx x in
  let isin, ver = remember memo (isin, Version.next (Version.max walk_ver vx)) in
  (* Collected after the walks so the prefer-touched policy can aim the
     write quorum at members the transaction already visited. *)
  let quorum = collect_write_quorum ctx in
  let prepare = piggyback ctx in
  let repair_of = function
    | Bound.Key k, v, value -> [ Rep.B_insert_if_absent (k, v, value) ]
    | (Bound.Low | Bound.High), _, _ -> []
  in
  let ops =
    repair_of (succ, sver, svalue)
    @ repair_of (pred, pver, pvalue)
    @ [ Rep.B_lookup x; Rep.B_coalesce (pred, succ, ver) ]
    @ prepare
  in
  let per_member =
    fanout ctx
      (fun i ->
        let rs = exec ctx i ops in
        if prepare <> [] then note_prepared ctx i;
        let repairs = ref 0 and has_x = ref false and removed = ref 0 in
        List.iter2
          (fun op r ->
            match (op, r) with
            | Rep.B_insert_if_absent _, Rep.R_inserted inserted ->
                if inserted then incr repairs
            | Rep.B_lookup _, Rep.R_lookup (Gi.Present _) -> has_x := true
            | Rep.B_lookup _, Rep.R_lookup (Gi.Absent _) -> ()
            | Rep.B_coalesce _, Rep.R_removed n -> removed := n
            | Rep.B_prepare _, Rep.R_unit -> ()
            | _ -> assert false)
          ops rs;
        (i, !repairs, !has_x, !removed))
      quorum
  in
  let repair_inserts = ref 0 and present_x = ref 0 and total_removed = ref 0 in
  Array.iter
    (fun (_, repairs, has_x, removed) ->
      repair_inserts := !repair_inserts + repairs;
      if has_x then incr present_x;
      total_removed := !total_removed + removed)
    per_member;
  (* The coalesce turns the whole open interval (pred, succ) into one gap at
     [ver]: drop every cached line inside it and remember the victim's new
     gap version. *)
  cache_stage t ctx.txn (C_invalidate_range (pred, succ));
  cache_stage t ctx.txn (C_store (x, Cache.Gap { version = ver }));
  {
    was_present = isin;
    removed_per_rep = Array.map (fun (i, _, _, removed) -> (i, removed)) per_member;
    repair_inserts = !repair_inserts;
    ghosts_deleted = !total_removed - !present_x;
    pred;
    succ;
  }

(* DirSuiteDelete (Figure 13). *)
let do_delete_unbatched ctx memo key =
  let x = Bound.Key key in
  let quorum = collect_write_quorum ctx in
  let succ, svalue, sver, ver1 = walk ctx upward key in
  let pred, pvalue, pver, ver2 = walk ctx downward key in
  let isin, vx, _ = suite_lookup_bound ctx x in
  let isin, ver = remember memo (isin, Version.next (Version.max (Version.max ver1 ver2) vx)) in
  let present i b =
    match exec1 ctx i (Rep.B_lookup b) with
    | Rep.R_lookup (Gi.Present _) -> true
    | Rep.R_lookup (Gi.Absent _) -> false
    | _ -> assert false
  in
  (* Make sure the predecessor and successor exist in every quorum member;
     sentinels exist everywhere by construction. *)
  let repair i = function
    | (Bound.Key k as b), v, value ->
        if present i b then 0
        else begin
          ignore (exec1 ctx i (Rep.B_insert (k, v, value)));
          1
        end
    | (Bound.Low | Bound.High), _, _ -> 0
  in
  let per_member =
    fanout ctx
      (fun i ->
        let s_repairs = repair i (succ, sver, svalue) in
        let p_repairs = repair i (pred, pver, pvalue) in
        (* Not part of Figure 13: observe whether the victim is physically
           present here, to separate ghost deletions in the statistics. *)
        (s_repairs + p_repairs, present i x))
      quorum
  in
  let repair_inserts = ref 0 in
  let present_x = ref 0 in
  Array.iter
    (fun (repairs, has_x) ->
      repair_inserts := !repair_inserts + repairs;
      if has_x then incr present_x)
    per_member;
  (* Coalesce the range in each member with a dominating gap version. *)
  let coalesce = Rep.B_coalesce (pred, succ, ver) in
  let removed =
    fanout ctx
      (fun i ->
        match exec1 ctx i coalesce with Rep.R_removed n -> (i, n) | _ -> assert false)
      quorum
  in
  let total_removed = Array.fold_left (fun acc (_, n) -> acc + n) 0 removed in
  cache_stage ctx.suite ctx.txn (C_invalidate_range (pred, succ));
  cache_stage ctx.suite ctx.txn (C_store (x, Cache.Gap { version = ver }));
  {
    was_present = isin;
    removed_per_rep = removed;
    repair_inserts = !repair_inserts;
    ghosts_deleted = total_removed - !present_x;
    pred;
    succ;
  }

let do_delete ctx memo key =
  if ctx.suite.batching then do_delete_batched ctx memo key else do_delete_unbatched ctx memo key

(* --- transaction plumbing --------------------------------------------------------- *)

let abort_touched t txn =
  match Hashtbl.find_opt t.touched txn with
  | None -> ()
  | Some s ->
      Int_set.iter
        (fun i ->
          acct_send t Wire.control;
          match Transport.send t.transport i (fun rep -> Rep.abort rep ~txn) with
          | Ok () | Error _ -> ()
          | exception Txn.Abort _ ->
              (* The representative's termination protocol already settled
                 this transaction the other way; nothing left to do here. *)
              ())
        (Int_set.diff s.reps s.finished);
      Hashtbl.remove t.touched txn

(* Single-phase commit: best effort. A representative that crashed after
   doing work for us has already lost its volatile state; its WAL lacks our
   commit record, so recovery discards the work. The quorum intersection
   property keeps the suite correct as long as a write quorum's worth of
   commits survive — two-phase commit (below) closes even that window.
   Single-phase commits are never deferred as notices: an unprepared
   participant's lease would unilaterally *abort* work the client was
   already told committed. *)
let commit_one_phase t txn s =
  Int_set.iter
    (fun i ->
      acct_send t Wire.control;
      match Transport.send t.transport i (fun rep -> Rep.commit rep ~txn) with
      | Ok () | Error _ -> ()
      | exception Txn.Abort _ ->
          (* The representative aborted unilaterally (lease expiry) before
             the commit arrived; single-phase commit is best effort, and
             anti-entropy repairs the divergence. *)
          ())
    (Int_set.diff s.reps s.finished);
  Hashtbl.remove t.touched txn

(* The prepare half of presumed-abort two-phase commit, shared between the
   single-suite commit below and the cross-shard protocol ({!cross_prepare}):
   release read-only participants, collect yes votes from the rest, and
   report whether every remaining participant holds a durable vote bound to
   this client's coordinator. Decides nothing — the caller owns the
   decision record, which for a cross-shard transaction covers the prepare
   results of *every* group's suite. *)
let prepare_round t txn s =
  (* A yes-vote is only valid from the incarnation that executed the
     transaction's operations: a participant that restarted since first
     contact has lost volatile state (and a crash may have destroyed its
     unforced log records), so whatever it would vote is worthless — checked
     both before preparing and after the vote lands, in case the restart
     happens while the prepare call itself is in flight. *)
  let same_incarnation i =
    match Hashtbl.find_opt s.incarnations i with
    | Some first -> t.transport.Transport.incarnation i = first
    | None -> true
  in
  let coord = Coordinator.id t.coordinator in
  (* Members released in-round by a read-only finish are out of the
     protocol; members whose vote was piggybacked on their final work round
     already voted yes (a refused piggybacked vote raised out of the batch
     and aborted the transaction before we got here). *)
  let participants = Int_set.diff s.reps s.finished in
  let unprepared = Int_set.diff participants s.prepared in
  (* Batched mode: a participant the transaction only read at can be
     released with a single finish message instead of a prepare+commit
     pair. The representative is authoritative — a refusal (it holds writes
     or a binding vote) falls through to the normal prepare below. *)
  let unprepared =
    if not t.batching then unprepared
    else
      Int_set.filter
        (fun i ->
          acct_send t Wire.control;
          match Transport.send t.transport i (fun rep -> Rep.finish_readonly rep ~txn) with
          | Ok true ->
              s.finished <- Int_set.add i s.finished;
              false
          | Ok false | Error _ -> true
          | exception _ -> true)
        unprepared
  in
  Int_set.for_all
    (fun i ->
      same_incarnation i
      && begin
           acct_send t (Wire.control + 4);
           match Transport.send t.transport i (fun rep -> Rep.prepare rep ~txn ~coord) with
      | Ok () -> same_incarnation i
      | Error _ -> false
      | exception Txn.Abort _ ->
          (* The representative refused the vote (it lost this
             transaction's effects in a crash, or already aborted it
             unilaterally when its lease expired). *)
          false
         end)
    unprepared

(* The commit half: deliver a committed decision to prepared participants.
   Only ever called after the coordinator force-logged [Committed]. *)
let commit_round t txn participants =
  if t.batching then begin
    (* Commit pipelining: every participant holds a durable yes vote
       bound to this coordinator, so the commit notices can ride on
       later messages (or the flush timer). Until one lands, the
       participant's lease expiry resolves the transaction through
       this coordinator's decision log — same verdict, just slower. *)
    Int_set.iter (fun i -> enqueue_notice t i (Rep.N_commit txn)) participants;
    arm_flush t
  end
  else
    Int_set.iter
      (fun i ->
        acct_send t Wire.control;
        match Transport.send t.transport i (fun rep -> Rep.commit rep ~txn) with
        | Ok () | Error _ ->
            (* A participant that crashed here is in doubt; its recovery
               re-locks our effects and resolves them by querying this
               coordinator's decision log. *)
            ()
        | exception Txn.Abort _ ->
            (* Impossible for a prepared participant (it cannot abort once
               its vote is cast unless we decide so); kept total for
               duplicate-delivery races. *)
            ())
      participants

(* Presumed-abort two-phase commit. The client is the coordinator: it runs an
   explicit prepare round over the participants, force-logs a commit decision
   in its own log before telling anyone, then runs the commit round. Any
   prepare failure decides abort — recorded but never forced, because a
   participant that finds no decision on file presumes abort anyway. *)
let commit_two_phase t txn s =
  let all_prepared = prepare_round t txn s in
  let participants = Int_set.diff s.reps s.finished in
  if Int_set.is_empty participants then
    (* Fully read-only and fully released in-round: there is nothing to
       decide and nobody who could ever go in doubt — skip the forced
       decision record entirely. *)
    Hashtbl.remove t.touched txn
  else
    (* First-writer-wins against the termination protocol: an in-doubt
       participant's resolution query may have already presumed abort, in
       which case our commit decision loses and the round below aborts. *)
    let decision =
      Coordinator.decide t.coordinator txn
        (if all_prepared then Coordinator.Committed else Coordinator.Aborted)
    in
    match decision with
    | Coordinator.Committed ->
        commit_round t txn participants;
        Hashtbl.remove t.touched txn
    | Coordinator.Aborted ->
        abort_touched t txn;
        raise (Unavailable ("transaction aborted during two-phase commit" ^ shard_suffix t))

(* --- cross-shard two-phase commit ---------------------------------------------- *)

(* A transaction that touched several shard groups spans several suites —
   one per group, all sharing one transaction manager and one client
   coordinator. The router drives the protocol: [cross_prepare] on every
   touched suite, ONE [Coordinator.decide] (the client's single forced
   decision record covers all groups' participants, who all recorded the
   same coordinator id at prepare time), then [cross_commit] or
   [cross_abort] on every suite. In-doubt resolution needs no changes: a
   participant in any group queries the same coordinator log it would for a
   single-group transaction. *)

let has_participants t txn =
  match Hashtbl.find_opt t.touched txn with
  | None -> false
  | Some s -> not (Int_set.is_empty (Int_set.diff s.reps s.finished))

let cross_prepare t txn =
  match Hashtbl.find_opt t.touched txn with
  | None -> true
  | Some s -> prepare_round t txn s

let cross_commit t txn =
  (match Hashtbl.find_opt t.touched txn with
  | None -> ()
  | Some s ->
      commit_round t txn (Int_set.diff s.reps s.finished);
      Hashtbl.remove t.touched txn);
  (* Each group's suite staged its own cache lines; apply them now that the
     transaction is a committed fact everywhere. *)
  cache_apply t txn

let cross_abort t txn =
  cache_drop t txn;
  abort_touched t txn

let commit_touched t txn =
  match Hashtbl.find_opt t.touched txn with
  | None -> ()
  | Some s ->
      if t.two_phase then commit_two_phase t txn s else commit_one_phase t txn s

let with_txn t f =
  let txn = Txn.Manager.begin_txn t.txns in
  match f txn with
  | result -> (
      match commit_touched t txn with
      | () ->
          Txn.Manager.commit t.txns txn;
          (* Only now are the transaction's writes committed facts; applying
             the staged cache lines any earlier would let an aborted write
             poison the cache with a version number a later committed write
             can legitimately reuse. *)
          cache_apply t txn;
          record_finish t ~txn `Ok;
          result
      | exception e ->
          (* Two-phase commit already aborted the participants. *)
          cache_drop t txn;
          Txn.Manager.abort t.txns txn;
          record_finish t ~txn (failed_commit_status t txn);
          raise e)
  | exception e ->
      cache_drop t txn;
      abort_touched t txn;
      Txn.Manager.abort t.txns txn;
      record_finish t ~txn `Failed;
      raise e

(* Bounded client-level retry: transient failures (no quorum right now, a
   deadlock abort) heal with time, so re-running the whole operation — a
   fresh transaction with fresh quorums — after an exponentially backed-off
   pause is the standard recovery. Aborted attempts rolled everything back,
   so a re-run never double-applies.

   Two fail-fast bounds ride alongside the attempt count. [deadline] caps
   the *cumulative* backoff sleep: with exponential growth the attempt count
   alone is a wall-clock hazard (at the default backoff, seven attempts can
   sleep past any lease), so the default deadline of [48 * backoff] bounds
   total waiting at roughly double the default schedule's worst case —
   generous for every existing caller, finite for all of them. [budget] is a
   shared token bucket ({!Retry_budget}): each retry must buy a token and
   each overall success earns a fraction back, so when unavailability is
   sustained across many operations the client's retries dry up and it
   surfaces the failure instead of amplifying the storm. Both bounds
   re-raise the original failure. *)
let with_retries ?(attempts = 5) ?(backoff = 1.0) ?deadline ?budget
    ?(sleep = fun _ -> ()) ?rng f =
  if attempts < 1 then invalid_arg "Suite.with_retries: need at least one attempt";
  let deadline = match deadline with Some d -> d | None -> 48.0 *. backoff in
  if deadline <= 0.0 then invalid_arg "Suite.with_retries: deadline must be positive";
  let slept = ref 0.0 in
  let rec go k =
    match f () with
    | r ->
        (match budget with Some b -> Retry_budget.earn b | None -> ());
        r
    | exception
        ((Unavailable _ | Txn.Abort (Txn.Deadlock _) | Txn.Abort (Txn.Unavailable _)) as e)
      ->
        if k + 1 >= attempts then raise e
        else begin
          (* The jitter draw stays strictly on the will-retry path, keeping
             the RNG stream identical to the pre-deadline implementation for
             every schedule the bounds never cut short. *)
          let jitter = match rng with Some r -> 0.5 +. Rng.float r 1.0 | None -> 1.0 in
          let pause = backoff *. (2.0 ** float_of_int k) *. jitter in
          if !slept +. pause > deadline then raise e;
          (match budget with
          | Some b when not (Retry_budget.try_spend b) -> raise e
          | Some _ | None -> ());
          slept := !slept +. pause;
          sleep pause;
          go (k + 1)
        end
  in
  go 0

(* Run an operation body, re-running with the failed representative excluded
   when the transport fails mid-flight. Representative operations are
   idempotent for fixed arguments, so a re-run only repeats work. *)
let run_op t ?txn body =
  let attempt ~implicit ~final txn =
    (* The operation's deadline budget becomes an absolute deadline now, at
       operation start — every hop it crosses from here on (RPC stamps,
       body re-runs) consumes the one budget. *)
    let deadline =
      match (t.op_deadline, t.timers) with
      | Some budget, Some timers -> Some (timers.Rep.now () +. budget)
      | _ -> None
    in
    let expired () =
      match (deadline, t.timers) with
      | Some d, Some timers -> timers.Rep.now () > d
      | _ -> false
    in
    let ctx = { txn; excluded = Int_set.empty; suite = t; final; deadline } in
    let rec go () =
      (* Client-side half of deadline propagation: a body re-run (after a
         transport failure or a fence) starts by checking its own clock, so
         an operation that has burned its budget on timeouts stops here
         rather than collecting another quorum. *)
      if expired () then
        raise (Deadline_exceeded "operation deadline exceeded before retry");
      try body ctx with
      | Rep.Deadline_exceeded msg ->
          (* A representative refused already-expired work; the operation
             unwinds (its transaction aborts at the [with_txn]/[run_op]
             boundary, rolling back any partial effects). Not retried by
             [with_retries]: the point is to fail fast. *)
          raise (Deadline_exceeded msg)
      | Transport.Rpc_failed (i, _) ->
          ctx.excluded <- Int_set.add i ctx.excluded;
          go ()
      | Rep.Stale_epoch { record; _ } ->
          (* A representative fenced us: adopt the newer configuration it
             handed back. A single-operation implicit transaction simply
             re-runs its body — fresh quorums, fresh reads — under the new
             epoch (locks already taken stay held until termination, which
             is merely conservative). An explicit multi-operation
             transaction may have collected earlier quorums under a view
             that is now more than one fence old, so it aborts and retries
             wholesale. *)
          adopt t record;
          if implicit then go ()
          else
            raise
              (Txn.Abort (Txn.Unavailable "membership epoch advanced mid-transaction"))
    in
    go ()
  in
  (* Only an implicit single-operation transaction has a known final round;
     inside an explicit [with_txn] the client may keep operating, so nothing
     can be piggybacked on this operation. *)
  match txn with
  | Some txn -> attempt ~implicit:false ~final:false txn
  | None -> with_txn t (attempt ~implicit:true ~final:true)

(* --- public operations --------------------------------------------------------------- *)

let lookup ?txn t key =
  run_op t ?txn (fun ctx ->
      let r = do_lookup ctx key in
      record_prim t ~txn:ctx.txn (History.Lookup (key, Option.map snd r));
      r)

let mem ?txn t key = Option.is_some (lookup ?txn t key)

let insert ?txn t key value =
  let memo = ref None in
  match
    run_op t ?txn (fun ctx ->
        let r = do_write ctx memo key value ~must_exist:false in
        record_prim t ~txn:ctx.txn (History.Insert (key, value, r = Ok ()));
        r)
  with
  | Ok () -> Ok ()
  | Error `Already_present -> Error `Already_present
  | Error `Not_present -> assert false

let update ?txn t key value =
  let memo = ref None in
  match
    run_op t ?txn (fun ctx ->
        let r = do_write ctx memo key value ~must_exist:true in
        record_prim t ~txn:ctx.txn (History.Update (key, value, r = Ok ()));
        r)
  with
  | Ok () -> Ok ()
  | Error `Not_present -> Error `Not_present
  | Error `Already_present -> assert false

let delete ?txn t key =
  let memo = ref None in
  run_op t ?txn (fun ctx ->
      let r = do_delete ctx memo key in
      record_prim t ~txn:ctx.txn (History.Delete (key, r.was_present));
      r)

(* --- ordered traversal --------------------------------------------------------------- *)

(* The neighbour walk already returns the next *current* entry in its
   direction; the sentinels map to None. *)
let step_in ctx dir key =
  match walk ctx dir key with
  | Bound.Key k, value, ver, _maxv -> Some (k, ver, value)
  | (Bound.High | Bound.Low), _, _, _ -> None

let next_in ctx key = step_in ctx upward key

(* The first (resp. last) current entry: ask a read quorum for the neighbour
   of the [origin] sentinel, take the nearest candidate, and resolve it with
   a suite lookup; if it turns out to be a ghost, continue with the normal
   walk from it. *)
let end_in ctx dir =
  let quorum = collect_read_quorum ctx in
  let cand =
    Array.fold_left
      (fun acc (n : Gi.neighbor) -> dir.pick acc n.Gi.key)
      dir.toward
      (probe_quorum ctx dir quorum dir.origin)
  in
  match cand with
  | Bound.High | Bound.Low -> None
  | Bound.Key k ->
      let isin, ver, value = suite_lookup_bound ctx cand in
      if isin then Some (k, ver, value) else step_in ctx dir k

let next ?txn t key = run_op t ?txn (fun ctx -> next_in ctx key)
let prev ?txn t key = run_op t ?txn (fun ctx -> step_in ctx downward key)
let first ?txn t = run_op t ?txn (fun ctx -> end_in ctx upward)
let last ?txn t = run_op t ?txn (fun ctx -> end_in ctx downward)

let fold_range ?txn t ~lo ~hi ~init ~f =
  run_op t ?txn (fun ctx ->
      let start =
        let isin, _, value = suite_lookup_bound ctx (Bound.Key lo) in
        if isin then Some (lo, 0, value) else next_in ctx lo
      in
      let rec go acc = function
        | Some (k, _, value) when Key.compare k hi <= 0 ->
            go (f acc k value) (next_in ctx k)
        | Some _ | None -> acc
      in
      go init start)

let to_alist ?txn t =
  run_op t ?txn (fun ctx ->
      let rec go acc = function
        | Some (k, _, value) -> go ((k, value) :: acc) (next_in ctx k)
        | None -> List.rev acc
      in
      go [] (end_in ctx upward))
