(* Layer unit costs by direct calls, at a workload's state size: the B+tree
   gap map's lookup, insert+coalesce and root digest, one lock
   acquire+release, one WAL append+sync, and one single-key representative
   transaction. The traced run multiplies them by the per-operation call
   counts to estimate how representative-side time splits between gap map,
   lock and log — an estimate, since it ignores cache effects of the
   interleaving. *)

open Repdir_key
open Repdir_gapmap

type t = {
  btree_lookup_ns : float;
  btree_insert_coalesce_ns : float;
  btree_digest_root_ms : float;
  lock_ns : float;
  wal_ns : float;
  rep_txn_us : float;
}

(* Mean wall ns of [f i] over [n] calls, after [n/10] warm-up calls. *)
let per_call_ns n f =
  for i = 0 to (n / 10) - 1 do f i done;
  let t0 = Common.wall_s () in
  for i = 0 to n - 1 do f i done;
  (Common.wall_s () -. t0) *. 1e9 /. float_of_int n

(* A B+tree holding [size] entries on the even keys of [0, 2*size). *)
let filled_btree size =
  let g = Btree.create () in
  for i = 0 to size - 1 do
    Btree.insert g (Common.key (2 * i)) 1 "v"
  done;
  g

let measure ~size ~seed =
  let rng = Repdir_util.Rng.create seed in
  let g = filled_btree size in
  let keys = Array.init 4096 (fun _ -> Bound.Key (Common.key (Repdir_util.Rng.int rng (2 * size)))) in
  let btree_lookup_ns =
    per_call_ns 200_000 (fun i -> ignore (Btree.lookup g keys.(i land 4095)))
  in
  (* Insert a fresh odd key, then coalesce it away again under a higher gap
     version: the gap map ends each call at the size it started. *)
  let version = ref 10 in
  let btree_insert_coalesce_ns =
    per_call_ns 100_000 (fun i ->
        let k = (2 * ((i * 7919) mod (size - 1))) + 1 in
        incr version;
        Btree.insert g (Common.key k) !version "v";
        incr version;
        ignore
          (Btree.coalesce g
             ~lo:(Bound.Key (Common.key (k - 1)))
             ~hi:(Bound.Key (Common.key (k + 1)))
             !version))
  in
  let rounds = max 3 (min 50 (2_000_000 / max 1 size)) in
  let btree_digest_root_ms =
    per_call_ns rounds (fun _ -> ignore (Btree.digest_range g ~lo:Bound.Low ~hi:Bound.High))
    /. 1e6
  in
  let lock_ns =
    let open Repdir_lock in
    let m = Lock_manager.create () in
    per_call_ns 200_000 (fun i ->
        let iv = Bound.Interval.point keys.(i land 4095) in
        (match Lock_manager.acquire m ~txn:i Mode.Rep_modify iv ~on_grant:ignore with
        | Lock_manager.Granted -> ()
        | Lock_manager.Waiting | Lock_manager.Deadlock _ -> assert false);
        Lock_manager.release_all m ~txn:i)
  in
  let wal_ns =
    let open Repdir_txn in
    let w = Wal.create () in
    per_call_ns 100_000 (fun i ->
        Wal.append w (Wal.Insert (i, Common.key i, 1, "v"));
        Wal.sync w)
  in
  let rep_txn_us =
    let open Repdir_rep in
    let n = min size 20_000 in
    let rep = Rep.create ~name:"unit" () in
    for i = 0 to n - 1 do
      Rep.insert rep ~txn:(i + 1) (Common.key (2 * i)) 1 "v";
      Rep.commit rep ~txn:(i + 1)
    done;
    let txn = ref (n + 1) and v = ref 10 in
    per_call_ns 20_000 (fun i ->
        incr txn;
        incr v;
        let k = (2 * ((i * 7919) mod (n - 1))) + 1 in
        Rep.insert rep ~txn:!txn (Common.key k) !v "v";
        Rep.commit rep ~txn:!txn;
        incr txn;
        incr v;
        ignore
          (Rep.coalesce rep ~txn:!txn
             ~lo:(Bound.Key (Common.key (k - 1)))
             ~hi:(Bound.Key (Common.key (k + 1)))
             !v);
        Rep.commit rep ~txn:!txn)
    /. 2000.0
  in
  {
    btree_lookup_ns;
    btree_insert_coalesce_ns;
    btree_digest_root_ms;
    lock_ns;
    wal_ns;
    rep_txn_us;
  }

let report (r : Common.Result.t) u =
  let l = Common.Result.layer r in
  l "gapmap.lookup_ns" "ns" u.btree_lookup_ns;
  l "gapmap.insert_coalesce_ns" "ns" u.btree_insert_coalesce_ns;
  l "gapmap.digest_root_ms" "ms" u.btree_digest_root_ms;
  l "lock.acquire_release_ns" "ns" u.lock_ns;
  l "wal.append_sync_ns" "ns" u.wal_ns;
  l "rep.txn_us" "us" u.rep_txn_us

(* Count x unit-cost estimate of representative-side time per client
   operation, split by layer. [gapmap_calls] counts gap-map touches
   (lookups, probes, inserts, coalesces), [lock_calls] lock requests,
   [wal_records] log records appended. *)
let attribute (r : Common.Result.t) u ~gapmap_calls ~coalesces ~lock_calls ~wal_records =
  let l = Common.Result.layer r in
  l "est.gapmap_us_per_op" "us"
    (((gapmap_calls -. coalesces) *. u.btree_lookup_ns
     +. (coalesces *. u.btree_insert_coalesce_ns))
    /. 1000.0);
  l "est.lock_us_per_op" "us" (lock_calls *. u.lock_ns /. 1000.0);
  l "est.wal_us_per_op" "us" (wal_records *. u.wal_ns /. 1000.0)
