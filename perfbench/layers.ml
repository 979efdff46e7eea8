(* Per-layer accounting shared by the workloads: counter snapshots taken
   around the traced pass, turned into per-operation figures. Counters come
   from the library's public accessors (Rep.counters, Rep.wal_length,
   Transport counters, Coordinator.counters); call counts and busy times
   come from the benchmark's own spans. *)

open Repdir_core
module R = Common.Result

(* Sum of the per-representative counters the per-layer figures use, so a
   workload can take a before/after difference over all its reps. *)
type rep_sums = {
  lookups : int;
  probes : int;
  inserts : int;
  coalesces : int;
  batches : int;
  batch_ops : int;
  validates : int;
  notices : int;
  lock_waits : int;
  wal : int;
}

let rep_sums reps =
  let open Repdir_rep in
  Array.fold_left
    (fun s r ->
      let c = Rep.counters r in
      {
        lookups = s.lookups + c.Rep.lookups;
        probes = s.probes + c.Rep.predecessors + c.Rep.successors;
        inserts = s.inserts + c.Rep.inserts;
        coalesces = s.coalesces + c.Rep.coalesces;
        batches = s.batches + c.Rep.batches;
        batch_ops = s.batch_ops + c.Rep.batch_ops;
        validates = s.validates + c.Rep.validates;
        notices = s.notices + c.Rep.notices_applied;
        lock_waits = s.lock_waits + c.Rep.lock_waits;
        wal = s.wal + Rep.wal_length r;
      })
    {
      lookups = 0;
      probes = 0;
      inserts = 0;
      coalesces = 0;
      batches = 0;
      batch_ops = 0;
      validates = 0;
      notices = 0;
      lock_waits = 0;
      wal = 0;
    }
    reps

let rep_diff a b =
  {
    lookups = b.lookups - a.lookups;
    probes = b.probes - a.probes;
    inserts = b.inserts - a.inserts;
    coalesces = b.coalesces - a.coalesces;
    batches = b.batches - a.batches;
    batch_ops = b.batch_ops - a.batch_ops;
    validates = b.validates - a.validates;
    notices = b.notices - a.notices;
    lock_waits = b.lock_waits - a.lock_waits;
    wal = b.wal - a.wal;
  }

type snap = {
  reps : rep_sums;
  msgs : int;
  bytes : int;
  retries : int;
  log : int;
  commits : int;
  aborts : int;
  rep_wall : float;
  rep_calls : int;
  timeouts : int;
}

let snap ~reps ~(transports : Transport.t list) ~coords =
  let sum f l = List.fold_left (fun a x -> a + f x) 0 l in
  let cc c = Repdir_txn.Coordinator.counters c in
  {
    reps = rep_sums reps;
    msgs = sum (fun (t : Transport.t) -> t.msg_count) transports;
    bytes = sum (fun (t : Transport.t) -> t.bytes_count) transports;
    retries = sum (fun (t : Transport.t) -> t.retry_count) transports;
    log = sum Repdir_txn.Coordinator.log_length coords;
    commits = sum (fun c -> (cc c).Repdir_txn.Coordinator.commits) coords;
    aborts = sum (fun c -> (cc c).Repdir_txn.Coordinator.aborts) coords;
    rep_wall = !Wrap.rep_wall_us;
    rep_calls = !Wrap.rep_calls;
    timeouts = !Wrap.timeouts;
  }

(* [op_names]: the client operations the per-op figures cover.
   [wall]: the trace clock is wall microseconds (in-process workloads);
   otherwise it is virtual time and the transport figure is a wait. *)
let report (r : R.t) ~ops ~op_names ~wall ~(trace : Common.Trace.t) ~(a : snap) ~(b : snap)
    ~units =
  let l = R.layer r in
  let d = rep_diff a.reps b.reps in
  let per x = Common.per x ops and perf x = Common.perf x ops in
  let n_self, self = Common.Trace.sum_ops trace "self" op_names in
  let n_in, inside = Common.Trace.sum_ops trace "incall" op_names in
  if wall then begin
    l "suite.self_us_per_op" "us" (Common.perf self n_self);
    l "transport.us_per_op" "us" (Common.perf inside n_in)
  end
  else l "transport.wait_u_per_op" "u" (Common.perf inside n_in);
  l "transport.calls_per_op" "count" (per (Common.Trace.agg trace "transport.call").count);
  l "transport.msgs_per_op" "count" (per (b.msgs - a.msgs));
  l "transport.bytes_per_op" "bytes" (per (b.bytes - a.bytes));
  l "transport.retries_per_op" "count" (per (b.retries - a.retries));
  l "transport.timeouts_per_op" "count" (per (b.timeouts - a.timeouts));
  l "rep.lookups_per_op" "count" (per d.lookups);
  l "rep.neighbour_probes_per_op" "count" (per d.probes);
  l "rep.inserts_per_op" "count" (per d.inserts);
  l "rep.coalesces_per_op" "count" (per d.coalesces);
  l "rep.batches_per_op" "count" (per d.batches);
  l "rep.ops_per_batch" "count" (Common.per d.batch_ops d.batches);
  l "rep.validates_per_op" "count" (per d.validates);
  l "rep.notices_per_op" "count" (per d.notices);
  l "rep.us_per_call" "us" (Common.perf (b.rep_wall -. a.rep_wall) (b.rep_calls - a.rep_calls));
  l "lock.waits_per_op" "count" (per d.lock_waits);
  l "wal.records_per_op" "count" (per d.wal);
  l "coord.log_records_per_op" "count" (per (b.log - a.log));
  l "coord.commits_per_op" "count" (per (b.commits - a.commits));
  l "coord.aborts_per_op" "count" (per (b.aborts - a.aborts));
  (* Every representative operation touches the gap map once and takes one
     lock; coalesces are the expensive gap-map calls. *)
  let gapmap_calls = perf (float_of_int (d.lookups + d.probes + d.inserts + d.coalesces + d.validates)) in
  Unit_costs.attribute r units ~gapmap_calls ~coalesces:(perf (float_of_int d.coalesces))
    ~lock_calls:gapmap_calls ~wal_records:(perf (float_of_int d.wal))
