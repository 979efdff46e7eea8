(* sim-sharded: Shard_world with 4 groups x 3-2-2 on the simulator,
   exponential message delay with mean 1u, RPC timeout 200u, two-phase
   commit with batching and a per-client cache, lease 60u. 16 client
   sessions are fed by one open-loop Poisson generator; each session serves
   its requests FIFO and every request is timed from its due time. Keys are
   Zipf (s = 1) over a key space four times a client's total cache lines,
   half of them preloaded. Mix: 60% lookup, 10% insert, 10% update, 10%
   delete, 5% 16-key scans (which may cross a shard cut), 5% two-key
   cross-shard Router.with_txn transfers. Virtual latency is set by rounds,
   messages, lock waits, cache hits and cross-shard 2PC, not by CPU.

   A run is one pass per two seconds of run: each pass builds a fresh
   deployment and replays the same seeded schedule on it. The simulation is
   deterministic, so every pass must end in the same state as the first,
   which alone is scrubbed; the wall-time figures are the passes' medians.
   A ladder of offered rates follows, a fresh deployment per step, every one
   of them audited. *)

open Repdir_core
open Repdir_rep
open Repdir_sim
open Repdir_shard
open Repdir_harness
module R = Common.Result
module Rng = Repdir_util.Rng

type sizes = {
  cache_lines : int;  (* per suite; a client has one suite per group *)
  rate : float;  (* nominal offered load, ops per virtual unit *)
  ops_per_pass : int;  (* nominal-rate operations per pass *)
  ladder : float list;  (* offered rates probed for the sustained rate *)
  ladder_ops : int;  (* operations per ladder step *)
}

let groups = 4
let sessions = 16
let lease = 60.0
let p99_limit_u = 200.0

(* The simulated RPC timeout. Shard_world's default (50u) is below the lock
   lease (60u), so an RPC queued behind a lock times out although nothing
   failed, and the suite re-runs the operation body. Above the lease plus a
   round trip, a request waiting on a lock gets its answer. Such a re-run is
   where Suite.delete's missing memo shows (README, "Known defects");
   [--rpc-timeout 50] brings it back. *)
let rpc_timeout = ref 200.0
let config = Repdir_quorum.Config.simple ~n:3 ~r:2 ~w:2

let full =
  {
    cache_lines = 1024;
    rate = 0.3;
    ops_per_pass = 6_000;
    ladder = [ 0.2; 0.4; 0.6; 0.8; 1.0 ];
    ladder_ops = 3_000;
  }

let tiny = { cache_lines = 32; rate = 0.3; ops_per_pass = 400; ladder = [ 0.2; 0.6 ]; ladder_ops = 200 }
let key_space s = 4 * groups * s.cache_lines

type kind = Lookup | Insert | Update | Delete | Scan | Transfer

let kinds = [ Lookup; Insert; Update; Delete; Scan; Transfer ]

let kind_name = function
  | Lookup -> "lookup"
  | Insert -> "insert"
  | Update -> "update"
  | Delete -> "delete"
  | Scan -> "scan"
  | Transfer -> "transfer"

type request = {
  id : int;
  due : float;  (* virtual *)
  session : int;
  kind : kind;
  k1 : int;
  k2 : int;  (* scan end, or the transfer's second key *)
}

(* --- the input: a seeded open-loop schedule ------------------------------------ *)

(* Zipf ranks are mapped to keys through a seeded permutation, so the hot
   head is spread over all shards. *)
let schedule ~sizes ~seed ~rate ~n =
  let ks = key_space sizes in
  let rng = Rng.create seed in
  let perm = Array.init ks Fun.id in
  Rng.shuffle rng perm;
  let zipf = Repdir_util.Zipf.create ~n:ks ~s:1.0 in
  let draw () = perm.(Repdir_util.Zipf.sample zipf rng) in
  let shard_of k = k * groups / ks in
  let t = ref 0.0 in
  Array.init n (fun id ->
      t := !t +. Rng.exponential rng ~mean:(1.0 /. rate);
      let x = Rng.int rng 100 in
      let kind =
        if x < 60 then Lookup
        else if x < 70 then Insert
        else if x < 80 then Update
        else if x < 90 then Delete
        else if x < 95 then Scan
        else Transfer
      in
      let k1 = draw () in
      let k2 =
        match kind with
        | Scan -> min (ks - 1) (k1 + 15)
        | Transfer ->
            let rec other () =
              let k = draw () in
              if shard_of k <> shard_of k1 then k else other ()
            in
            other ()
        | _ -> k1
      in
      { id; due = !t; session = Rng.int rng sessions; kind; k1; k2 })

let preloaded ~sizes ~seed =
  let ks = key_space sizes in
  let rng = Rng.create (Int64.add seed 17L) in
  let keys = Array.init ks Fun.id in
  Rng.shuffle rng keys;
  let set = Hashtbl.create ks in
  for j = 0 to (ks / 2) - 1 do
    Hashtbl.replace set keys.(j) (Printf.sprintf "p%d" keys.(j))
  done;
  set

(* --- the deployment ------------------------------------------------------------------ *)

type world = {
  w : Shard_world.t;
  routers : Router.t array;
  ctxs : Wrap.ctx array;
  audited : bool;  (* histories feed [checker]; quiesce scrubs *)
  checker : Repdir_audit.Checker.t;
  invoked : float array;  (* per session: virtual time its current attempt was invoked *)
}

(* The recorder stamps each primitive when the suite records it, which is
   after the reply came back; with batching, a read-only visit releases its
   locks in the same round, so the operation may serialize before that
   stamp. The checker's intervals must start at the invocation, so every
   primitive is re-stamped with the time the session invoked the attempt
   (as Jepsen-style histories record it). Events finish within their
   attempt, so the attempt in flight is the event's. *)
let from_invocation t0 (ev : Repdir_audit.History.event) =
  { ev with start_ = t0; prims = List.map (fun (_, p) -> (t0, p)) ev.prims }

let build ~sizes ~seed ~preload ~audited =
  let ks = key_space sizes in
  let w =
    Shard_world.create ~seed ~rpc_timeout:!rpc_timeout
      ~latency:(fun rng -> Rng.exponential rng ~mean:1.0)
      ~n_clients:sessions ~lease ~config ~groups ()
  in
  let sim = Shard_world.sim w in
  let txns = Shard_world.txns w in
  (* Direct single-key representative transactions on the owning group. *)
  Hashtbl.iter
    (fun i v ->
      let g = i * groups / ks in
      let txn = Repdir_txn.Txn.Manager.begin_txn txns in
      Array.iter
        (fun rep ->
          Rep.insert rep ~txn (Common.key i) 1 v;
          Rep.commit rep ~txn)
        (Shard_world.group_reps w g);
      Repdir_txn.Txn.Manager.commit txns txn)
    preload;
  let checker =
    Repdir_audit.Checker.create
      ~initial:(fun k -> Hashtbl.find_opt preload (int_of_string k))
      ~clients:sessions ()
  in
  let map = Shard_map.initial ~cuts:(List.init (groups - 1) (fun g -> Common.key ((g + 1) * ks / groups))) in
  let timers =
    { Rep.now = (fun () -> Sim.now sim); after = (fun d k -> Sim.spawn sim ~at:(Sim.now sim +. d) k) }
  in
  let invoked = Array.make sessions 0.0 in
  let ctxs = Array.init sessions (fun _ -> Wrap.ctx ~n:(Repdir_quorum.Config.n_reps config)) in
  let routers =
    Array.init sessions (fun c ->
        let recorder = Shard_world.recorder_for_client w c in
        if audited then
          Repdir_audit.History.set_sink recorder (fun ev ->
              Repdir_audit.Checker.feed checker (from_invocation invoked.(c) ev));
        Router.create
          ~refresh:(fun g -> Shard_world.shard_view_peek w c g)
          ~groups ~map ~txns
          ~make_suite:(fun g info ->
            Suite.create
              ~seed:(Int64.add seed (Int64.of_int ((c * groups) + g + 1)))
              ~batching:true ~recorder
              ~cache:(Repdir_cache.Cache.create ~capacity:sizes.cache_lines ())
              ~shard:info ~timers ~two_phase:true ~coordinator:(Shard_world.coordinator w c)
              ~config:(Shard_world.group_config w g)
              ~transport:(Wrap.transport ctxs.(c) (Shard_world.client_transport w c g))
              ~txns ())
          ())
  in
  { w; routers; ctxs; audited; checker; invoked }

(* --- one open-loop run ------------------------------------------------------------------ *)

type outcome = {
  n : int;
  completed : int;
  failed : int;
  wall_s : float;
  vlat : Common.Samples.t;  (* virtual, from due time *)
  wlat : Common.Samples.t;  (* wall us, from the moment the due time was reached *)
  transfer_vlat : Common.Samples.t;
  span_u : float;  (* first due time to last completion *)
  backlog_mid : int;
  backlog_end : int;  (* arrived but unfinished, at the last arrival *)
  retries : int;
  backoff_u : float;
  minor_words : float;
  retained_words : float;  (* live-word growth across the run *)
  msgs : int;  (* transport messages, all sessions *)
  scan_errors : int;
  cross : int;
}

let value_of (r : request) = Printf.sprintf "s%d-r%d" r.session r.id

(* Run [req] on [router]; raises on failure after retries. *)
let execute world router (r : request) ~attempts ~backoff ~scan_errors =
  let sim = Shard_world.sim world.w in
  let invoked = world.invoked in
  let retry_rng = Rng.create (Int64.of_int (r.id + 1)) in
  let sleep d =
    backoff := !backoff +. d;
    Sim.sleep sim d
  in
  Suite.with_retries ~attempts:12 ~backoff:2.0 ~deadline:500.0 ~sleep ~rng:retry_rng (fun () ->
      incr attempts;
      invoked.(r.session) <- Sim.now sim;
      let k1 = Common.key r.k1 and k2 = Common.key r.k2 in
      let v = value_of r in
      match r.kind with
      | Lookup -> ignore (Router.lookup router k1 : (_ * string) option)
      | Insert -> ignore (Router.insert router k1 v : (unit, _) result)
      | Update -> ignore (Router.update router k1 v : (unit, _) result)
      | Delete -> ignore (Router.delete router k1 : Suite.delete_report)
      | Scan ->
          let got = Router.fold_range router ~lo:k1 ~hi:k2 ~init:[] ~f:(fun acc k _ -> k :: acc) in
          (* Strictly descending (we consed ascending keys), all in range. *)
          let rec sorted = function
            | a :: (b :: _ as rest) -> String.compare a b > 0 && sorted rest
            | _ -> true
          in
          if not (sorted got && List.for_all (fun k -> k >= k1 && k <= k2) got) then incr scan_errors
      | Transfer ->
          Router.with_txn router (fun txn ->
              let put k =
                match Router.lookup ~txn router k with
                | Some _ -> ignore (Router.update ~txn router k v : (unit, _) result)
                | None -> ignore (Router.insert ~txn router k v : (unit, _) result)
              in
              put k1;
              put k2))

let run_open_loop ~sizes world (reqs : request array) =
  let sim = Shard_world.sim world.w in
  let n = Array.length reqs in
  let queues = Array.init sessions (fun _ -> Queue.create ()) in
  let wakers = Array.make sessions None in
  let assigned = Array.make sessions 0 in
  Array.iter (fun r -> assigned.(r.session) <- assigned.(r.session) + 1) reqs;
  let wall_due = Array.make n 0.0 in
  let vlat = Common.Samples.create ~cap:n () and wlat = Common.Samples.create ~cap:n () in
  let transfer_vlat = Common.Samples.create ~cap:n () in
  let completed = ref 0 and failed = ref 0 and finished = ref 0 and arrived = ref 0 in
  let attempts = ref 0 and backoff = ref 0.0 and scan_errors = ref 0 in
  let last_done = ref 0.0 in
  let backlog_mid = ref 0 and backlog_end = ref 0 in
  let cross =
    Array.fold_left
      (fun a r ->
        let ks = key_space sizes in
        if r.kind = Transfer || (r.kind = Scan && r.k1 * groups / ks <> r.k2 * groups / ks) then a + 1
        else a)
      0 reqs
  in
  Array.iter
    (fun r ->
      Sim.at sim r.due (fun () ->
          wall_due.(r.id) <- Common.wall_us ();
          incr arrived;
          if r.id = n / 2 then backlog_mid := !arrived - !finished;
          if r.id = n - 1 then backlog_end := !arrived - !finished;
          Queue.push r queues.(r.session);
          match wakers.(r.session) with
          | Some wake ->
              wakers.(r.session) <- None;
              wake ()
          | None -> ()))
    reqs;
  for s = 0 to sessions - 1 do
    Sim.spawn sim (fun () ->
        let ctx = world.ctxs.(s) in
        for _ = 1 to assigned.(s) do
          if Queue.is_empty queues.(s) then Sim.suspend sim (fun wake -> wakers.(s) <- Some wake);
          let r = Queue.pop queues.(s) in
          (match
             Wrap.op ctx (kind_name r.kind) (fun () ->
                 execute world world.routers.(s) r ~attempts ~backoff ~scan_errors)
           with
          | () -> incr completed
          | exception (Suite.Unavailable _ | Repdir_txn.Txn.Abort _ | Suite.Deadline_exceeded _) ->
              incr failed);
          incr finished;
          let now = Sim.now sim in
          last_done := Float.max !last_done now;
          Common.Samples.add vlat (now -. r.due);
          Common.Samples.add wlat (Common.wall_us () -. wall_due.(r.id));
          if r.kind = Transfer then Common.Samples.add transfer_vlat (now -. r.due)
        done)
  done;
  let msg_count () =
    Array.fold_left
      (fun a rt ->
        List.fold_left
          (fun a g -> a + (Suite.transport (Router.suite rt g)).msg_count)
          a (List.init groups Fun.id))
      0 world.routers
  in
  let live0 = Common.live_words () in
  let msgs0 = msg_count () in
  let m0 = Gc.minor_words () in
  let t0 = Common.wall_s () in
  while !finished < n && Sim.step sim do
    ()
  done;
  let wall_s = Common.wall_s () -. t0 in
  let minor_words = Gc.minor_words () -. m0 in
  let msgs = msg_count () - msgs0 in
  let live1 = Common.live_words () in
  {
    n;
    completed = !completed;
    failed = !failed + (n - !finished);
    wall_s;
    vlat;
    wlat;
    transfer_vlat;
    span_u = !last_done -. (if n > 0 then reqs.(0).due else 0.0);
    backlog_mid = !backlog_mid;
    backlog_end = !backlog_end;
    retries = !attempts - n;
    backoff_u = !backoff;
    minor_words;
    retained_words = live1 -. live0;
    msgs;
    scan_errors = !scan_errors;
    cross;
  }

let all_reps world = Array.concat (List.init groups (Shard_world.group_reps world.w))

(* Settle the deployment and audit it: deliver queued commit notices, wait
   out the lease so abandoned work terminates, then scrub every group and
   close the strict-serializability checker. [label] names the deployment
   in failed checks. A deployment built unaudited is a replay that must end
   in the same state as an audited one: it skips the scrubber, whose key
   sweep is quadratic in the keys a group holds (seconds per deployment
   here), and its checker saw nothing. Returns the locks still held and the
   keys the checker gave up on. *)
let quiesce_and_audit (r : R.t) ~label world =
  let sim = Shard_world.sim world.w in
  let settled = ref false in
  Sim.spawn sim (fun () ->
      Array.iter
        (fun router ->
          for g = 0 to groups - 1 do
            Suite.flush_notices (Router.suite router g)
          done)
        world.routers;
      Sim.sleep sim (lease +. 30.0);
      settled := true);
  while (not !settled) && Sim.step sim do
    ()
  done;
  R.check r !settled "%s: the deployment did not settle" label;
  let in_doubt = ref 0 in
  for g = 0 to groups - 1 do
    let reps = Shard_world.group_reps world.w g in
    Array.iter (fun rep -> in_doubt := !in_doubt + Rep.in_doubt_count rep) reps;
    if world.audited then
      List.iter
        (fun v -> R.check r false "%s: scrub of group %d: %s" label g v)
        (Repdir_audit.Scrub.run ~config:(Shard_world.group_config world.w g) reps)
  done;
  R.check r (!in_doubt = 0) "%s: %d in-doubt transactions at quiesce" label !in_doubt;
  Repdir_audit.Checker.finalize world.checker;
  let violations = Repdir_audit.Checker.violations world.checker in
  List.iter
    (fun v ->
      R.check r false "%s: strict-serializability violation: %s" label
        (Format.asprintf "%a" Repdir_audit.Checker.pp_violation v))
    violations;
  let given_up = List.length (Repdir_audit.Checker.stats world.checker).given_up in
  (Common.locks_held r ~workload:label (all_reps world), given_up)

let summarize_vlat (o : outcome) = (Common.Samples.median o.vlat, Common.Samples.percentile o.vlat 0.99)

(* A ladder step sustains its rate when every request succeeded, p99 meets
   the limit, and the backlog did not grow over the second half. *)
let sustains (o : outcome) =
  let _, p99 = summarize_vlat o in
  o.failed = 0 && p99 <= p99_limit_u && o.backlog_end <= (2 * o.backlog_mid) + sessions

(* What identifies a pass's end state: every replay of the schedule must
   reach the same one. *)
let fingerprint world (o : outcome) =
  (o.completed, o.failed, summarize_vlat o, Array.map Rep.root_digest (all_reps world))

type 'fp pass = { fp : 'fp; o : outcome; setups : float list; given_up : int }

let run ~sizes ~seed ~seconds ~traced (r : R.t) =
  let seed64 = Int64.of_int seed in
  let preload = preloaded ~sizes ~seed:seed64 in
  let build audited () = build ~sizes ~seed:seed64 ~preload ~audited in
  let n = sizes.ops_per_pass in
  let reqs = schedule ~sizes ~seed:seed64 ~rate:sizes.rate ~n in
  let timeouts0 = !Wrap.timeouts in
  (* One pass: a fresh deployment (the last of [k] set-ups), the schedule,
     the audit. *)
  let pass ~k ~audited ~label reqs =
    let world, setups = Common.timed_setups k (build audited) in
    let o = run_open_loop ~sizes world reqs in
    let held, given_up = quiesce_and_audit r ~label world in
    R.check r (o.scan_errors = 0) "%s: %d scans returned out-of-range or unsorted keys" label
      o.scan_errors;
    (world, o, setups, held, given_up)
  in
  let last = ref None in
  let passes =
    List.init
      (max 1 (seconds / 2))
      (fun i ->
        last := None;
        let world, o, setups, held, given_up = pass ~k:3 ~audited:(i = 0) ~label:"sim-sharded" reqs in
        last := Some (world, held);
        { fp = fingerprint world o; o; setups; given_up })
  in
  let world, held = Option.get !last in
  let first = List.hd passes in
  let o = first.o in
  List.iteri
    (fun i p ->
      R.check r (p.fp = first.fp) "sim-sharded: pass %d ended in another state than pass 0" i)
    passes;
  let med f = Common.median_by f passes in
  let per_op x = x /. float_of_int n in
  R.e2e r "setup_s" "s" (Common.median_of (List.concat_map (fun p -> p.setups) passes));
  R.e2e r "msgs_per_op" "count" (Common.per o.msgs n);
  R.info r "ops_per_s" "1/s" (med (fun { o; _ } -> float_of_int n /. o.wall_s));
  R.info r "op_p50_us" "us" (med (fun { o; _ } -> Common.Samples.median o.wlat));
  R.info r "op_p99_us" "us" (med (fun { o; _ } -> Common.Samples.percentile o.wlat 0.99));
  R.e2e r "alloc_words_per_op" "words" (med (fun { o; _ } -> per_op o.minor_words));
  R.e2e r "retained_words_per_op" "words" (med (fun { o; _ } -> per_op o.retained_words));
  let p50, p99 = summarize_vlat o in
  R.info r "vlat_p50_u" "u" p50;
  R.info r "vlat_p99_u" "u" p99;
  R.info r "goodput_per_100u" "1/100u" (100.0 *. float_of_int o.completed /. o.span_u);
  let untraced_wall = med (fun { o; _ } -> o.wall_s) in
  R.info r "sim_us_per_op" "us" (untraced_wall *. 1e6 /. float_of_int n);
  R.info r "generator_lateness_u" "u" 0.0;
  R.info r "backlog_end" "count" (float_of_int o.backlog_end);
  R.info r "checker_given_up" "count" (float_of_int first.given_up);
  R.info r "transport_timeouts_per_pass" "count"
    (float_of_int (!Wrap.timeouts - timeouts0) /. float_of_int (List.length passes));
  let attempted = ref (n * List.length passes) in
  let failed = ref (List.fold_left (fun a p -> a + p.o.failed) 0 passes) in
  (* The ladder: a fresh, audited deployment per offered rate, climbing
     until a rate is not sustained. *)
  let rec climb best = function
    | [] -> best
    | rate :: rest ->
        let reqs =
          schedule ~sizes ~seed:(Int64.add seed64 (Int64.of_float (rate *. 1000.0))) ~rate
            ~n:sizes.ladder_ops
        in
        let _, ol, _, _, _ = pass ~k:1 ~audited:true ~label:(Printf.sprintf "sim-sharded ladder %.2f" rate) reqs in
        attempted := !attempted + ol.n;
        failed := !failed + ol.failed;
        R.info r (Printf.sprintf "ladder_%.2f_p99_u" rate) "u" (snd (summarize_vlat ol));
        R.info r (Printf.sprintf "ladder_%.2f_backlog_end" rate) "count" (float_of_int ol.backlog_end);
        R.info r (Printf.sprintf "ladder_%.2f_failed" rate) "count" (float_of_int ol.failed);
        if sustains ol then climb rate rest else best
  in
  R.info r "sustained_rate" "1/u" (climb 0.0 sizes.ladder);
  if traced then begin
    (* The traced pass: one more replay of the schedule with spans on. *)
    let wt, _ = Common.timed_setup (build false) in
    let tr = Common.Trace.create ~on:true ~clock:(fun () -> Sim.now (Shard_world.sim wt.w)) () in
    Array.iter (fun (c : Wrap.ctx) -> c.trace <- tr) wt.ctxs;
    let suites = List.concat_map (fun rt -> List.init groups (Router.suite rt)) (Array.to_list wt.routers) in
    let snap () =
      Layers.snap ~reps:(all_reps wt) ~transports:(List.map Suite.transport suites)
        ~coords:(List.init sessions (Shard_world.coordinator wt.w))
    in
    let sim = Shard_world.sim wt.w and net = Shard_world.net wt.w in
    let ev0 = Sim.events_executed sim and msg0 = Net.messages_sent net in
    let a = snap () in
    let ot = run_open_loop ~sizes wt reqs in
    let b = snap () in
    let ev1 = Sim.events_executed sim and msg1 = Net.messages_sent net in
    ignore (quiesce_and_audit r ~label:"sim-sharded traced" wt : int * int);
    Array.iter (fun (c : Wrap.ctx) -> c.trace <- Common.Trace.off) wt.ctxs;
    R.check r (fingerprint wt ot = first.fp) "sim-sharded: the traced pass ended in another state";
    attempted := !attempted + ot.n;
    failed := !failed + ot.failed;
    let units = Unit_costs.measure ~size:(Rep.size (Shard_world.group_reps wt.w 0).(0)) ~seed:seed64 in
    Unit_costs.report r units;
    Layers.report r ~ops:ot.n ~op_names:(List.map kind_name kinds) ~wall:false ~trace:tr ~a ~b ~units;
    let l = R.layer r in
    let per x = Common.per x ot.n in
    l "suite.self_us_per_op" "us" ((ot.wall_s *. 1e6 -. (b.rep_wall -. a.rep_wall)) /. float_of_int ot.n);
    l "suite.retries_per_op" "count" (per ot.retries);
    l "suite.backoff_u_per_op" "u" (Common.perf ot.backoff_u ot.n);
    let cc = Repdir_cache.Cache.sum_counters (List.filter_map Suite.cache_counters suites) in
    let open Repdir_cache.Cache in
    let reads = cc.hits + cc.misses + cc.mismatches in
    l "cache.hit_rate" "ratio" (Common.per cc.hits reads);
    l "cache.mismatch_rate" "ratio" (Common.per cc.mismatches reads);
    l "cache.evictions_per_op" "count" (per cc.evictions);
    l "sim.events_per_op" "count" (per (ev1 - ev0));
    l "net.messages_per_op" "count" (per (msg1 - msg0));
    l "sim.backlog_end" "count" (float_of_int ot.backlog_end);
    l "router.cross_shard_frac" "ratio" (per ot.cross);
    l "router.txn_vlat_p50_u" "u" (Common.Samples.median ot.transfer_vlat);
    l "trace.overhead_us_per_op" "us" ((ot.wall_s -. untraced_wall) *. 1e6 /. float_of_int ot.n);
    l "trace.spans" "count" (float_of_int tr.n_spans);
    Common.dump_spans tr
  end;
  r.R.attempted <- !attempted;
  r.R.failed <- !failed;
  R.info r "failed_frac" "ratio" (Common.per !failed !attempted);
  Common.end_report r ~held ~reps:(all_reps world) ~sample:(Shard_world.group_reps world.w 0).(0)
