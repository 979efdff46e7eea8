(* antientropy-100k: three representatives preloaded identically with
   [entries] entries, then repeated cycles of
     1. rep 2 unreachable (the transport wrapper answers Down) while the
        suite does [writes] writes;
     2. rep 2 reconnects;
     3. Sync.session_between 0->2 and 1->2 over local peers.
   Repair time is dominated by the gap map's range-digest folds; the writes
   run against a gap map ten times larger than local-mixed's. *)

open Repdir_core
open Repdir_rep
open Repdir_sync
module R = Common.Result

type sizes = { entries : int; writes : int; cycles_per_second : float }

let full = { entries = 100_000; writes = 300; cycles_per_second = 1.0 }
let tiny = { entries = 2_000; writes = 40; cycles_per_second = 3.0 }
let config = Repdir_quorum.Config.simple ~n:3 ~r:2 ~w:2

type world = {
  reps : Rep.t array;
  suite : Suite.t;
  sync : Sync.t;
  ctx : Wrap.ctx;
  model : (int, string) Hashtbl.t;
  rng : Repdir_util.Rng.t;
}

let build ~sizes ~seed =
  let txns = Repdir_txn.Txn.Manager.create () in
  let reps = Array.init 3 (fun i -> Rep.create ~name:(Printf.sprintf "rep%d" i) ()) in
  let model = Hashtbl.create (2 * sizes.entries) in
  (* One single-key representative transaction per entry and rep: every rep
     ends with the same map and the same log. *)
  for i = 0 to sizes.entries - 1 do
    let txn = Repdir_txn.Txn.Manager.begin_txn txns in
    let v = Printf.sprintf "p%d" i in
    Array.iter
      (fun rep ->
        Rep.insert rep ~txn (Common.key (2 * i)) 1 v;
        Rep.commit rep ~txn)
      reps;
    Repdir_txn.Txn.Manager.commit txns txn;
    Hashtbl.replace model (2 * i) v
  done;
  let ctx = Wrap.ctx ~n:3 in
  let suite =
    Suite.create ~seed ~two_phase:true ~batching:true ~config
      ~transport:(Wrap.transport ctx (Transport.local reps))
      ~txns ()
  in
  let peers =
    Array.mapi
      (fun i rep ->
        Wrap.peer ctx
          {
            Sync.p_index = i;
            p_name = Rep.name rep;
            p_incarnation = (fun () -> Rep.incarnation rep);
            p_call = (fun f -> f rep);
          })
      reps
  in
  let sync = Sync.create ~seed ~peers ~txns () in
  { reps; suite; sync; ctx; model; rng = Repdir_util.Rng.create seed }

(* One write against the model: insert, update or delete of a uniform key
   over twice the preloaded span, so each succeeds about half the time. *)
let write w ~(sizes : sizes) ~serial =
  let i = Repdir_util.Rng.int w.rng (2 * sizes.entries) in
  let m = w.model and s = w.suite in
  match Repdir_util.Rng.int w.rng 3 with
  | 0 -> Common.Model.insert m s i (Printf.sprintf "i%d" serial)
  | 1 -> Common.Model.update m s i (Printf.sprintf "u%d" serial)
  | _ -> Common.Model.delete m s i

(* What one cycle measured. *)
type cycle = {
  wall_s : float;  (* writes and repair *)
  write_p50_us : float;
  repair_s : float;  (* the two sessions *)
  repair_rep_us : float;  (* representative-side wall time inside them *)
}

type pass = {
  writes : int;
  cycles : cycle list;
  p99_us : float;  (* over every write of the pass *)
  minor_words : float;
  retained_words : float;
  msgs : int;  (* transport messages of the writes and notice flushes *)
  wrong : int;
  failed : int;
}

(* [cycles] cycles on [w]; the latency buffers are allocated before the
   live-word baseline, so only the program's own retention counts. *)
let run_cycles (r : R.t) w ~(sizes : sizes) ~cycles ~serial0 =
  let lat = Common.Samples.create ~cap:sizes.writes () in
  let all = Common.Samples.create ~cap:(cycles * sizes.writes) () in
  let wrong = ref 0 and failed = ref 0 and serial = ref serial0 in
  let live0 = Common.live_words () in
  let tp = Suite.transport w.suite in
  let msgs0 = tp.msg_count in
  let m0 = Gc.minor_words () in
  let one_cycle () =
    let t_start = Common.wall_s () in
    lat.n <- 0;
    w.ctx.down.(2) <- true;
    for _ = 1 to sizes.writes do
      incr serial;
      let t0 = Common.wall_us () in
      (match Wrap.op w.ctx "write" (fun () -> write w ~sizes ~serial:!serial) with
      | true -> ()
      | false -> incr wrong
      | exception _ -> incr failed);
      let dt = Common.wall_us () -. t0 in
      Common.Samples.add lat dt;
      Common.Samples.add all dt
    done;
    w.ctx.down.(2) <- false;
    Suite.flush_notices w.suite;
    let rep0 = !Wrap.rep_wall_us in
    let ok, repair_s =
      Common.time_s (fun () ->
          Wrap.op w.ctx "repair" (fun () ->
              let a = Sync.session_between w.sync ~src:0 ~dst:2 in
              let b = Sync.session_between w.sync ~src:1 ~dst:2 in
              a && b))
    in
    let wall_s = Common.wall_s () -. t_start in
    R.check r ok "antientropy: a repair session failed";
    let d0 = Rep.root_digest w.reps.(0) in
    Array.iteri
      (fun i rep ->
        R.check r (Rep.root_digest rep = d0) "antientropy: rep%d root digest differs after repair" i)
      w.reps;
    {
      wall_s;
      write_p50_us = Common.Samples.median lat;
      repair_s;
      repair_rep_us = !Wrap.rep_wall_us -. rep0;
    }
  in
  let cs = List.init cycles (fun _ -> one_cycle ()) in
  let minor_words = Gc.minor_words () -. m0 in
  let msgs = tp.msg_count - msgs0 in
  let live1 = Common.live_words () in
  {
    writes = cycles * sizes.writes;
    cycles = cs;
    p99_us = Common.Samples.percentile all 0.99;
    minor_words;
    retained_words = live1 -. live0;
    msgs;
    wrong = !wrong;
    failed = !failed;
  }

let run ~sizes ~seed ~seconds ~traced (r : R.t) =
  let seed64 = Int64.of_int seed in
  (* Seven identical set-ups; the run keeps the last. *)
  let w, setups = Common.timed_setups 7 (fun () -> build ~sizes ~seed:seed64) in
  R.e2e r "setup_s" "s" (Common.median_of setups);
  let cycles = max 1 (int_of_float (Float.round (float_of_int seconds *. sizes.cycles_per_second))) in
  let p = run_cycles r w ~sizes ~cycles ~serial0:0 in
  let med = Common.median_by in
  let per_write x = x /. float_of_int p.writes in
  R.check r (p.wrong = 0) "antientropy: %d write results disagreed with the model" p.wrong;
  R.e2e r "msgs_per_op" "count" (Common.per p.msgs p.writes);
  R.info r "ops_per_s" "1/s" (med (fun c -> float_of_int sizes.writes /. c.wall_s) p.cycles);
  R.info r "op_p50_us" "us" (med (fun c -> c.write_p50_us) p.cycles);
  R.info r "op_p99_us" "us" p.p99_us;
  R.e2e r "alloc_words_per_op" "words" (per_write p.minor_words);
  R.e2e r "retained_words_per_op" "words" (per_write p.retained_words);
  R.info r "repair_s" "s" (med (fun c -> c.repair_s) p.cycles);
  R.info r "failed_frac" "ratio" (Common.per p.failed p.writes);
  let attempted, failed =
    if not traced then (p.writes, p.failed)
    else begin
      let tr = Common.Trace.create ~on:true ~clock:Common.wall_us () in
      w.ctx.trace <- tr;
      let snap () =
        Layers.snap ~reps:w.reps ~transports:[ Suite.transport w.suite ]
          ~coords:[ Suite.coordinator w.suite ]
      in
      (* [Sync.counters] is the live record: copy it for the baseline. *)
      let c0 = { (Sync.counters w.sync) with Sync.rounds = 0 } in
      let a = snap () in
      let tp = run_cycles r w ~sizes ~cycles ~serial0:p.writes in
      let b = snap () in
      let c1 = Sync.counters w.sync in
      w.ctx.trace <- Common.Trace.off;
      R.check r (tp.wrong = 0) "antientropy traced: %d write results disagreed" tp.wrong;
      let units = Unit_costs.measure ~size:(Rep.size w.reps.(0)) ~seed:seed64 in
      Unit_costs.report r units;
      Layers.report r ~ops:tp.writes ~op_names:[ "write" ] ~wall:true ~trace:tr ~a ~b ~units;
      let l = R.layer r in
      let per_repair x = Common.per x cycles in
      l "sync.digest_rpcs_per_repair" "count" (per_repair (c1.Sync.digest_rpcs - c0.Sync.digest_rpcs));
      l "sync.pull_rpcs_per_repair" "count" (per_repair (c1.pull_rpcs - c0.pull_rpcs));
      let sent = c1.entries_sent - c0.entries_sent in
      l "sync.entries_sent_per_repair" "count" (per_repair sent);
      l "sync.useful_frac" "ratio"
        (Common.per
           (c1.entries_installed - c0.entries_installed + c1.entries_updated - c0.entries_updated
          + c1.entries_deleted - c0.entries_deleted)
           sent);
      l "sync.rep_us_per_repair" "us" (med (fun c -> c.repair_rep_us) tp.cycles);
      l "sync.sessions_failed" "count" (float_of_int (c1.sessions_failed - c0.sessions_failed));
      (* Tracing overhead on whole cycles, repair included, per write. *)
      let cycle_wall (q : pass) = med (fun c -> c.wall_s) q.cycles in
      l "trace.overhead_us_per_op" "us"
        ((cycle_wall tp -. cycle_wall p) *. 1e6 /. float_of_int sizes.writes);
      l "trace.spans" "count" (float_of_int tr.n_spans);
      Common.dump_spans tr;
      (p.writes + tp.writes, p.failed + tp.failed)
    end
  in
  r.R.attempted <- attempted;
  r.R.failed <- failed;
  Suite.flush_notices w.suite;
  let held = Common.locks_held r ~workload:"antientropy" w.reps in
  Common.end_report r ~held ~reps:w.reps ~sample:w.reps.(0)
