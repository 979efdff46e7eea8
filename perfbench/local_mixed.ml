(* local-mixed: one 3-2-2 group on the in-process transport (zero injected
   latency), two-phase commit with batching, no cache, one closed-loop
   client. The directory holds about [live] entries over a [space]-key
   space and the mix is size-stationary (inserts and deletes each succeed
   half the time): 50% lookup, 15% insert, 15% delete, 10% update, 10%
   32-key fold_range, uniform keys. Real CPU and allocation through
   Suite -> Transport -> Rep -> Lock/Gapmap/WAL set every number.

   A run is one pass per second of run: each pass builds a fresh
   deployment from the seed and replays the same seeded operations on it,
   so the passes repeat identical work and the wall-time figures are their
   medians. *)

open Repdir_core
open Repdir_rep
module R = Common.Result

type sizes = { live : int; space : int; ops_per_pass : int }

let full = { live = 10_000; space = 20_000; ops_per_pass = 30_000 }
let tiny = { live = 200; space = 400; ops_per_pass = 500 }
let config = Repdir_quorum.Config.simple ~n:3 ~r:2 ~w:2

type world = {
  reps : Rep.t array;
  suite : Suite.t;
  ctx : Wrap.ctx;
  model : Common.Model.t;
  rng : Repdir_util.Rng.t;
}

let build ~sizes ~seed =
  let reps = Array.init 3 (fun i -> Rep.create ~name:(Printf.sprintf "rep%d" i) ()) in
  let ctx = Wrap.ctx ~n:3 in
  let suite =
    Suite.create ~seed ~two_phase:true ~batching:true ~config
      ~transport:(Wrap.transport ctx (Transport.local reps))
      ~txns:(Repdir_txn.Txn.Manager.create ())
      ()
  in
  let rng = Repdir_util.Rng.create seed in
  let model = Hashtbl.create (2 * sizes.live) in
  let keys = Array.init sizes.space Fun.id in
  Repdir_util.Rng.shuffle rng keys;
  for j = 0 to sizes.live - 1 do
    let i = keys.(j) in
    let v = Printf.sprintf "p%d" i in
    (match Suite.insert suite (Common.key i) v with
    | Ok () -> ()
    | Error `Already_present -> failwith "preload: duplicate key");
    Hashtbl.replace model i v
  done;
  { reps; suite; ctx; model; rng }

type kind = Lookup | Insert | Delete | Update | Scan

let kinds = [ Lookup; Insert; Delete; Update; Scan ]

let kind_name = function
  | Lookup -> "lookup"
  | Insert -> "insert"
  | Delete -> "delete"
  | Update -> "update"
  | Scan -> "scan"

let pick rng =
  let x = Repdir_util.Rng.int rng 100 in
  if x < 50 then Lookup
  else if x < 65 then Insert
  else if x < 80 then Delete
  else if x < 90 then Update
  else Scan

(* One operation on key [i], checked against the model. Returns false when
   the result disagreed with it. *)
let one_op w ~sizes ~serial kind i =
  let m = w.model and s = w.suite in
  match kind with
  | Lookup -> Common.Model.lookup m s i
  | Insert -> Common.Model.insert m s i (Printf.sprintf "i%d" serial)
  | Delete -> Common.Model.delete m s i
  | Update -> Common.Model.update m s i (Printf.sprintf "u%d" serial)
  | Scan ->
      let hi = min (sizes.space - 1) (i + 31) in
      let got =
        Suite.fold_range s ~lo:(Common.key i) ~hi:(Common.key hi) ~init:[] ~f:(fun acc k v ->
            (k, v) :: acc)
      in
      let want = ref [] in
      for j = i to hi do
        match Hashtbl.find_opt m j with
        | Some v -> want := (Common.key j, v) :: !want
        | None -> ()
      done;
      got = !want

(* One pass: [n] operations on a freshly built world [w]. The latency
   buffers are allocated before the live-word baseline, so only the
   program's own retention counts. *)
type pass = {
  wall_s : float;
  p50_us : float;
  p99_us : float;
  kind_p50_us : (kind * float) list;
  minor_words : float;
  retained_words : float;
  msgs : int;  (* transport messages *)
  wrong : int;
  failed : int;
}

let run_pass w ~sizes ~n =
  let lat = Common.Samples.create ~cap:n () in
  let by_kind = List.map (fun k -> (k, Common.Samples.create ~cap:n ())) kinds in
  let wrong = ref 0 and failed = ref 0 in
  let live0 = Common.live_words () in
  let tp = Suite.transport w.suite in
  let msgs0 = tp.msg_count in
  let m0 = Gc.minor_words () in
  let t_start = Common.wall_s () in
  for serial = 1 to n do
    let kind = pick w.rng in
    let i = Repdir_util.Rng.int w.rng sizes.space in
    let t0 = Common.wall_us () in
    (match Wrap.op w.ctx (kind_name kind) (fun () -> one_op w ~sizes ~serial kind i) with
    | true -> ()
    | false -> incr wrong
    | exception _ ->
        incr failed;
        Common.Model.resync w.model w.suite i);
    let dt = Common.wall_us () -. t0 in
    Common.Samples.add lat dt;
    Common.Samples.add (List.assoc kind by_kind) dt
  done;
  let wall_s = Common.wall_s () -. t_start in
  let minor_words = Gc.minor_words () -. m0 in
  let msgs = tp.msg_count - msgs0 in
  let live1 = Common.live_words () in
  {
    wall_s;
    p50_us = Common.Samples.median lat;
    p99_us = Common.Samples.percentile lat 0.99;
    kind_p50_us = List.map (fun (k, s) -> (k, Common.Samples.median s)) by_kind;
    minor_words;
    retained_words = live1 -. live0;
    msgs;
    wrong = !wrong;
    failed = !failed;
  }

let run ~sizes ~seed ~seconds ~traced (r : R.t) =
  let seed64 = Int64.of_int seed in
  let n = sizes.ops_per_pass in
  let check_pass what (p : pass) =
    R.check r (p.wrong = 0) "local-mixed%s: %d results disagreed with the model" what p.wrong
  in
  (* Keep only the last pass's world: it is the one recovered at the end. *)
  let last = ref None in
  let passes =
    List.init (max 1 seconds) (fun _ ->
        last := None;
        let w, setups = Common.timed_setups 2 (fun () -> build ~sizes ~seed:seed64) in
        last := Some w;
        let p = run_pass w ~sizes ~n in
        check_pass "" p;
        (setups, p))
  in
  let w = Option.get !last in
  let setups = List.concat_map fst passes and passes = List.map snd passes in
  let med = Common.median_by in
  let ops = n * List.length passes in
  let failed = List.fold_left (fun a p -> a + p.failed) 0 passes in
  R.e2e r "setup_s" "s" (Common.median_of setups);
  R.e2e r "msgs_per_op" "count" (med (fun p -> Common.per p.msgs n) passes);
  R.info r "ops_per_s" "1/s" (med (fun p -> float_of_int n /. p.wall_s) passes);
  R.info r "op_p50_us" "us" (med (fun p -> p.p50_us) passes);
  R.info r "op_p99_us" "us" (med (fun p -> p.p99_us) passes);
  R.e2e r "alloc_words_per_op" "words" (med (fun p -> p.minor_words /. float_of_int n) passes);
  R.e2e r "retained_words_per_op" "words" (med (fun p -> p.retained_words /. float_of_int n) passes);
  R.info r "failed_frac" "ratio" (Common.per failed ops);
  List.iter
    (fun k ->
      R.layer r (Printf.sprintf "suite.%s_p50_us" (kind_name k)) "us"
        (med (fun p -> List.assoc k p.kind_p50_us) passes))
    kinds;
  let attempted, failed =
    if not traced then (ops, failed)
    else begin
      (* The traced pass: one more identical pass with spans on. *)
      let tw = build ~sizes ~seed:seed64 in
      let tr = Common.Trace.create ~on:true ~clock:Common.wall_us () in
      tw.ctx.trace <- tr;
      let snap () =
        Layers.snap ~reps:tw.reps ~transports:[ Suite.transport tw.suite ]
          ~coords:[ Suite.coordinator tw.suite ]
      in
      let a = snap () in
      let tp = run_pass tw ~sizes ~n in
      let b = snap () in
      tw.ctx.trace <- Common.Trace.off;
      check_pass " traced" tp;
      let units = Unit_costs.measure ~size:(Rep.size tw.reps.(0)) ~seed:seed64 in
      Unit_costs.report r units;
      Layers.report r ~ops:n ~op_names:(List.map kind_name kinds) ~wall:true ~trace:tr ~a ~b ~units;
      R.layer r "trace.overhead_us_per_op" "us"
        ((tp.wall_s -. med (fun p -> p.wall_s) passes) *. 1e6 /. float_of_int n);
      R.layer r "trace.spans" "count" (float_of_int tr.n_spans);
      Common.dump_spans tr;
      Suite.flush_notices tw.suite;
      ignore (Common.locks_held r ~workload:"local-mixed traced" tw.reps : int);
      (ops + n, failed + tp.failed)
    end
  in
  r.R.attempted <- attempted;
  r.R.failed <- failed;
  Suite.flush_notices w.suite;
  let held = Common.locks_held r ~workload:"local-mixed" w.reps in
  Common.end_report r ~held ~reps:w.reps ~sample:w.reps.(0)
