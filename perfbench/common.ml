(* Shared plumbing for the workloads: clocks, percentiles, the metric
   registry that becomes the result line, the span tracer, the model-checked
   single-key operations and the end-of-run report.

   Everything here measures the program from outside: the tracer wraps the
   closures the workloads hand to the library (the transport's [call], a
   sync peer's [p_call], one client operation), it never reaches inside a
   library module. *)

(* Monotonic wall clock with nanosecond resolution. *)
let wall_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
let wall_us () = Int64.to_float (Monotonic_clock.now ()) *. 1e-3

let time_s f =
  let t0 = wall_s () in
  let x = f () in
  (x, wall_s () -. t0)

(* Build a deployment with [f] and time it in process CPU seconds, after
   compacting the heap so the previous deployment's garbage does not bill
   this one. Set-up runs on the benchmark's one thread and does no I/O, so
   its CPU time is its wall time on an idle machine; unlike wall time, it
   leaves out the time the process waits for a core. *)
let timed_setup f =
  Gc.compact ();
  let t0 = Sys.time () in
  let x = f () in
  (x, Sys.time () -. t0)

(* Build [k] times with [timed_setup], keeping only the last build: one
   set-up is a few tenths of a second, and a single sample swings by half
   its value on a shared host, so a run takes several. Returns the last
   build and all [k] times. *)
let timed_setups k f =
  let rec go i times =
    let x, dt = timed_setup f in
    if i <= 1 then (x, dt :: times) else go (i - 1) (dt :: times)
  in
  go k []

(* --- samples ---------------------------------------------------------------- *)

(* A growable float buffer: latency samples for one run. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  (* [cap]: the expected number of samples, so a measured phase that
     allocates its buffers up front does not grow them as it runs. *)
  let create ?(cap = 1024) () = { a = Array.make (max 1 cap) 0.0; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0.0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  (* Nearest-rank percentile, [q] in [0, 1]; 0 when empty. *)
  let percentile t q =
    if t.n = 0 then 0.0
    else begin
      let s = Array.sub t.a 0 t.n in
      Array.sort Float.compare s;
      let i = int_of_float (Float.ceil (q *. float_of_int t.n)) - 1 in
      s.(max 0 (min (t.n - 1) i))
    end

  let median t = percentile t 0.5
end

let median_of l =
  let s = Samples.create () in
  List.iter (Samples.add s) l;
  Samples.median s

(* The median of [f] over a run's passes. *)
let median_by f passes = median_of (List.map f passes)

(* --- metrics ------------------------------------------------------------------ *)

(* The run's result: named values with units, in the order they were set.
   [end_to_end] and [per_layer] mirror BENCHMARK.json; [info] holds the
   workload-specific figures printed for people but not gated. *)
type kind = End_to_end | Per_layer | Info

type metric = { name : string; value : float; unit_ : string; kind : kind }

module Result = struct
  type t = {
    mutable metrics : metric list;  (* newest first *)
    mutable attempted : int;
    mutable failed : int;
    mutable errors : string list;  (* failed correctness checks *)
  }

  let create () = { metrics = []; attempted = 0; failed = 0; errors = [] }

  let set t kind name unit_ value =
    let value = if Float.is_finite value then value else 0.0 in
    t.metrics <-
      { name; value; unit_; kind } :: List.filter (fun m -> m.name <> name) t.metrics

  let e2e t = set t End_to_end
  let layer t = set t Per_layer
  let info t = set t Info

  let check t ok fmt =
    Printf.ksprintf (fun msg -> if not ok then t.errors <- msg :: t.errors) fmt

  let find t name = List.find_opt (fun m -> m.name = name) t.metrics
  let ordered t = List.rev t.metrics
end

(* --- tracing ------------------------------------------------------------------- *)

(* Spans at the layer boundaries the benchmark owns: one per client
   operation (its "op" span) and one per call into the transport, a sync
   peer or a representative, parented by the operation that caused it. The
   clock is wall microseconds for the in-process workloads and virtual time
   units for the simulated one. Spans are aggregated as they close — so the
   per-layer figures cover every operation — and the first [keep] of them
   are also retained for the JSON-lines dump. *)
module Trace = struct
  type span = {
    id : int;
    name : string;
    op : int;  (* the operation's id, -1 outside any operation *)
    parent : int;  (* the parent span's id, -1 for roots *)
    start : float;
    stop : float;
  }

  type op = {
    oid : int;
    span_id : int;
    oname : string;
    ostart : float;
    mutable kids : (float * float) list;  (* transport-call intervals *)
  }

  type agg = { mutable count : int; mutable total : float }

  (* Spans retained for the JSON-lines dump. *)
  let keep = 200_000

  type t = {
    on : bool;
    clock : unit -> float;
    mutable next_id : int;
    mutable next_op : int;
    mutable kept : span list;  (* newest first *)
    mutable n_kept : int;
    mutable n_spans : int;
    aggs : (string, agg) Hashtbl.t;
        (* per span name; also "self:<op>" (operation time outside transport
           calls) and "incall:<op>" (union of its transport-call time) *)
  }

  let create ~on ~clock () =
    {
      on;
      clock;
      next_id = 0;
      next_op = 0;
      kept = [];
      n_kept = 0;
      n_spans = 0;
      aggs = Hashtbl.create 16;
    }

  let off = create ~on:false ~clock:(fun () -> 0.0) ()
  let fresh_id t = let i = t.next_id in t.next_id <- i + 1; i

  let add t name x =
    let a =
      match Hashtbl.find_opt t.aggs name with
      | Some a -> a
      | None ->
          let a = { count = 0; total = 0.0 } in
          Hashtbl.replace t.aggs name a;
          a
    in
    a.count <- a.count + 1;
    a.total <- a.total +. x

  let record t ~id ~name ~op ~parent ~start ~stop =
    t.n_spans <- t.n_spans + 1;
    add t name (stop -. start);
    if t.n_kept < keep then begin
      t.kept <- { id; name; op; parent; start; stop } :: t.kept;
      t.n_kept <- t.n_kept + 1
    end

  let op_begin t oname =
    let oid = t.next_op in
    t.next_op <- oid + 1;
    { oid; span_id = fresh_id t; oname; ostart = t.clock (); kids = [] }

  (* Length of the union of intervals: parallel fan-out calls overlap. *)
  let union_length l =
    let l = List.sort compare l in
    let rec go acc cur_lo cur_hi = function
      | [] -> acc +. (cur_hi -. cur_lo)
      | (lo, hi) :: rest ->
          if lo > cur_hi then go (acc +. (cur_hi -. cur_lo)) lo hi rest
          else go acc cur_lo (Float.max cur_hi hi) rest
    in
    match l with [] -> 0.0 | (lo, hi) :: rest -> go 0.0 lo hi rest

  let op_end t o =
    let stop = t.clock () in
    record t ~id:o.span_id ~name:("op." ^ o.oname) ~op:o.oid ~parent:(-1) ~start:o.ostart ~stop;
    let inside = union_length o.kids in
    add t ("incall:" ^ o.oname) inside;
    add t ("self:" ^ o.oname) (stop -. o.ostart -. inside)

  (* Time [f] as a child span of [op] (or a root span when [op] is None);
     [call] marks the spans whose time counts as "inside the transport". *)
  let child t ?(call = false) (op : op option) name f =
    let start = t.clock () in
    let finish () =
      let stop = t.clock () in
      let oid, parent =
        match op with
        | Some o ->
            if call then o.kids <- (start, stop) :: o.kids;
            (o.oid, o.span_id)
        | None -> (-1, -1)
      in
      record t ~id:(fresh_id t) ~name ~op:oid ~parent ~start ~stop
    in
    match f () with
    | x -> finish (); x
    | exception e -> finish (); raise e

  let agg t name = match Hashtbl.find_opt t.aggs name with Some a -> a | None -> { count = 0; total = 0.0 }

  (* Sum of the "<prefix>:<op>" aggregates over the named operations. *)
  let sum_ops t prefix names =
    List.fold_left
      (fun (n, x) name ->
        let a = agg t (prefix ^ ":" ^ name) in
        (n + a.count, x +. a.total))
      (0, 0.0) names

  let write_jsonl t path =
    let oc = open_out path in
    List.iter
      (fun s ->
        Printf.fprintf oc
          "{\"id\":%d,\"name\":%S,\"op\":%d,\"parent\":%d,\"start\":%.3f,\"end\":%.3f}\n" s.id
          s.name s.op s.parent s.start s.stop)
      (List.rev t.kept);
    close_out oc
end

(* Where the traced run writes its spans ("" = nowhere). *)
let spans_path = ref ""

let dump_spans t = if !spans_path <> "" then Trace.write_jsonl t !spans_path

let per x ops = if ops = 0 then 0.0 else float_of_int x /. float_of_int ops
let perf x ops = if ops = 0 then 0.0 else x /. float_of_int ops

(* Live heap words after a full major collection. *)
let live_words () =
  Gc.full_major ();
  float_of_int (Gc.stat ()).Gc.live_words

(* Crash every representative in [reps] and time their recoveries, one
   after another — the deployment restarting from its logs; the median of
   three rounds is the figure. Each map must come back identical and
   structurally sound. *)
let recover_s (r : Result.t) reps =
  let open Repdir_rep in
  let before = Array.map Rep.root_digest reps in
  let round () =
    Gc.full_major ();
    Array.fold_left
      (fun acc rep ->
        Rep.crash rep;
        let (), dt = time_s (fun () -> Rep.recover rep) in
        acc +. dt)
      0.0 reps
  in
  let times = List.init 3 (fun _ -> round ()) in
  Array.iteri
    (fun i rep ->
      Result.check r (Rep.check_invariants rep = Ok ()) "%s: invariants broken after recovery"
        (Rep.name rep);
      Result.check r (Rep.root_digest rep = before.(i)) "%s: state changed across recovery"
        (Rep.name rep))
    reps;
  median_of times

(* Key [i] of a workload's integer key space. *)
let key i = Repdir_key.Key.of_int i

(* Locks still held across [reps] once the workload has quiesced; any is a
   failed check. *)
let locks_held (r : Result.t) ~workload reps =
  let held = Array.fold_left (fun a rep -> a + Repdir_rep.Rep.locks_held rep) 0 reps in
  Result.check r (held = 0) "%s: %d locks held at quiesce" workload held;
  held

(* The figures every workload reports about its final deployment: locks
   held at quiesce, the log and gap-map size of [sample] (one of [reps]),
   and the time to recover all of [reps]. *)
let end_report (r : Result.t) ~held ~reps ~sample =
  let open Repdir_rep in
  Result.layer r "lock.held_at_quiesce" "count" (float_of_int held);
  Result.layer r "wal.replay_records" "count" (float_of_int (Rep.wal_length sample));
  Result.layer r "gapmap.entries" "count" (float_of_int (Rep.size sample));
  Result.info r "recover_s" "s" (recover_s r reps)

(* --- checked writes ----------------------------------------------------------------- *)

(* The in-process workloads' model of the directory: integer key -> value.
   Each operation goes through the suite and returns false when the
   suite's answer disagreed with the model. *)
module Model = struct
  open Repdir_core

  type t = (int, string) Hashtbl.t

  let lookup (m : t) s i =
    match (Suite.lookup s (key i), Hashtbl.find_opt m i) with
    | Some (_, v), Some v' -> String.equal v v'
    | None, None -> true
    | _ -> false

  let insert (m : t) s i v =
    match Suite.insert s (key i) v with
    | Ok () ->
        let fresh = not (Hashtbl.mem m i) in
        Hashtbl.replace m i v;
        fresh
    | Error `Already_present -> Hashtbl.mem m i

  let update (m : t) s i v =
    match Suite.update s (key i) v with
    | Ok () ->
        let ok = Hashtbl.mem m i in
        Hashtbl.replace m i v;
        ok
    | Error `Not_present -> not (Hashtbl.mem m i)

  let delete (m : t) s i =
    let r = Suite.delete s (key i) in
    let ok = r.Suite.was_present = Hashtbl.mem m i in
    Hashtbl.remove m i;
    ok

  (* Re-read key [i] into the model after an operation raised midway. *)
  let resync (m : t) s i =
    match Suite.lookup s (key i) with
    | Some (_, v) -> Hashtbl.replace m i v
    | None -> Hashtbl.remove m i
    | exception _ -> ()
end
