(* The repository benchmark's entry point: one workload per run.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1 [--rpc-timeout U]
     perfbench.exe --selftest

   Prints one line per metric ("name value unit"), then, as the last line,
   one JSON object: {"correct", "attempted", "failed", "metrics"}. With
   --trace 0 the metrics are the end-to-end ones, with --trace 1 the
   per-layer ones (the traced run also writes its spans as JSON lines).
   Exits 1 when any correctness check failed. *)

module R = Common.Result

(* The metric catalog, mirrored by BENCHMARK.json. Every run reports every
   end-to-end metric; a per-layer metric a workload's layers never touch
   reads 0 there. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("msgs_per_op", "count");
    ("alloc_words_per_op", "words");
    ("retained_words_per_op", "words");
  ]

let per_layer =
  [
    ("suite.self_us_per_op", "us");
    ("suite.lookup_p50_us", "us");
    ("suite.insert_p50_us", "us");
    ("suite.delete_p50_us", "us");
    ("suite.update_p50_us", "us");
    ("suite.scan_p50_us", "us");
    ("suite.retries_per_op", "count");
    ("suite.backoff_u_per_op", "u");
    ("transport.calls_per_op", "count");
    ("transport.msgs_per_op", "count");
    ("transport.bytes_per_op", "bytes");
    ("transport.retries_per_op", "count");
    ("transport.timeouts_per_op", "count");
    ("transport.us_per_op", "us");
    ("transport.wait_u_per_op", "u");
    ("rep.lookups_per_op", "count");
    ("rep.neighbour_probes_per_op", "count");
    ("rep.inserts_per_op", "count");
    ("rep.coalesces_per_op", "count");
    ("rep.batches_per_op", "count");
    ("rep.ops_per_batch", "count");
    ("rep.validates_per_op", "count");
    ("rep.notices_per_op", "count");
    ("rep.us_per_call", "us");
    ("rep.txn_us", "us");
    ("lock.waits_per_op", "count");
    ("lock.held_at_quiesce", "count");
    ("lock.acquire_release_ns", "ns");
    ("wal.records_per_op", "count");
    ("wal.replay_records", "count");
    ("wal.append_sync_ns", "ns");
    ("coord.log_records_per_op", "count");
    ("coord.commits_per_op", "count");
    ("coord.aborts_per_op", "count");
    ("gapmap.entries", "count");
    ("gapmap.lookup_ns", "ns");
    ("gapmap.insert_coalesce_ns", "ns");
    ("gapmap.digest_root_ms", "ms");
    ("est.gapmap_us_per_op", "us");
    ("est.lock_us_per_op", "us");
    ("est.wal_us_per_op", "us");
    ("cache.hit_rate", "ratio");
    ("cache.mismatch_rate", "ratio");
    ("cache.evictions_per_op", "count");
    ("sim.events_per_op", "count");
    ("net.messages_per_op", "count");
    ("sim.backlog_end", "count");
    ("router.cross_shard_frac", "ratio");
    ("router.txn_vlat_p50_u", "u");
    ("sync.digest_rpcs_per_repair", "count");
    ("sync.pull_rpcs_per_repair", "count");
    ("sync.entries_sent_per_repair", "count");
    ("sync.useful_frac", "ratio");
    ("sync.rep_us_per_repair", "us");
    ("sync.sessions_failed", "count");
    ("trace.overhead_us_per_op", "us");
    ("trace.spans", "count");
  ]

let workloads = [ "local-mixed"; "sim-sharded"; "antientropy-100k" ]

type scale = Full | Tiny

let run_workload ~scale ~name ~seed ~seconds ~traced =
  let r = R.create () in
  (match name with
  | "local-mixed" ->
      let sizes = match scale with Full -> Local_mixed.full | Tiny -> Local_mixed.tiny in
      Local_mixed.run ~sizes ~seed ~seconds ~traced r
  | "sim-sharded" ->
      let sizes = match scale with Full -> Sim_sharded.full | Tiny -> Sim_sharded.tiny in
      Sim_sharded.run ~sizes ~seed ~seconds ~traced r
  | "antientropy-100k" ->
      let sizes = match scale with Full -> Antientropy.full | Tiny -> Antientropy.tiny in
      Antientropy.run ~sizes ~seed ~seconds ~traced r
  | _ -> invalid_arg ("unknown workload " ^ name));
  (* Per-layer metrics a workload's layers never touched read 0. *)
  List.iter
    (fun (m, u) -> if R.find r m = None then R.layer r m u 0.0)
    per_layer;
  List.iter
    (fun (m, _) -> R.check r (R.find r m <> None) "end-to-end metric %s not measured" m)
    end_to_end;
  r

let json_of r ~traced =
  let wanted = if traced then per_layer else end_to_end in
  let fields =
    List.map
      (fun (m, u) ->
        let v = match R.find r m with Some x -> x.Common.value | None -> 0.0 in
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m v u)
      wanted
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (r.R.errors = []) (max 1 r.R.attempted) r.R.failed (String.concat ", " fields)

let print_lines name r =
  List.iter
    (fun (m : Common.metric) ->
      let tag = match m.kind with End_to_end -> "e2e" | Per_layer -> "layer" | Info -> "info" in
      Printf.printf "%-16s %-5s %-30s %16.6g %s\n" name tag m.name m.value m.unit_)
    (R.ordered r);
  List.iter (fun e -> Printf.printf "%-16s CHECK FAILED: %s\n" name e) (List.rev r.R.errors)

(* At tiny sizes: every workload reports every metric with its unit, its
   correctness checks pass, and two runs at one seed agree exactly on every
   count and virtual-time metric. *)
let selftest () =
  let deterministic (m : Common.metric) =
    match m.unit_ with
    | "count" | "u" | "ratio" | "bytes" -> not (String.starts_with ~prefix:"trace." m.name)
    | _ -> false
  in
  let ok = ref true in
  List.iter
    (fun name ->
      let run () = run_workload ~scale:Tiny ~name ~seed:7 ~seconds:1 ~traced:true in
      let a = run () and b = run () in
      print_lines name a;
      if a.R.errors <> [] then ok := false;
      List.iter
        (fun (m, u) ->
          match R.find a m with
          | Some x when x.unit_ = u -> ()
          | _ ->
              Printf.printf "%s: metric %s missing or not in %s\n" name m u;
              ok := false)
        (end_to_end @ per_layer);
      List.iter
        (fun (x : Common.metric) ->
          if deterministic x then
            match R.find b x.name with
            | Some y when y.value = x.value -> ()
            | _ ->
                Printf.printf "%s: %s differs between two runs at one seed\n" name x.name;
                ok := false)
        (R.ordered a))
    workloads;
  print_endline (if !ok then "selftest: ok" else "selftest: FAILED");
  exit (if !ok then 0 else 1)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let self = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S run length (sets the operation count)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run or traced per-layer run");
      ("--spans", Arg.Set_string Common.spans_path, "FILE where the traced run writes its spans");
      ( "--rpc-timeout",
        Arg.Set_float Sim_sharded.rpc_timeout,
        "U sim-sharded's simulated RPC timeout, in virtual units (default 200)" );
      ("--selftest", Arg.Set self, " run the benchmark's self-test at tiny sizes");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  if !self then selftest ();
  if not (List.mem !workload workloads) then begin
    prerr_endline ("perfbench: unknown workload " ^ !workload);
    exit 2
  end;
  let traced = !trace = 1 in
  let r = run_workload ~scale:Full ~name:!workload ~seed:!seed ~seconds:(max 1 !seconds) ~traced in
  print_lines !workload r;
  print_endline (json_of r ~traced);
  exit (if r.R.errors = [] then 0 else 1)
