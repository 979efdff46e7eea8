open Repdir_util
open Repdir_key
open Repdir_sim
open Repdir_core

type phase = {
  label : string;
  up_reps : int;
  attempted : int;
  succeeded : int;
  unavailable : int;
}

type outcome = { phases : phase list; consistency_violations : int }

let run ?(seed = 33L) ?(ops_per_phase = 150) ?(retries = 1)
    ?(config = Repdir_quorum.Config.simple ~n:3 ~r:2 ~w:2) () =
  let n = Repdir_quorum.Config.n_reps config in
  if n < 2 then invalid_arg "Faults.run: need at least two representatives";
  let world =
    Shard_world.create ~seed ~rpc_timeout:30.0 ~n_clients:1 ~config ~groups:1 ()
  in
  let sim = Shard_world.sim world in
  let suite = Shard_world.suite_for_client world 0 in
  let rng = Rng.create (Int64.add seed 1L) in
  let retry_rng = Rng.create (Int64.add seed 2L) in
  let model : (string, string) Hashtbl.t = Hashtbl.create 64 in
  let violations = ref 0 in
  let phases = ref [] in
  let up_count () =
    Array.fold_left
      (fun acc r -> if Repdir_rep.Rep.is_crashed r then acc else acc + 1)
      0 (Shard_world.reps world)
  in
  (* One operation against suite and model; true if it completed. Transient
     failures are retried with backoff before the attempt is written off. *)
  let one_op () =
    let key = Key.of_int (Rng.int rng 30) in
    let value = Printf.sprintf "v%f" (Sim.now sim) in
    (* Drawn outside the retried closure so a retry repeats the same op. *)
    let kind = Rng.int rng 4 in
    try
      Suite.with_retries ~attempts:retries ~backoff:2.0 ~sleep:(Sim.sleep sim)
        ~rng:retry_rng (fun () ->
          match kind with
          | 0 -> (
              match (Suite.lookup suite key, Hashtbl.find_opt model key) with
              | Some (_, v), Some v' when String.equal v v' -> ()
              | None, None -> ()
              | _ -> incr violations)
          | 1 -> (
              match Suite.insert suite key value with
              | Ok () -> Hashtbl.replace model key value
              | Error `Already_present ->
                  if not (Hashtbl.mem model key) then incr violations)
          | 2 -> (
              match Suite.update suite key value with
              | Ok () -> Hashtbl.replace model key value
              | Error `Not_present -> if Hashtbl.mem model key then incr violations)
          | _ ->
              let report = Suite.delete suite key in
              if report.Suite.was_present <> Hashtbl.mem model key then incr violations;
              Hashtbl.remove model key);
      true
    with Suite.Unavailable _ -> false
  in
  let run_phase label =
    let succeeded = ref 0 and unavailable = ref 0 in
    for _ = 1 to ops_per_phase do
      if one_op () then incr succeeded else incr unavailable
    done;
    phases :=
      {
        label;
        up_reps = up_count ();
        attempted = ops_per_phase;
        succeeded = !succeeded;
        unavailable = !unavailable;
      }
      :: !phases
  in
  Sim.spawn sim (fun () ->
      run_phase "all representatives up";
      Shard_world.crash_rep world 0;
      run_phase "rep0 crashed";
      Shard_world.crash_rep world 1;
      run_phase "rep0 and rep1 crashed";
      Shard_world.recover_rep world 1;
      run_phase "rep1 recovered (stale)";
      Shard_world.recover_rep world 0;
      run_phase "all recovered");
  Sim.run sim;
  { phases = List.rev !phases; consistency_violations = !violations }

let table ?seed ?ops_per_phase ?retries ?config () =
  let o = run ?seed ?ops_per_phase ?retries ?config () in
  let t =
    Table.create
      ~header:[ "Phase"; "Up reps"; "Attempted"; "Succeeded"; "Unavailable" ]
      ()
  in
  List.iter
    (fun p ->
      Table.add_row t
        [
          p.label;
          string_of_int p.up_reps;
          string_of_int p.attempted;
          string_of_int p.succeeded;
          string_of_int p.unavailable;
        ])
    o.phases;
  Table.add_separator t;
  Table.add_row t
    [ "consistency violations"; string_of_int o.consistency_violations ];
  t
