open Repdir_sim
open Repdir_rep
open Repdir_quorum
open Repdir_core
open Repdir_txn
open Repdir_shard

(* A simulated deployment: [groups] replica groups of [n] representatives
   each, all on one simulated network with shared clients. Node layout:
   group [g]'s representative [i] occupies node [g*n + i]; clients follow at
   [groups*n ..]; the anti-entropy node is last. One transaction manager and
   one lock group span the deployment, so cross-shard transactions and
   cross-group migration sessions serialize against client traffic exactly
   as single-group ones do. One group is the paper's directory suite. *)

type t = {
  sim : Sim.t;
  net : Net.t;
  groups : int;
  n : int;  (* representatives per group *)
  reps : Rep.t array;  (* indexed by node *)
  by_group : Rep.t array array;  (* the same representatives, [g].(i) *)
  servers : Rpc.server array;  (* indexed by node *)
  txns : Txn.Manager.t;
  config : Config.t;  (* every group's *)
  rpc_timeout : float;
  rpc_attempts : int;
  rpc_backoff : float;
  seed : int64;
  n_clients : int;
  parallel_rpc : bool;
  coordinators : Coordinator.t array;
  two_phase : bool;
  lock_group : Repdir_lock.Lock_manager.group;
  (* Per-representative virtual-clock skew, indexed by node: representative
     [i] reads [offset.(i) + rate.(i) * Sim.now] and schedules a delay [d] as
     [d / rate.(i)] of simulated time. Defaults (0, 1) reproduce the shared
     clock bit-for-bit, so pre-existing event streams are unchanged. *)
  clock_offset : float array;
  clock_rate : float array;
}

let rep_node t g i = (g * t.n) + i

let client_node t i =
  if i < 0 || i >= t.n_clients then invalid_arg "Shard_world: no such client";
  (t.groups * t.n) + i

let syncer_node t = (t.groups * t.n) + t.n_clients

(* Fork/join over simulator processes: every branch runs concurrently; the
   caller suspends until all complete. The first (lowest-index) exception is
   re-raised after the join, so no branch is abandoned mid-flight. *)
let parallel_fanout sim =
  let map : 'a 'b. ('a -> 'b) -> 'a array -> 'b array =
   fun f arr ->
    let n = Array.length arr in
    if n = 0 then [||]
    else begin
      let results = Array.make n None in
      let remaining = ref n in
      let wake = ref ignore in
      Array.iteri
        (fun i x ->
          Sim.spawn sim (fun () ->
              let r = try Ok (f x) with e -> Error e in
              results.(i) <- Some r;
              decr remaining;
              if !remaining = 0 then !wake ()))
        arr;
      Sim.suspend sim (fun w -> wake := w);
      Array.map
        (function Some (Ok r) -> r | Some (Error e) -> raise e | None -> assert false)
        results
    end
  in
  { Transport.map }

(* First-success-wins race between a primary call and a hedge that starts
   only after a delay ({!Transport.race}). Both branches run as simulator
   processes; the caller suspends until one succeeds or every started branch
   has failed. The losing branch runs to completion in the background — its
   result and exceptions are discarded, as a real hedged RPC's late reply
   would be. *)
let parallel_race sim =
  let run : 'r. (unit -> 'r) -> after:float -> (unit -> 'r) -> 'r =
   fun primary ~after backup ->
    let result = ref None in
    let primary_error = ref None in
    let primary_done = ref false in
    let backup_started = ref false in
    let backup_done = ref false in
    let wake = ref ignore in
    let settled () = Option.is_some !result in
    Sim.spawn sim (fun () ->
        (match primary () with
        | r -> if not (settled ()) then result := Some r
        | exception e -> primary_error := Some e);
        primary_done := true;
        !wake ());
    Sim.at sim
      (Sim.now sim +. after)
      (fun () ->
        if not (!primary_done || settled ()) then begin
          backup_started := true;
          Sim.spawn sim (fun () ->
              (match backup () with
              | r -> if not (settled ()) then result := Some r
              | exception _ -> ());
              backup_done := true;
              !wake ())
        end);
    let finished () =
      settled () || (!primary_done && ((not !backup_started) || !backup_done))
    in
    while not (finished ()) do
      Sim.suspend sim (fun w -> wake := w)
    done;
    (* A branch still running must not resume the caller again after the
       race is decided: neutralize the stored continuation. *)
    wake := ignore;
    match !result with
    | Some r -> r
    | None -> (
        match !primary_error with Some e -> raise e | None -> assert false)
  in
  { Transport.run }

(* Termination queries from an in-doubt representative: the coordinator's
   decision log first, then the peers of its own group — a cross-shard
   transaction's outcome is settled by the one shared coordinator record,
   and within a group any peer that saw the decision is authoritative. Runs
   inside a simulator process (it blocks on RPC). *)
let resolver_for t g r ~coord txn =
  let src = rep_node t g r in
  let client_base = t.groups * t.n in
  let from_coordinator =
    if coord >= client_base && coord < client_base + t.n_clients then
      match
        Rpc.call t.net ~src ~dst:coord ~timeout:t.rpc_timeout (fun () ->
            Coordinator.resolve t.coordinators.(coord - client_base) txn)
      with
      | Ok Coordinator.Committed -> Some (`Committed, Rep.By_coordinator)
      | Ok Coordinator.Aborted -> Some (`Aborted, Rep.By_coordinator)
      | Error Rpc.Timeout -> None
    else None
  in
  match from_coordinator with
  | Some _ as answer -> answer
  | None ->
      let rec ask p =
        if p >= t.n then None
        else if p = r then ask (p + 1)
        else
          let dst = rep_node t g p in
          match
            Rpc.call t.net ~src ~dst ~timeout:t.rpc_timeout (fun () ->
                Rep.outcome_of t.reps.(dst) txn)
          with
          | Ok `Committed -> Some (`Committed, Rep.By_peer)
          | Ok `Aborted -> Some (`Aborted, Rep.By_peer)
          | Ok `Unknown | Error Rpc.Timeout -> ask (p + 1)
          | exception Rep.Crashed _ -> ask (p + 1)
      in
      ask 0

let create ?(seed = 1L) ?latency ?(rpc_timeout = 50.0) ?(rpc_attempts = 1)
    ?(rpc_backoff = 5.0) ?(n_clients = 1) ?(parallel_rpc = true) ?two_phase
    ?lease ?group_commit ?admission ~config ~groups () =
  if groups < 1 then invalid_arg "Shard_world: need at least one group";
  if groups > 1 && two_phase <> None then
    invalid_arg "Shard_world: two_phase applies to one group only";
  if rpc_attempts < 1 then invalid_arg "Shard_world: need at least one RPC attempt";
  let n = Config.n_reps config in
  let n_reps = groups * n in
  let sim = Sim.create ~seed () in
  (* One extra node for the anti-entropy actor, allocated after the clients
     so client node ids are independent of whether a syncer is used. *)
  let net = Net.create sim ~n_nodes:(n_reps + n_clients + 1) ?latency () in
  let waiter register = Sim.suspend sim register in
  let lock_group = Repdir_lock.Lock_manager.new_group () in
  let clock_offset = Array.make n_reps 0.0 in
  let clock_rate = Array.make n_reps 1.0 in
  (* Timer callbacks must run as full simulator processes ([Sim.spawn], not
     [Sim.at]): lease expiry and termination queries block on locks and
     RPC. Each representative reads the virtual clock through its own skew
     parameters — a node with a fast clock sees leases run out early, a slow
     one holds them too long — which is exactly the fault family the
     clock-skew nemesis plan injects. *)
  let timers_for node =
    {
      Rep.now = (fun () -> clock_offset.(node) +. (clock_rate.(node) *. Sim.now sim));
      after =
        (fun d k -> Sim.spawn sim ~at:(Sim.now sim +. (d /. clock_rate.(node))) k);
    }
  in
  let reps =
    Array.init n_reps (fun node ->
        let name =
          if groups = 1 then Printf.sprintf "rep%d" node
          else Printf.sprintf "g%d.rep%d" (node / n) (node mod n)
        in
        Rep.create ~waiter ~lock_group ~timers:(timers_for node) ?lease ?group_commit
          ?admission ~name ())
  in
  let t =
    {
      sim;
      net;
      groups;
      n;
      reps;
      by_group = Array.init groups (fun g -> Array.sub reps (g * n) n);
      servers = Array.init n_reps (fun _ -> Rpc.server ());
      txns = Txn.Manager.create ();
      config;
      rpc_timeout;
      rpc_attempts;
      rpc_backoff;
      seed;
      n_clients;
      parallel_rpc;
      (* Each client doubles as the coordinator of its own transactions; the
         coordinator id is the client's network node. *)
      coordinators = Array.init n_clients (fun i -> Coordinator.create ~id:(n_reps + i) ());
      two_phase = Option.value two_phase ~default:false;
      lock_group;
      clock_offset;
      clock_rate;
    }
  in
  (* The resolver is always installed — in-doubt transactions can arise from
     any crash between prepare and decision, lease or no lease, and blocking
     them forever would wedge their key ranges. *)
  Array.iteri
    (fun node rep -> Rep.set_resolver rep (resolver_for t (node / n) (node mod n)))
    reps;
  t

let sim t = t.sim
let net t = t.net
let txns t = t.txns
let reps t = t.reps
let group_reps t g = t.by_group.(g)
let group_config t _ = t.config

let coordinator t i =
  ignore (client_node t i);
  t.coordinators.(i)

(* Transport for client [i] talking to group [g]: the suite sees a plain
   n-representative world whose member [r] lives at node [g*n + r]. *)
let client_transport ?health t i g =
  let src = client_node t i in
  (* Backoff jitter draws only happen on retries, so the stream (and with it
     every single-attempt experiment) is untouched unless messages are
     actually lost. *)
  let rng =
    Some
      (Repdir_util.Rng.create (Int64.add t.seed (Int64.of_int (0x5e7 + src + (0x9e3 * g)))))
  in
  let rpc ?on_retry r f =
    let dst = rep_node t g r in
    match
      Rpc.call_at_most_once t.net ~src ~dst ~server:t.servers.(dst) ~timeout:t.rpc_timeout
        ~attempts:t.rpc_attempts ~backoff:t.rpc_backoff ?rng ?on_retry
        (fun () -> f t.reps.(dst))
    with
    | Ok v -> Ok v
    | Error Rpc.Timeout -> Error Transport.Timeout
    | exception Rep.Crashed name -> Error (Transport.Down name)
    | exception Rep.Overloaded name -> Error (Transport.Overloaded name)
  in
  let rec transport =
    {
      Transport.n_reps = t.n;
      is_up = (fun r -> Net.up t.net (rep_node t g r));
      incarnation = (fun r -> Rep.incarnation t.reps.(rep_node t g r));
      call =
        (fun r f ->
          match health with
          | None ->
              (* Unobserved calls read no clock and build no per-call retry
                 hook: the shared one only counts. *)
              rpc ?on_retry:count_retry r f
          | Some h -> (
              (* Health observations see the call as the client does: latency
                 includes retransmissions and timeout waits, [ok] means "the
                 representative answered" (an application exception is a
                 timely answer; a timeout, crash or overload rejection is not
                 a useful one). *)
              let t0 = Sim.now t.sim in
              let observe ok =
                Picker.Health.observe h r ~latency:(Sim.now t.sim -. t0) ~ok
              in
              match
                rpc r f ~on_retry:(fun () ->
                    retry ();
                    (* Each timeout is an early gray-failure signal: feed it
                       to the score table now rather than waiting out the
                       whole retry schedule, so one bad call is enough to
                       demote a slow representative. *)
                    observe false)
              with
              | Ok _ as v ->
                  observe true;
                  v
              | Error _ as e ->
                  observe false;
                  e
              | exception e ->
                  observe true;
                  raise e));
      fanout = (if t.parallel_rpc then parallel_fanout t.sim else Transport.sequential_fanout);
      race = (if t.parallel_rpc then Some (parallel_race t.sim) else None);
      rpc_count = 0;
      retry_count = 0;
      msg_count = 0;
      bytes_count = 0;
    }
  (* A retransmission is a real wire message even though it is not a fresh
     call. *)
  and retry () =
    transport.Transport.retry_count <- transport.Transport.retry_count + 1;
    transport.Transport.msg_count <- transport.Transport.msg_count + 1
  and count_retry = Some retry in
  transport

let recorder_for_client ?cap t i =
  ignore (client_node t i);
  Repdir_audit.History.recorder ?cap ~client:i ~now:(fun () -> Sim.now t.sim) ()

(* How a router blocked on a [Moving] range learns the flip landed: peek the
   installed shard view of any reachable representative of the group (the
   flip lands on the migration's source group first). Runs inside the
   client's simulator process. *)
let shard_view_peek t i g =
  let src = client_node t i in
  let rec go r =
    if r >= t.n then None
    else
      let dst = rep_node t g r in
      match
        Rpc.call t.net ~src ~dst ~timeout:t.rpc_timeout (fun () ->
            Rep.shard_view t.reps.(dst))
      with
      | Ok (e, record) when e > 0 && record <> "" -> Some record
      | Ok _ -> go (r + 1)
      | Error Rpc.Timeout -> go (r + 1)
      | exception Rep.Crashed _ -> go (r + 1)
      | exception Rep.Overloaded _ -> go (r + 1)
  in
  go 0

(* Client [i]'s suite over group [g]. Clients keep the true clock. *)
let make_suite ?picker ?seed ?sync ?batching ?notice_window ?recorder ?membership ?shard
    ?health ?op_deadline ?hedge ?cache ~two_phase t i g =
  let timers =
    {
      Rep.now = (fun () -> Sim.now t.sim);
      after = (fun d k -> Sim.spawn t.sim ~at:(Sim.now t.sim +. d) k);
    }
  in
  Suite.create ?picker ?seed ?sync ?batching ?notice_window ?recorder ?membership ?shard
    ?op_deadline ?hedge ?cache ~timers ~two_phase ~coordinator:(coordinator t i)
    ~config:t.config ~transport:(client_transport ?health t i g) ~txns:t.txns ()

let suite_for_client ?picker ?seed ?sync ?batching ?notice_window ?recorder ?membership
    ?health ?op_deadline ?hedge ?cache t i =
  if t.groups <> 1 then invalid_arg "Shard_world.suite_for_client: more than one group";
  make_suite ?picker ?seed ?sync ?batching ?notice_window ?recorder ?membership ?health
    ?op_deadline ?hedge ?cache ~two_phase:t.two_phase t i 0

let router_for_client ?picker ?seed ?batching ?notice_window ?recorder ?cache t i ~map =
  Router.create ~refresh:(shard_view_peek t i) ~groups:t.groups ~map ~txns:t.txns
    ~make_suite:(fun g shard ->
      let cache = if cache = Some true then Some (Repdir_cache.Cache.create ()) else None in
      make_suite ?picker ?seed ?batching ?notice_window ?recorder ~shard ?cache
        ~two_phase:true t i g)
    ()

(* --- anti-entropy ----------------------------------------------------------------- *)

(* Peers are the listed groups' representatives, in order. *)
let make_sync ?config ?(seed = 0xa11_075eedL) t groups =
  let src = syncer_node t in
  let jitter_rng = Repdir_util.Rng.create (Int64.add t.seed (Int64.of_int (0x5e7 + src))) in
  let nodes = Array.concat (List.map (fun g -> Array.init t.n (rep_node t g)) groups) in
  let peer p =
    let dst = nodes.(p) in
    let rep = t.reps.(dst) in
    {
      Repdir_sync.Sync.p_index = p;
      p_name = Rep.name rep;
      p_incarnation = (fun () -> Rep.incarnation rep);
      p_call =
        (fun f ->
          match
            Rpc.call_at_most_once t.net ~src ~dst ~server:t.servers.(dst)
              ~timeout:t.rpc_timeout ~attempts:t.rpc_attempts ~backoff:t.rpc_backoff
              ~rng:jitter_rng
              (fun () -> f rep)
          with
          | Ok v -> v
          | Error Rpc.Timeout ->
              raise (Repdir_sync.Sync.Unreachable (Rep.name rep ^ ": rpc timeout"))
          | exception Rep.Overloaded name ->
              (* Anti-entropy is exactly the maintenance work the admission
                 controller sheds first; the session fails cleanly and a
                 later round retries when the pressure is off. *)
              raise (Repdir_sync.Sync.Unreachable (name ^ ": overloaded")));
    }
  in
  Repdir_sync.Sync.create ?config ~seed
    ~mark_senior:(fun txn high ->
      Repdir_lock.Lock_manager.set_senior t.lock_group ~txn high)
    ~peers:(Array.init (Array.length nodes) peer)
    ~txns:t.txns ()

(* --- fault injection ---------------------------------------------------------------- *)

let set_clock_skew t node ~offset ~rate =
  if rate <= 0.0 then invalid_arg "Shard_world.set_clock_skew: rate must be positive";
  t.clock_offset.(node) <- offset;
  t.clock_rate.(node) <- rate

let crash_rep ?wal_fault t node =
  let rep = t.reps.(node) in
  Option.iter (Rep.inject_storage_fault rep) wal_fault;
  Net.crash t.net node;
  Rep.crash rep;
  (* The dedup cache is volatile server memory: it dies with the node. *)
  Rpc.reset_server t.servers.(node)

let recover_rep t node =
  Rep.recover t.reps.(node);
  Net.recover t.net node
