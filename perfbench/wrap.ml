(* The benchmark's own wrappers around the closures it hands to the library:
   a transport's [call] and a sync peer's [p_call]. They record a span per
   call (and a nested "rep" span around the representative-side work) while
   tracing is on; the transport wrapper can also make a representative
   unreachable. *)

open Repdir_core

(* Per-client state the wrappers read: the operation in flight (for span
   parents) and the set of representatives to report as down. *)
type ctx = {
  mutable trace : Common.Trace.t;
  mutable current : Common.Trace.op option;
  down : bool array;
}

let ctx ~n = { trace = Common.Trace.off; current = None; down = Array.make n false }

(* Calls answered [Timeout], across all wrapped transports. *)
let timeouts = ref 0

(* Wall time spent inside representative-side closures, and their count,
   across all wrapped transports and peers while tracing: in the simulator
   this is the only part of a call that runs on the caller's behalf without
   yielding. *)
let rep_wall_us = ref 0.0
let rep_calls = ref 0

let rep_side (c : ctx) f rep =
  if not c.trace.on then f rep
  else begin
    let t0 = Common.wall_us () in
    incr rep_calls;
    match Common.Trace.child c.trace c.current "rep" (fun () -> f rep) with
    | x -> rep_wall_us := !rep_wall_us +. (Common.wall_us () -. t0); x
    | exception e -> rep_wall_us := !rep_wall_us +. (Common.wall_us () -. t0); raise e
  end

let transport (c : ctx) (base : Transport.t) : Transport.t =
  {
    base with
    is_up = (fun r -> (not c.down.(r)) && base.is_up r);
    call =
      (fun r f ->
        if c.down.(r) then Error (Transport.Down (Printf.sprintf "rep%d" r))
        else
          let res =
            if not c.trace.on then base.call r f
            else
              Common.Trace.child c.trace ~call:true c.current "transport.call" (fun () ->
                  base.call r (rep_side c f))
          in
          (match res with Error Transport.Timeout -> incr timeouts | _ -> ());
          res);
  }

let peer (c : ctx) (p : Repdir_sync.Sync.peer) : Repdir_sync.Sync.peer =
  {
    p with
    p_call =
      (fun f ->
        if not c.trace.on then p.p_call f
        else
          Common.Trace.child c.trace ~call:true c.current "sync.p_call" (fun () ->
              p.p_call (rep_side c f)));
  }

(* Run [f] as one traced client operation named [name]. *)
let op (c : ctx) name f =
  if not c.trace.on then f ()
  else begin
    let o = Common.Trace.op_begin c.trace name in
    c.current <- Some o;
    match f () with
    | x ->
        Common.Trace.op_end c.trace o;
        c.current <- None;
        x
    | exception e ->
        Common.Trace.op_end c.trace o;
        c.current <- None;
        raise e
  end
