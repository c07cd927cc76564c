(** A pool of warm library instances.

    All instances live in one runtime (one emulated address space, one
    slot each — the paper's deployment shape, §5.3).  Dispatch order
    comes from the shared {!Lfi_sched.Runq} the runtime's preemptive
    scheduler also runs on: live instances rotate through the queue
    (head serves, then re-queues at the tail), retired instances fall
    out of it during the scheduling scan, and a respawned instance
    joins at the tail — so cursor state can never dangle on a dead
    slot, even when every instance but one (or the last one,
    mid-stream) retires.  Every successful request is followed by a
    snapshot reset, so requests are independent by construction.  A
    request that kills its instance — fault, runaway, blocking call —
    retires only that instance: its slot is released, its postmortem is
    on the runtime, and the pool keeps serving on the survivors. *)

open Lfi_runtime
module Runq = Lfi_sched.Runq

type t = {
  lib : Library.t;
  rt : Runtime.t;
  mutable instances : Instance.t array;
      (** creation order; dead ones stay put, respawns append *)
  runq : Runq.t;  (** indexes into [instances], dispatch order *)
  arena : int option;
  init : string option;
  mutable served : int;
  mutable failed : int;
}

(** Build a pool of [size] instances.  The runtime is created here with
    verification off — the {!Library} already verified the image once —
    unless an explicit [runtime] is supplied. *)
let create ?runtime ?arena ?init ~(size : int) (lib : Library.t)
    : t =
  if size < 1 then invalid_arg "Pool.create: size < 1";
  let rt =
    match runtime with
    | Some rt -> rt
    | None ->
        Runtime.create
          ~config:{ Runtime.default_config with verify = false }
          ()
  in
  let instances =
    Array.init size (fun _ -> Instance.create ?arena ?init rt lib)
  in
  let runq = Runq.create ~capacity:size () in
  Array.iteri (fun i _ -> Runq.push runq i) instances;
  { lib; rt; instances; runq; arena; init; served = 0; failed = 0 }

let live (pool : t) : Instance.t list =
  Array.to_list pool.instances |> List.filter (fun i -> i.Instance.alive)

let live_count (pool : t) = List.length (live pool)

(** Pick the next live instance off the run queue (rotating it to the
    tail), without dispatching.  [None] once every instance is dead. *)
let next_instance (pool : t) : Instance.t option =
  match
    Runq.select pool.runq
      ~keep:(fun i -> pool.instances.(i).Instance.alive)
      ~runnable:(fun _ -> true)
  with
  | Some i -> Some pool.instances.(i)
  | None -> None

(** Run one request on a caller-chosen instance: call, account, and
    reset afterwards (marshalling-level failures also reset — the arena
    may hold partial copy-ins).  The serve layer uses this directly
    when tenant shards pick the instance; {!dispatch} wraps it with the
    pool-order pick. *)
let dispatch_on (pool : t) (inst : Instance.t) (name : string)
    (args : Api.arg list) : (Api.reply, Api.error) result =
  let r = Instance.call inst name args in
  (match r with
  | Ok _ ->
      pool.served <- pool.served + 1;
      Instance.reset inst
  | Error _ ->
      pool.failed <- pool.failed + 1;
      if inst.Instance.alive then Instance.reset inst);
  r

(** Dispatch one request on the next live instance in queue order.
    Returns the chosen instance so callers can attribute the result to
    a slot. *)
let dispatch (pool : t) (name : string) (args : Api.arg list) :
    Instance.t option * (Api.reply, Api.error) result =
  match next_instance pool with
  | None -> (None, Error Api.No_instances)
  | Some inst -> (Some inst, dispatch_on pool inst name args)

(** Replace lost capacity: load a fresh instance (reusing a retired
    slot — the runtime recycles freed slots first) and enqueue it at
    the tail of the dispatch order. *)
let respawn (pool : t) : Instance.t =
  let inst =
    Instance.create ?arena:pool.arena ?init:pool.init pool.rt pool.lib
  in
  pool.instances <- Array.append pool.instances [| inst |];
  Runq.push pool.runq (Array.length pool.instances - 1);
  inst

(** Instances lost since creation. *)
let retired (pool : t) = Array.length pool.instances - live_count pool

(** Merged per-call histograms across all instances (dead included —
    their calls before dying still count). *)
let merged_hists (pool : t) :
    Lfi_telemetry.Histogram.t * Lfi_telemetry.Histogram.t =
  let gate = Lfi_telemetry.Histogram.create ()
  and call = Lfi_telemetry.Histogram.create () in
  Array.iter
    (fun i ->
      Lfi_telemetry.Histogram.merge gate i.Instance.gate_hist;
      Lfi_telemetry.Histogram.merge call i.Instance.call_hist)
    pool.instances;
  (gate, call)
