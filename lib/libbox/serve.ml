(** Multi-tenant request scheduler and the [lfi-serve/v3] report.

    [run] builds a library and a pool from a {!Api.lib_spec} and drives
    a seeded request stream through it under one of three arrival
    models ({!Lfi_sched.Arrival}): back-to-back [Replay] (the v2 shape,
    whose report fields are preserved byte for byte), open-loop seeded
    Poisson arrivals at an offered rate, and closed-loop fixed
    concurrency.  Everything in the report derives from the seed and
    the simulated machine — no wall clock, no hash-table iteration
    order — so the JSON is byte-identical across runs: the property
    `make serve-bench` commits to.

    v3 adds the scheduling layer between arrival and dispatch:

    - {b per-tenant queues} ({!Lfi_sched.Tenant}): each request is
      assigned a tenant (weighted pick from the stream's xorshift when
      there is more than one); admission refills the tenant's token
      bucket from the simulated clock and sheds deterministically on an
      empty bucket or a full queue — the reject path is counted, never
      silent;
    - {b weighted service}: tenants rotate through a {!Lfi_sched.Runq}
      (the same abstraction the runtime scheduler and {!Pool} run on)
      under deficit round-robin, so a heavy tenant gets its weight
      share and no more;
    - {b batching}: consecutive same-export requests of the chosen
      tenant are served as one batch on one instance, paying the
      dispatch-decision cost once;
    - {b shards + work stealing}: the pool's slots are partitioned into
      per-tenant home shards; a tenant whose shard has no live instance
      steals from the next shard around the ring (counted per request);
    - {b latency under load}: every request's end-to-end latency
      (arrival → completion, queue wait included) lands in full-run
      histograms — the p50/p99/p999 the paper's serving story is
      about — next to the v2 windows/SLO/span instrumentation, which
      now sees end-to-end latency too.

    Request latency is measured in simulated cycles; queue wait and
    the per-batch dispatch-decision cost (8 cycles, the runtime
    scheduler's bookkeeping charge) advance the clock only under the
    open- and closed-loop models, so replay throughput is untouched.

    A run is four stages over four records.  {b Arrival} turns the
    seeded [source] into tenant-queue entries; the open and closed
    models share one serve loop, replay dispatches each request as it
    is made.  {b Dispatch} picks the tenant, the batch and the instance
    from the [sched] record.  {b Accounting} folds each dispatched
    request into the [acct] record, whose only writer is {!record}.
    The {b report} and every snapshot frame are pure reads of [acct],
    the pool and the run's [params] ({!report_of}, {!frame_of}). *)

open Lfi_emulator
module H = Lfi_telemetry.Histogram
module Span = Lfi_telemetry.Span
module Window = Lfi_telemetry.Window
module Slo = Lfi_telemetry.Slo
module Trace = Lfi_telemetry.Trace
module Json = Lfi_telemetry.Json
module Runq = Lfi_sched.Runq
module Tenant = Lfi_sched.Tenant
module Arrival = Lfi_sched.Arrival

(** The serve layer's own trace process; the runtime's events stay on
    {!Lfi_runtime.Runtime.trace_pid} so the two views sit side by side
    in Perfetto. *)
let trace_pid = 2

(** Per-batch dispatch-decision charge under the open- and closed-loop
    models — the same price the runtime scheduler pays per context
    switch ({!Lfi_runtime.Runtime.lfi_sched_bookkeeping}). *)
let dispatch_decision_cycles = 8.0

(** Width of one SLO/latency window in simulated cycles, and how many
    recent windows each ring keeps. *)
let window_cycles = 50_000.0
let window_depth = 128

(* xorshift64; the single source of randomness for the stream *)
let make_rng (seed : int) =
  let s = ref (Int64.of_int ((seed * 2654435761) lor 1)) in
  fun (bound : int) ->
    let x = Arrival.xorshift64 !s in
    s := x;
    Int64.to_int (Int64.rem (Int64.logand x Int64.max_int) (Int64.of_int bound))

(* one draw below the total weight picks the first element whose
   running weight sum exceeds it *)
let weighted_pick (rng : int -> int) (weight : 'a -> int) (l : 'a list) : 'a =
  let n = rng (List.fold_left (fun a x -> a + weight x) 0 l) in
  let rec go acc = function
    | [ x ] -> x
    | x :: tl -> if n < acc + weight x then x else go (acc + weight x) tl
    | [] -> assert false
  in
  go 0 l

let pick_export (rng : int -> int) (exports : Api.export_spec list) :
    Api.export_spec =
  if exports = [] then
    invalid_arg "Serve.run: no weighted exports in the stream";
  weighted_pick rng (fun e -> e.Api.e_weight) exports

(* burn rates of an export's window range, for the snapshot view: the
   worse of the latency and error dimensions *)
let range_burn (ob : Slo.objective option) (r : Window.rstats) : float =
  match ob with
  | None -> 0.0
  | Some ob ->
      let latency, errors = Slo.burns ob r in
      Float.max latency errors

(** One admitted request waiting in a tenant queue. *)
type pending = {
  pr_export : Api.export_spec;
  pr_args : Api.arg list;
  pr_arrival : float;  (** simulated-cycle arrival timestamp *)
  pr_tenant : int;
  pr_client : int;  (** closed-loop client id; -1 otherwise *)
}

(* ---------------- Run state --------------------------------------- *)

(** What a run was asked to do; fixed once serving starts. *)
type params = {
  spec : Api.lib_spec;
  uarch : Cost_model.t;
  filter : string list;
  arrival : Arrival.t;
  pool_size : int;
  requests : int;
  seed : int;
  snapshot_every : int;
  trace : Trace.t option;
  origin : float;  (** cycle count when serving starts, after warm-up *)
}

(** The dispatch stage's state. *)
type sched = {
  pool : Pool.t;
  tenants : pending Tenant.t array;
  shards : Runq.t array;  (** tenant t's home slots, as pool indexes *)
  tq : Runq.t;  (** tenant run queue, DRR order *)
  charge : float;  (** dispatch-decision cycles per batch *)
}

(** Everything the accounting stage accumulates; {!record} is its only
    writer, and {!frame_of}/{!report_of} read it. *)
type acct = {
  mutable batches : int;
  mutable batched : int;  (** requests served inside a batch *)
  mutable served : int;  (** requests dispatched, ok or failed *)
  phase_tot : float array;  (** cumulative cycles per span phase *)
  transition : H.t;  (** per-call gate cycles, ok requests *)
  call : H.t;  (** per-call gate + execution cycles, ok requests *)
  lat_tenant : H.t array;
  exports : (string * Window.t * Slo.objective option) list;
  overall : Window.t;  (** its total is the full-run end-to-end latency *)
  mutable alerts : Slo.alert list;  (** newest first *)
  mutable last_eval : int;  (** last window the SLOs were checked over *)
  cursors : (int, float) Hashtbl.t;  (** per-slot trace track end *)
  mutable frames : Json.t list;  (** newest first *)
}

(** The seeded request stream, shared by the three arrival models. *)
type source = {
  rng : int -> int;
  stream : Api.export_spec list;  (** weighted exports after [filter] *)
  mutable issued : int;
  mutable next_at : float;  (** open loop: the next arrival's timestamp *)
  gaps : (unit -> float) option;  (** open loop: inter-arrival cycles *)
}

let machine (s : sched) = s.pool.Pool.rt.Lfi_runtime.Runtime.machine

(* the requests served so far: a dispatch that returned [Ok] counts
   once, on its tenant *)
let completed (s : sched) =
  Array.fold_left (fun n tn -> n + tn.Tenant.completed) 0 s.tenants

let now s = Machine.cycles (machine s)

(* ---------------- Rows and frames: pure reads of the run state ---- *)

let f0 v = Json.Float (v, 0)
let f1 v = Json.Float (v, 1)
let mean_or_nan h = if h.H.count = 0 then Float.nan else H.mean h

(* the p50/p99/p999 members every latency row carries *)
let percentiles h =
  List.map
    (fun (k, q) -> (k, f1 (H.percentile h q)))
    [ ("p50", 0.50); ("p99", 0.99); ("p999", 0.999) ]

(* one pool slot; the report's per_slot and a frame's slots rows *)
let slot_rows (pool : Pool.t) : Json.t =
  Json.Arr
    (Array.to_list
       (Array.map
          (fun inst ->
            let pr = inst.Instance.p in
            Json.Obj
              [
                ("slot", Json.Int pr.Lfi_runtime.Proc.slot);
                ("pid", Json.Int pr.Lfi_runtime.Proc.pid);
                ("alive", Json.Bool inst.Instance.alive);
                ("calls", Json.Int inst.Instance.calls);
                ("resets", Json.Int inst.Instance.resets);
                ("insns", Json.Int inst.Instance.call_insns);
                ("pages_restored", Json.Int inst.Instance.pages_restored);
              ])
          pool.Pool.instances))

(* one export's rolling-window view, after its name key *)
let export_stats (w : Window.t) : (string * Json.t) list =
  let m = Window.merged w in
  let r = Window.range w ~lo:0 ~hi:(Window.cur w) in
  let ipr =
    if m.H.count = 0 then Float.nan
    else float_of_int r.Window.r_insns /. float_of_int m.H.count
  in
  [ ("requests", Json.Int (Window.total_ok w + Window.total_err w));
    ("errors", Json.Int (Window.total_err w)) ]
  @ percentiles m
  @ [ ("mean", f1 (mean_or_nan m)); ("insns_per_request", f1 ipr) ]

let phases_json (a : acct) : Json.t =
  Json.Obj
    (List.map
       (fun ph -> (Span.name ph, f1 a.phase_tot.(Span.index ph)))
       Span.all)

(** One [lfi-snap/v2] frame of the run so far. *)
let frame_of (p : params) (s : sched) (a : acct) : Json.t =
  let open Json in
  let dur = now s -. p.origin in
  let export (name, w, slo) =
    let cur = Window.cur w in
    let fast = range_burn slo (Window.range w ~lo:cur ~hi:cur) in
    let slow = range_burn slo (Window.range w ~lo:(cur - 9) ~hi:cur) in
    Obj
      ((("name", Str name) :: export_stats w)
      @ [
          ("burn_fast", Float (fast, 2)); ("burn_slow", Float (slow, 2));
          ("alerting", Bool (fast >= 1.0 && slow >= 1.0));
        ])
  in
  let tenant t (tn : pending Tenant.t) =
    Obj
      [
        ("tenant", Str tn.Tenant.spec.Tenant.t_name);
        ("depth", Int (Tenant.depth tn));
        ("depth_max", Int tn.Tenant.depth_max);
        ("admitted", Int tn.Tenant.admitted);
        ("completed", Int tn.Tenant.completed);
        ("failed", Int tn.Tenant.failed);
        ("shed_queue", Int tn.Tenant.shed_queue);
        ("shed_quota", Int tn.Tenant.shed_quota);
        ( "quota_utilization",
          Float (Tenant.quota_utilization tn ~duration:dur, 3) );
        ("steals", Int tn.Tenant.steals);
        ("p99", f1 (H.percentile a.lat_tenant.(t) 0.99));
      ]
  in
  Obj
    [
      ("schema", Str "lfi-snap/v2"); ("workload", Str p.spec.Api.l_short);
      ("seq", Int a.served); ("now", f1 dur);
      ("completed", Int (completed s));
      ("failed", Int s.pool.Pool.failed);
      ("instances_lost", Int (Pool.retired s.pool));
      ("window_cycles", f0 window_cycles);
      ("windows", Int (Window.spanned a.overall));
      ("exports", Arr (List.map export a.exports));
      ("slots", slot_rows s.pool);
      ("tenants", Arr (Array.to_list (Array.mapi tenant s.tenants)));
      ("phases", phases_json a);
      ("alerts", Arr (List.rev_map Slo.alert_to_json a.alerts));
    ]

(* ---------------- Accounting -------------------------------------- *)

let new_acct ~(slos : Api.slo list) ~stream ~tenants ~origin : acct =
  let window () =
    Window.create ~depth:window_depth ~origin ~width:window_cycles ()
  in
  let slo_of name =
    List.find_opt (fun o -> o.Api.s_export = name) slos
    |> Option.map (fun o -> o.Api.s_objective)
  in
  { batches = 0; batched = 0; served = 0;
    phase_tot = Array.make Span.nphases 0.0;
    transition = H.create (); call = H.create ();
    lat_tenant = Array.init tenants (fun _ -> H.create ());
    exports =
      List.map (fun e -> (e.Api.e_name, window (), slo_of e.Api.e_name)) stream;
    overall = window (); alerts = []; last_eval = -1;
    cursors = Hashtbl.create 8; frames = [] }

(* evaluate SLOs over every window that closed before [gcur] *)
let eval_closed (p : params) (a : acct) gcur =
  for w_seq = a.last_eval + 1 to gcur - 1 do
    List.iter
      (fun (name, w, slo) ->
        match slo with
        | None -> ()
        | Some ob ->
            let f = Window.range w ~lo:w_seq ~hi:w_seq in
            let sl = Window.range w ~lo:(w_seq - 9) ~hi:w_seq in
            List.iter
              (fun (kind, fast, slow) ->
                a.alerts <-
                  { Slo.a_export = name; a_window = w_seq; a_kind = kind;
                    a_fast = fast; a_slow = slow }
                  :: a.alerts;
                match p.trace with
                | None -> ()
                | Some t ->
                    Trace.instant t ~name:("slo:" ^ name) ~cat:"slo"
                      ~ts:
                        (p.origin
                        +. (float_of_int (w_seq + 1) *. window_cycles))
                      ~pid:trace_pid ~tid:0
                      ~args:
                        [ ("kind", Trace.Str (Slo.kind_name kind));
                          ("window", Trace.Int w_seq);
                          ("fast", Trace.Float fast);
                          ("slow", Trace.Float slow) ])
              (Slo.check ob ~fast:f ~slow:sl))
      a.exports
  done;
  if gcur - 1 > a.last_eval then a.last_eval <- gcur - 1

(* the request's phase slices on its slot's track, laid after the
   track's previous request *)
let emit_span (p : params) (a : acct) (inst : Instance.t) =
  match p.trace with
  | None -> ()
  | Some t ->
      let sp = inst.Instance.span in
      let slot = inst.Instance.p.Lfi_runtime.Proc.slot in
      let cur0 =
        Option.value ~default:p.origin (Hashtbl.find_opt a.cursors slot)
      in
      let start =
        Float.max cur0
          (sp.Span.t0 -. Span.get sp Span.Marshal_in
         -. Span.get sp Span.Queue)
      in
      Hashtbl.replace a.cursors slot
        (Span.emit sp t ~pid:trace_pid ~tid:slot ~ts:start)

(** Account one dispatched request.  [batch] is its index within its
    DRR batch, or [-1] when it was dispatched unbatched (replay). *)
let record (p : params) (s : sched) (a : acct) ~stolen ~batch (req : pending)
    (inst : Instance.t option) (r : (Api.reply, Api.error) result) =
  let now = now s in
  List.iter (fun (_, w, _) -> Window.advance w ~now) a.exports;
  Window.advance a.overall ~now;
  let _, ew, slo =
    List.find (fun (n, _, _) -> n = req.pr_export.Api.e_name) a.exports
  in
  let tn = s.tenants.(req.pr_tenant) in
  if stolen then tn.Tenant.steals <- tn.Tenant.steals + 1;
  if batch = 0 then a.batches <- a.batches + 1;
  if batch >= 0 then a.batched <- a.batched + 1;
  (match r with
  | Ok reply ->
      let total = reply.Api.stats.Api.total_cycles in
      let insns = reply.Api.stats.Api.call_insns in
      H.observe a.transition reply.Api.stats.Api.gate_cycles;
      H.observe a.call total;
      (* end-to-end latency: queue wait + service; under replay the
         request arrived the instant it was served, so this is exactly
         the v2 number *)
      let latency =
        if p.arrival = Arrival.Replay then total else now -. req.pr_arrival
      in
      let over =
        match slo with
        | Some ob -> latency > ob.Slo.latency_cycles
        | None -> false
      in
      Window.observe ew ~now ~latency ~insns ~over;
      Window.observe a.overall ~now ~latency ~insns ~over;
      H.observe a.lat_tenant.(req.pr_tenant) latency;
      tn.Tenant.completed <- tn.Tenant.completed + 1;
      Option.iter
        (fun inst ->
          Span.set inst.Instance.span Span.Queue (latency -. total);
          Span.accumulate inst.Instance.span a.phase_tot;
          emit_span p a inst)
        inst
  | Error _ ->
      tn.Tenant.failed <- tn.Tenant.failed + 1;
      Window.fail ew ~now;
      Window.fail a.overall ~now);
  eval_closed p a (Window.cur a.overall);
  a.served <- a.served + 1;
  if p.snapshot_every > 0 && a.served mod p.snapshot_every = 0 then
    a.frames <- frame_of p s a :: a.frames

(* ---------------- Arrival ----------------------------------------- *)

(* a lone tenant takes every request without drawing *)
let pick_tenant rng (tns : pending Tenant.t array) =
  let n = Array.length tns in
  if n = 1 then 0
  else
    weighted_pick rng (fun t -> tns.(t).Tenant.spec.Tenant.t_weight)
      (List.init n Fun.id)

(* tenant pick (when not pinned) draws before export pick, so the
   request stream stays a pure function of seed + tenant list *)
let gen (s : sched) (src : source) ?tenant ~(at : float) ~(client : int) () =
  let t =
    match tenant with Some t -> t | None -> pick_tenant src.rng s.tenants
  in
  let e = pick_export src.rng src.stream in
  let args = e.Api.e_gen ~rng:src.rng in
  src.issued <- src.issued + 1;
  { pr_export = e; pr_args = args; pr_arrival = at; pr_tenant = t;
    pr_client = client }

(* closed loop: client [k], pinned round-robin to a tenant, issues one
   request; closed loops self-limit, so admission control does not
   apply *)
let issue (s : sched) (src : source) k at =
  let t = k mod Array.length s.tenants in
  Tenant.enqueue s.tenants.(t) (gen s src ~tenant:t ~at ~client:k ())

(* open loop: admit everything that arrived while the server was busy *)
let admit_due (p : params) (s : sched) (src : source) =
  match src.gaps with
  | None -> ()
  | Some gap ->
      let now = now s in
      while src.issued < p.requests && src.next_at <= now do
        let at = src.next_at in
        let req = gen s src ~at ~client:(-1) () in
        ignore (Tenant.admit s.tenants.(req.pr_tenant) ~now:at req);
        src.next_at <- at +. gap ()
      done

(* ---------------- Dispatch ---------------------------------------- *)

(* pick an instance for tenant [t]: home shard first, then steal around
   the ring; the flag says whether it was stolen *)
let pick_instance (s : sched) t : (Instance.t * bool) option =
  let n = Array.length s.tenants in
  let keep i = s.pool.Pool.instances.(i).Instance.alive in
  let rec go k =
    if k >= n then None
    else
      match
        Runq.select s.shards.((t + k) mod n) ~keep ~runnable:(fun _ -> true)
      with
      | Some i -> Some (s.pool.Pool.instances.(i), k > 0)
      | None -> go (k + 1)
  in
  go 0

let dispatch_one p s a src ~batch (req : pending) pick =
  (match pick with
  | None ->
      record p s a ~stolen:false ~batch req None (Error Api.No_instances)
  | Some (inst, stolen) ->
      record p s a ~stolen ~batch req (Some inst)
        (Pool.dispatch_on s.pool inst req.pr_export.Api.e_name req.pr_args));
  (* a closed-loop client re-issues the instant its request completes *)
  if req.pr_client >= 0 && src.issued < p.requests then
    issue s src req.pr_client (now s)

(** Most same-export requests served per dispatch decision. *)
let batch_max = 8

(* serve one DRR batch for tenant [t]: up to [min deficit batch_max]
   consecutive same-export requests on one instance, one dispatch
   decision for the whole batch *)
let serve_batch p s a src t =
  let tn = s.tenants.(t) in
  let w = tn.Tenant.spec.Tenant.t_weight in
  tn.Tenant.deficit <- min (tn.Tenant.deficit + w) (max batch_max w);
  let limit = min tn.Tenant.deficit batch_max in
  let ename = (Option.get (Tenant.peek tn)).pr_export.Api.e_name in
  Machine.add_cycles (machine s) s.charge;
  let rec go n pick =
    match Tenant.peek tn with
    | Some r when n < limit && r.pr_export.Api.e_name = ename ->
        let req = Tenant.take tn in
        let pick =
          match pick with
          | Some (i, _) when i.Instance.alive -> pick
          | _ -> pick_instance s t (* re-pick: the batch killed it *)
        in
        dispatch_one p s a src ~batch:n req pick;
        go (n + 1) pick
    | _ -> n
  in
  tn.Tenant.deficit <- tn.Tenant.deficit - go 0 (pick_instance s t);
  if Tenant.depth tn = 0 then tn.Tenant.deficit <- 0

let next_tenant (s : sched) =
  Runq.select s.tq ~keep:(fun _ -> true) ~runnable:(fun t ->
      Tenant.depth s.tenants.(t) > 0)

(* the open- and closed-loop serve loop: batches in DRR order until
   every tenant queue is empty and nothing more is due *)
let rec serve_loop p s a src =
  admit_due p s src;
  match (next_tenant s, src.gaps) with
  | Some t, _ ->
      serve_batch p s a src t;
      serve_loop p s a src
  | None, Some _ when src.issued < p.requests ->
      (* open loop: idle until the next arrival *)
      if src.next_at > now s then
        Machine.add_cycles (machine s) (src.next_at -. now s);
      serve_loop p s a src
  | None, _ -> ()

let drive p s a src =
  match p.arrival with
  | Arrival.Replay ->
      (* v2 shape: each request arrives the instant the server is
         ready — no queueing, no decision charge, batch of one *)
      for _ = 1 to p.requests do
        let now = now s in
        let req = gen s src ~at:now ~client:(-1) () in
        let tn = s.tenants.(req.pr_tenant) in
        if Tenant.admit tn ~now req = Tenant.Admitted then begin
          let pick = pick_instance s req.pr_tenant in
          dispatch_one p s a src ~batch:(-1) (Tenant.take tn) pick
        end
      done
  | Arrival.Open _ -> serve_loop p s a src
  | Arrival.Closed { concurrency } ->
      for k = 0 to min concurrency p.requests - 1 do
        issue s src k p.origin
      done;
      serve_loop p s a src

(* ---------------- Report ------------------------------------------ *)

type tenant_stat = {
  ts_name : string;
  ts_admitted : int;
  ts_completed : int;
  ts_failed : int;
  ts_shed_queue : int;
  ts_shed_quota : int;
  ts_steals : int;
  ts_p50 : float;
  ts_p99 : float;
}

type report = {
  json : Json.t;  (** the lfi-serve/v3 report *)
  completed : int;
  shed : int;  (** requests rejected at admission (quota or queue bound) *)
  retired : int;  (** instances lost *)
  gate_p50 : float;
  gate_p99 : float;
  gate_mean : float;
  call_p999 : float;
  latency_p50 : float;  (** end-to-end (queue wait included), cycles *)
  latency_p99 : float;
  latency_p999 : float;
  insns_per_request : float;
  requests_per_sec : float;
  achieved_rps : float;  (** served / simulated duration *)
  duration_cycles : float;
  steals : int;
  tenants : tenant_stat list;
  alerts : Slo.alert list;  (** burn-rate alerts, in firing order *)
  snapshots : Json.t list;  (** lfi-snap/v2 frames, in emission order *)
  summary : Json.t;
      (** condensed one-object view of the run, for suite embedding *)
}

(* the report's windows and slo sections *)
let windows_json (a : acct) : Json.t =
  let open Json in
  let om = Window.merged a.overall in
  Obj
    [
      ("window_cycles", f0 window_cycles);
      ("spanned", Int (Window.spanned a.overall));
      ("evicted", Int (Window.evicted a.overall));
      ("overall", Obj (percentiles om @ [ ("mean", f1 (mean_or_nan om)) ]));
      ( "per_export",
        Arr
          (List.map
             (fun (name, w, _) -> Obj (("export", Str name) :: export_stats w))
             a.exports) );
    ]

let slo_json (p : params) (a : acct) : Json.t =
  let open Json in
  let objective s =
    let o = s.Api.s_objective in
    Obj
      [
        ("export", Str s.Api.s_export);
        ("latency_cycles", f0 o.Slo.latency_cycles);
        ("latency_budget", Float (o.Slo.latency_budget, 3));
        ("error_budget", Float (o.Slo.error_budget, 3));
      ]
  in
  Obj
    [
      ("objectives", Arr (List.map objective p.spec.Api.l_slos));
      ("alerts", Arr (List.rev_map Slo.alert_to_json a.alerts));
    ]

let tenant_json (a : acct) ~dur t (tn : pending Tenant.t) : Json.t =
  let open Json in
  let sp = tn.Tenant.spec in
  Obj
    ([
       ("tenant", Str sp.Tenant.t_name); ("weight", Int sp.Tenant.t_weight);
       ( "quota_rps",
         if Tenant.has_quota tn then f0 sp.Tenant.t_quota_rps else Null );
       ("queue_bound", Int sp.Tenant.t_queue_bound);
       ("admitted", Int tn.Tenant.admitted);
       ("completed", Int tn.Tenant.completed); ("failed", Int tn.Tenant.failed);
       ("shed_queue", Int tn.Tenant.shed_queue);
       ("shed_quota", Int tn.Tenant.shed_quota);
       ( "quota_utilization",
         Float (Tenant.quota_utilization tn ~duration:dur, 3) );
       ("depth_max", Int tn.Tenant.depth_max);
       ("depth_avg", f1 (Tenant.depth_avg tn));
       ("steals", Int tn.Tenant.steals);
     ]
    @ percentiles a.lat_tenant.(t))

let tenant_stats (s : sched) (a : acct) : tenant_stat list =
  Array.to_list
    (Array.mapi
       (fun t (tn : pending Tenant.t) ->
         {
           ts_name = tn.Tenant.spec.Tenant.t_name;
           ts_admitted = tn.Tenant.admitted;
           ts_completed = tn.Tenant.completed;
           ts_failed = tn.Tenant.failed;
           ts_shed_queue = tn.Tenant.shed_queue;
           ts_shed_quota = tn.Tenant.shed_quota;
           ts_steals = tn.Tenant.steals;
           ts_p50 = H.percentile a.lat_tenant.(t) 0.50;
           ts_p99 = H.percentile a.lat_tenant.(t) 0.99;
         })
       s.tenants)

(* the frame stream: the closing frame shows the run's end, and
   supersedes an in-loop frame taken at the same request count *)
let frames (p : params) (s : sched) (a : acct) : Json.t list =
  if p.snapshot_every <= 0 then []
  else
    let older =
      match a.frames with
      | f :: older when Json.to_int (Json.member "seq" f) = a.served -> older
      | frames -> frames
    in
    List.rev (frame_of p s a :: older)

(** The [lfi-serve/v3] report, read off the finished run. *)
let report_of (p : params) (s : sched) (a : acct) : report =
  let open Json in
  let gate = a.transition and call = a.call in
  (* each total is read off the one record that counts it *)
  let serve_cycles = call.H.sum in
  let serve_insns = Window.total_insns a.overall in
  let steals =
    Array.fold_left (fun n tn -> n + tn.Tenant.steals) 0 s.tenants
  in
  let completed = completed s and failed = s.pool.Pool.failed in
  let retired = Pool.retired s.pool in
  let shed = Array.fold_left (fun n tn -> n + Tenant.sheds tn) 0 s.tenants in
  let clock_hz = p.uarch.Cost_model.clock_ghz *. 1e9 in
  let insns_per_request =
    if completed = 0 then 0.0
    else float_of_int serve_insns /. float_of_int completed
  in
  (* simulated wall-clock throughput: requests per second at the
     modeled clock, from the cycles spent serving *)
  let requests_per_sec =
    if serve_cycles <= 0.0 then 0.0
    else float_of_int completed /. (serve_cycles /. clock_hz)
  in
  let dur = now s -. p.origin in
  let achieved_rps =
    if dur <= 0.0 then 0.0 else float_of_int a.served /. (dur /. clock_hz)
  in
  let pct = H.percentile and lat = Window.total a.overall in
  let rate, concurrency =
    match p.arrival with
    | Arrival.Open { rate_rps } -> (f0 rate_rps, Null)
    | Arrival.Closed { concurrency } -> (Null, Int concurrency)
    | Arrival.Replay -> (Null, Null)
  in
  let latency = percentiles lat @ [ ("mean", f1 (mean_or_nan lat)) ] in
  let tenants_json =
    Arr (Array.to_list (Array.mapi (tenant_json a ~dur) s.tenants))
  in
  let json =
    Obj
      ([
         ("schema", Str "lfi-serve/v3"); ("workload", Str p.spec.Api.l_short);
         ("system", Str (Lfi_core.Config.name Lfi_core.Config.o2));
         ("uarch", Str p.uarch.Cost_model.name); ("pool", Int p.pool_size);
         ("requests", Int p.requests); ("seed", Int p.seed);
       ]
      @ (if p.filter = [] then []
         else [ ("filter", Arr (List.map (fun e -> Str e) p.filter)) ])
      @ [
          ("completed", Int completed); ("failed", Int failed);
          ("instances_lost", Int retired); ("serve_cycles", f1 serve_cycles);
          ("serve_insns", Int serve_insns);
          ("insns_per_request", f1 insns_per_request);
          ("requests_per_sec", f0 requests_per_sec);
          ("transition_cycles", H.to_json gate);
          ("transition_p50", f1 (pct gate 0.50));
          ("transition_p99", f1 (pct gate 0.99));
          ("call_cycles", H.to_json call); ("call_p50", f1 (pct call 0.50));
          ("call_p99", f1 (pct call 0.99)); ("call_p999", f1 (pct call 0.999));
          (* the per-request phase breakdown: where a request's cycles
             go across the boundary (marshal_in is host-side work the
             simulated clock does not advance through; queue wait
             advances it only under the open/closed arrival models) *)
          ("phases", phases_json a);
          (* rolling (windowed) view: what lfi_top shows live *)
          ("windows", windows_json a);
          ("slo", slo_json p a);
          (* v3: arrival model, end-to-end latency, and the scheduling
             layer *)
          ( "arrival",
            Obj
              [
                ("model", Str (Arrival.name p.arrival)); ("rate_rps", rate);
                ("concurrency", concurrency); ("offered", Int p.requests);
                ("served", Int a.served); ("shed", Int shed);
                ("duration_cycles", f1 dur); ("achieved_rps", f0 achieved_rps);
                ("latency", Obj latency);
              ] );
          ("tenants", tenants_json);
          ( "sched",
            Obj
              [
                ("batch_max", Int batch_max); ("batches", Int a.batches);
                ("batched_requests", Int a.batched);
                ("dispatch_decision_cycles", f1 s.charge);
                ("steals", Int steals);
              ] );
          (* the §5.3 comparison: what the same boundary crossing costs
             under process isolation (gvisor is unmeasured/NaN on some
             uarches → null) *)
          ( "baselines",
            Obj
              [
                ("lfi_transition_mean", f1 (H.mean gate));
                ( "linux_pipe_roundtrip",
                  f1 p.uarch.Cost_model.linux_pipe_roundtrip );
                ( "gvisor_pipe_roundtrip",
                  f1 p.uarch.Cost_model.gvisor_pipe_roundtrip );
              ] );
          ("per_slot", slot_rows s.pool);
          ( "per_export",
            Obj
              (List.map
                 (fun (name, w, _) ->
                   (name, Int (Window.total_ok w + Window.total_err w)))
                 a.exports) );
        ])
  in
  (* condensed one-object view of the same run, for suite embedding *)
  let summary =
    Obj
      ([
         ("uarch", Str p.uarch.Cost_model.name); ("pool", Int p.pool_size);
         ("tenant_count", Int (Array.length s.tenants));
         ("requests", Int p.requests); ("seed", Int p.seed);
         ("model", Str (Arrival.name p.arrival)); ("rate_rps", rate);
         ("concurrency", concurrency); ("completed", Int completed);
         ("failed", Int failed); ("shed", Int shed);
         ("duration_cycles", f1 dur); ("achieved_rps", f0 achieved_rps);
       ]
      @ latency
      @ [ ("steals", Int steals); ("batches", Int a.batches);
          ("per_tenant", tenants_json) ])
  in
  {
    json; completed; shed; retired;
    gate_p50 = pct gate 0.50; gate_p99 = pct gate 0.99;
    gate_mean = H.mean gate; call_p999 = pct call 0.999;
    latency_p50 = pct lat 0.50; latency_p99 = pct lat 0.99; latency_p999 = pct lat 0.999;
    insns_per_request; requests_per_sec; achieved_rps; duration_cycles = dur;
    steals; tenants = tenant_stats s a;
    alerts = List.rev a.alerts; snapshots = frames p s a; summary;
  }

(* ---------------- Entry point ------------------------------------- *)

(** Serve [requests] requests of [spec], built at O2, through a
    [pool]-slot pool: setup, then drive under the [arrival] model, then
    read the report off the accounting record. *)
let run ?(uarch = Cost_model.m1) ?(filter : string list = [])
    ?(trace : Trace.t option) ?(snapshot_every = 0) ?(arrival = Arrival.Replay)
    ?(tenants : Tenant.spec list = [ Tenant.default_spec ])
    ~(spec : Api.lib_spec) ~(pool : int) ~(requests : int)
    ~(seed : int) () : report =
  if requests < 1 then invalid_arg "Serve.run: requests < 1";
  if tenants = [] then invalid_arg "Serve.run: no tenants";
  if List.exists (fun (t : Tenant.spec) -> t.Tenant.t_weight < 1) tenants then
    invalid_arg "Serve.run: tenant weight < 1";
  (match arrival with
  | Arrival.Open { rate_rps } when not (rate_rps > 0.0) ->
      invalid_arg "Serve.run: open-loop rate <= 0"
  | Arrival.Closed { concurrency } when concurrency < 1 ->
      invalid_arg "Serve.run: concurrency < 1"
  | _ -> ());
  (* the request stream: weighted exports, optionally narrowed to
     --filter names (spec order is preserved, so the stream stays a
     pure function of seed + filter) *)
  let stream =
    List.filter
      (fun e ->
        e.Api.e_weight > 0 && (filter = [] || List.mem e.Api.e_name filter))
      spec.Api.l_exports
  in
  if stream = [] then
    invalid_arg "Serve.run: no weighted exports in the stream";
  (* ---------------- setup ------------------------------------------ *)
  let lib =
    let exports =
      List.map (fun e -> e.Api.e_name) spec.Api.l_exports
      @ match spec.Api.l_init with None -> [] | Some n -> [ n ]
    in
    Library.create ~name:spec.Api.l_short ~exports spec.Api.l_program
  in
  let rt =
    Lfi_runtime.Runtime.create
      ~config:{ Lfi_runtime.Runtime.default_config with verify = false; uarch }
      ()
  in
  Option.iter
    (fun t ->
      Trace.process_name t ~pid:Lfi_runtime.Runtime.trace_pid
        ~name:"lfi-runtime";
      rt.Lfi_runtime.Runtime.trace <- Some t)
    trace;
  let pl =
    Pool.create ~runtime:rt ~arena:spec.Api.l_arena ?init:spec.Api.l_init
      ~size:pool lib
  in
  Option.iter
    (fun t ->
      Trace.process_name t ~pid:trace_pid ~name:"lfi-serve";
      Trace.thread_name t ~pid:trace_pid ~tid:0 ~name:"slo";
      Array.iter
        (fun inst ->
          let slot = inst.Instance.p.Lfi_runtime.Proc.slot in
          Trace.thread_name t ~pid:trace_pid ~tid:slot
            ~name:(Printf.sprintf "slot %d" slot))
        pl.Pool.instances)
    trace;
  let clock_hz = uarch.Cost_model.clock_ghz *. 1e9 in
  let n = List.length tenants in
  let tns = Array.map (Tenant.create ~clock_hz) (Array.of_list tenants) in
  (* home shards: slot i belongs to tenant (i mod n); with one tenant
     the shard IS the pool in creation order, so replay keeps the v2
     rotation exactly *)
  let shards = Array.init n (fun _ -> Runq.create ()) in
  Array.iteri (fun i _ -> Runq.push shards.(i mod n) i) pl.Pool.instances;
  let tq = Runq.create ~capacity:n () in
  Array.iteri (fun t _ -> Runq.push tq t) tns;
  let s =
    { pool = pl; tenants = tns; shards; tq;
      charge =
        (if arrival = Arrival.Replay then 0.0 else dispatch_decision_cycles) }
  in
  (* window 0 opens when serving starts, after pool warm-up *)
  let origin = now s in
  let a =
    new_acct ~slos:spec.Api.l_slos ~stream ~tenants:n ~origin
  in
  let gaps =
    match arrival with
    | Arrival.Open { rate_rps } ->
        Some (Arrival.exp_stream ~seed ~mean_cycles:(clock_hz /. rate_rps))
    | _ -> None
  in
  let src =
    { rng = make_rng seed; stream; issued = 0; gaps;
      next_at = (match gaps with Some gap -> origin +. gap () | None -> 0.0) }
  in
  let p =
    { spec; uarch; filter; arrival; pool_size = pool;
      requests; seed; snapshot_every; trace; origin }
  in
  (* ---------------- drive, then report ----------------------------- *)
  drive p s a src;
  report_of p s a

(* ---------------- The committed bench suite ----------------------- *)

(** Parameters of the committed `BENCH_serve.json` scale runs, which
    `lfi_serve --suite` writes; CI re-runs it and diffs the file, so a
    p999 regression shows there.  The tests reuse the tenant classes.
    The anchor replay run keeps its own CLI parameters in the
    Makefile. *)
module Suite = struct
  let pool = 256
  let requests = 3000
  let concurrency = 64
  let open_rate = 800_000.0

  (** Four xzbox tenants: a free-for-all heavyweight and three quota
      classes.  At the open-loop rate the bronze tenant's weighted
      arrival share (1/10 of 800k) exceeds its 60k quota, so the
      deterministic quota shed path is exercised in the committed
      numbers. *)
  let tenants =
    [
      { Tenant.t_name = "free0"; t_weight = 4; t_queue_bound = 256;
        t_quota_rps = 0.0; t_burst = 1.0 };
      { Tenant.t_name = "gold1"; t_weight = 3; t_queue_bound = 128;
        t_quota_rps = 320_000.0; t_burst = 32.0 };
      { Tenant.t_name = "silver2"; t_weight = 2; t_queue_bound = 64;
        t_quota_rps = 180_000.0; t_burst = 16.0 };
      { Tenant.t_name = "bronze3"; t_weight = 1; t_queue_bound = 32;
        t_quota_rps = 60_000.0; t_burst = 8.0 };
    ]

  let knee_pool = 64
  let knee_requests = 900

  let knee_rates =
    [ 600_000.0; 800_000.0; 1_000_000.0; 1_100_000.0; 1_300_000.0;
      1_600_000.0 ]

  (** A swept rate is sustainable while its overall p999 stays within
      4x the lowest swept rate's p999 and no tenant shed on queue
      bound; the knee is the largest sustainable rate. *)
  let sustainable ~(base_p999 : float) (r : report) =
    r.latency_p999 <= 4.0 *. base_p999
    && List.for_all (fun ts -> ts.ts_shed_queue = 0) r.tenants
end
