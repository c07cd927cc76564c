(* Tests for lib/libbox: export resolution, call marshalling (copy-in /
   copy-out / EFAULT), snapshot-based reset isolation, pool dispatch,
   crash containment, runaway budgets, and serve determinism. *)

open Lfi_libbox
module Runtime = Lfi_runtime.Runtime
module Proc = Lfi_runtime.Proc
module Libs = Lfi_workloads.Libs
module Json = Lfi_telemetry.Json

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)
let pretty (r : Serve.report) = Json.to_pretty r.Serve.json
let member_line k (r : Serve.report) = Json.to_line (Json.member k r.Serve.json)

let xz_exports =
  [ "init"; "checksum"; "compress"; "expand"; "dict_sum"; "poke_global";
    "peek_global" ]

let xz_lib =
  lazy
    (Library.create ~name:"xzbox" ~exports:xz_exports
       Libs.xzbox.Api.l_program)

let crash_lib =
  lazy
    (Library.create ~name:"crashbox"
       ~exports:[ "poke"; "corrupt" ]
       Libs.crashbox.Api.l_program)

let make_rt () =
  Runtime.create ~config:{ Runtime.default_config with verify = false } ()

let make_inst ?insn_budget () =
  Instance.create ?insn_budget ~arena:(1 lsl 16) ~init:"init" (make_rt ())
    (Lazy.force xz_lib)

let ret_of = function
  | Ok r -> r.Api.ret
  | Error e -> Alcotest.failf "call failed: %s" (Api.error_to_string e)

let reply_of = function
  | Ok r -> r
  | Error e -> Alcotest.failf "call failed: %s" (Api.error_to_string e)

(* deterministic test rng, independent of the serve stream *)
let test_rng seed =
  let s = ref (seed lor 1) in
  fun bound ->
    s := ((!s * 1103515245) + 12345) land 0x3FFFFFFF;
    !s mod bound

(* ---------------- library construction ---------------- *)

let test_export_resolution () =
  let lib = Lazy.force xz_lib in
  checkb "checksum resolved" true (Library.export_addr lib "checksum" <> None);
  checkb "unknown absent" true (Library.export_addr lib "nope" = None);
  checkb "trampoline placed" true (lib.Library.trampoline > 0);
  (* globals are visible as symbols too (tests use them for addresses) *)
  checkb "global symbol" true (Library.symbol lib "dict" <> None)

let test_unknown_export_rejected () =
  match
    Library.create ~name:"bad" ~exports:[ "missing" ]
      Libs.xzbox.Api.l_program
  with
  | exception Library.Error _ -> ()
  | _ -> Alcotest.fail "expected Library.Error"

(* ---------------- calls + marshalling ---------------- *)

let test_checksum_matches_reference () =
  let inst = make_inst () in
  let rng = test_rng 11 in
  for _ = 1 to 5 do
    let len = 16 + rng 300 in
    let b = Libs.gen_bytes ~rng len in
    let r =
      ret_of (Instance.call inst "checksum" [ Api.In b; Api.I (Int64.of_int len) ])
    in
    checki "checksum" (Libs.ref_checksum b) (Int64.to_int r);
    Instance.reset inst
  done

let test_compress_copy_out () =
  let inst = make_inst () in
  let rng = test_rng 23 in
  let len = 256 + rng 200 in
  let src = Libs.gen_runs ~rng len in
  let reply =
    reply_of
      (Instance.call inst "compress"
         [ Api.In src; Api.I (Int64.of_int len); Api.Out len ])
  in
  let clen = Int64.to_int reply.Api.ret in
  let expect = Libs.ref_compress src in
  checki "compressed length" (Bytes.length expect) clen;
  match reply.Api.outs with
  | [ dst ] ->
      checks "compressed bytes"
        (Bytes.to_string expect)
        (Bytes.to_string (Bytes.sub dst 0 clen))
  | _ -> Alcotest.fail "expected one out buffer"

let test_expand_copy_out () =
  let inst = make_inst () in
  let len = 200 and seed = 0x1234 in
  let reply =
    reply_of
      (Instance.call inst "expand"
         [ Api.Out len; Api.I (Int64.of_int len); Api.I (Int64.of_int seed) ])
  in
  let expect, h = Libs.ref_expand ~len ~seed in
  checki "expand checksum" h (Int64.to_int reply.Api.ret);
  match reply.Api.outs with
  | [ dst ] -> checks "expanded bytes" (Bytes.to_string expect) (Bytes.to_string dst)
  | _ -> Alcotest.fail "expected one out buffer"

let test_copy_efault () =
  let inst = make_inst () in
  (* offset 20000 is in the guard region between the call table and the
     code origin: never mapped *)
  (match Instance.copy_out inst 20000L 16 with
  | Error Api.Efault -> ()
  | Ok _ -> Alcotest.fail "copy_out from guard region succeeded"
  | Error e -> Alcotest.failf "wrong error: %s" (Api.error_to_string e));
  match Instance.copy_in inst 20000L (Bytes.create 16) with
  | Error Api.Efault -> ()
  | Ok _ -> Alcotest.fail "copy_in to guard region succeeded"
  | Error e -> Alcotest.failf "wrong error: %s" (Api.error_to_string e)

let test_arena_overflow () =
  let rt = make_rt () in
  let inst =
    Instance.create ~arena:4096 ~init:"init" rt (Lazy.force xz_lib)
  in
  (* arena rounds up to one 16 KiB page; 64 KiB cannot fit *)
  match
    Instance.call inst "checksum"
      [ Api.In (Bytes.create 65536); Api.I 65536L ]
  with
  | Error Api.Arena_overflow -> ()
  | Ok _ -> Alcotest.fail "oversized buffer accepted"
  | Error e -> Alcotest.failf "wrong error: %s" (Api.error_to_string e)

let test_gate_cheaper_than_pipe () =
  let inst = make_inst () in
  let reply = reply_of (Instance.call inst "peek_global" []) in
  let u = Lfi_emulator.Cost_model.m1 in
  checkb "gate has entry+exit" true
    (reply.Api.stats.Api.gate_cycles
     >= 2.0 *. u.Lfi_emulator.Cost_model.lfi_runtime_call_entry);
  checkb "gate below linux pipe roundtrip" true
    (reply.Api.stats.Api.gate_cycles
     < u.Lfi_emulator.Cost_model.linux_pipe_roundtrip)

(* ---------------- reset semantics ---------------- *)

let test_reset_restores_globals () =
  let inst = make_inst () in
  ignore (ret_of (Instance.call inst "poke_global" [ Api.I 42L ]));
  checki "visible before reset" 42
    (Int64.to_int (ret_of (Instance.call inst "peek_global" [])));
  Instance.reset inst;
  checki "pristine after reset" 0
    (Int64.to_int (ret_of (Instance.call inst "peek_global" [])))

let test_init_survives_reset () =
  let inst = make_inst () in
  let d1 = ret_of (Instance.call inst "dict_sum" []) in
  checkb "dict nonzero" true (Int64.to_int d1 <> 0);
  Instance.reset inst;
  ignore (ret_of (Instance.call inst "poke_global" [ Api.I 7L ]));
  Instance.reset inst;
  let d2 = ret_of (Instance.call inst "dict_sum" []) in
  checkb "dict stable across resets" true (Int64.equal d1 d2)

let test_reset_dirty_accounting () =
  let inst = make_inst () in
  ignore (ret_of (Instance.call inst "poke_global" [ Api.I 9L ]));
  Instance.reset inst;
  let after_call = inst.Instance.pages_restored in
  checkb "dirty pages restored" true (after_call > 0);
  (* an idle reset finds nothing dirty: the dirty-flag tracking is what
     keeps reset proportional to what the request touched *)
  Instance.reset inst;
  checki "idle reset restores nothing" after_call inst.Instance.pages_restored

let test_reset_undoes_mmap_growth () =
  (* a request that grows the heap (mmap) must not leak mappings into
     the next request *)
  let inst = make_inst () in
  let heap0 = inst.Instance.p.Proc.heap_end in
  (* expand with a big Out uses only the arena; instead drive mmap via
     the runtime-call interface by calling an export that uses it —
     xzbox has none, so exercise the reset path directly *)
  let mem = inst.Instance.rt.Runtime.mem in
  Lfi_emulator.Memory.map mem ~addr:heap0 ~len:Lfi_emulator.Memory.page_size
    ~perm:Lfi_emulator.Memory.perm_rw;
  inst.Instance.p.Proc.heap_end <-
    Int64.add heap0 (Int64.of_int Lfi_emulator.Memory.page_size);
  Instance.reset inst;
  checkb "grown page unmapped" true
    (not (Lfi_emulator.Memory.is_mapped mem heap0));
  checkb "heap break rewound" true
    (Int64.equal inst.Instance.p.Proc.heap_end heap0)

(* ---------------- pool ---------------- *)

let test_pool_isolation () =
  let pool = Pool.create ~size:1 ~init:"init" (Lazy.force xz_lib) in
  let _, r1 = Pool.dispatch pool "poke_global" [ Api.I 1234L ] in
  ignore (ret_of r1);
  (* same instance, next request: must observe pristine state *)
  let _, r2 = Pool.dispatch pool "peek_global" [] in
  checki "no leak across requests" 0 (Int64.to_int (ret_of r2))

let test_pool_round_robin () =
  let pool = Pool.create ~size:3 ~init:"init" (Lazy.force xz_lib) in
  let pids =
    List.init 6 (fun _ ->
        match Pool.dispatch pool "peek_global" [] with
        | Some inst, Ok _ -> inst.Instance.p.Proc.pid
        | _ -> Alcotest.fail "dispatch failed")
  in
  checkb "cycles through all instances" true
    (List.length (List.sort_uniq compare pids) = 3);
  checkb "deterministic order" true
    (List.filteri (fun i _ -> i < 3) pids
    = List.filteri (fun i _ -> i >= 3) pids)

let test_crash_containment () =
  let lib = Lazy.force crash_lib in
  let pool = Pool.create ~size:2 lib in
  let scratch =
    match Library.symbol lib "scratch" with
    | Some a -> Int64.of_int a
    | None -> Alcotest.fail "scratch symbol missing"
  in
  (* benign call works on both instances *)
  let _, r = Pool.dispatch pool "poke" [ Api.I scratch ] in
  checki "benign read" 0 (Int64.to_int (ret_of r));
  (* the faulting call kills exactly one instance *)
  let _, r = Pool.dispatch pool "corrupt" [] in
  (match r with
  | Error (Api.Killed _) -> ()
  | Ok _ -> Alcotest.fail "corrupt did not fault"
  | Error e -> Alcotest.failf "wrong error: %s" (Api.error_to_string e));
  checki "one instance lost" 1 (Pool.live_count pool);
  (* its postmortem went through the ordinary kill path *)
  checki "postmortem recorded" 1 (List.length (Runtime.postmortems pool.Pool.rt));
  (* the dead slot was released for reuse *)
  checki "slot recycled" 1 (List.length pool.Pool.rt.Runtime.free_slots);
  (* and the pool keeps serving on the survivor *)
  let _, r = Pool.dispatch pool "poke" [ Api.I scratch ] in
  checki "survivor serves" 0 (Int64.to_int (ret_of r));
  let _, r = Pool.dispatch pool "poke" [ Api.I scratch ] in
  checki "and keeps serving" 0 (Int64.to_int (ret_of r))

let test_runaway_budget () =
  let rt = make_rt () in
  (* no init: the budget must bound the request call, not instance
     construction *)
  let inst = Instance.create ~insn_budget:20_000 rt (Lazy.force xz_lib) in
  (* a 1 MiB checksum takes far more than 20k instructions *)
  match
    Instance.call inst "checksum"
      [ Api.In (Bytes.make 20_000 'x'); Api.I 20_000L ]
  with
  | Error (Api.Killed _) ->
      checkb "instance retired" true (not inst.Instance.alive)
  | Ok _ -> Alcotest.fail "runaway not killed"
  | Error e -> Alcotest.failf "wrong error: %s" (Api.error_to_string e)

(* The budget check runs at quantum boundaries and block dispatch never
   overruns a quantum (a block longer than the remainder deopts to the
   step path), so a runaway must be killed after the exact same number
   of sandboxed instructions in both dispatch modes. *)
let test_runaway_budget_mode_parity () =
  let kill_insns v =
    let saved = !Lfi_emulator.Machine.superblocks_default in
    Lfi_emulator.Machine.superblocks_default := v;
    Fun.protect
      ~finally:(fun () -> Lfi_emulator.Machine.superblocks_default := saved)
      (fun () ->
        let rt = make_rt () in
        let inst = Instance.create ~insn_budget:20_000 rt (Lazy.force xz_lib) in
        match
          Instance.call inst "checksum"
            [ Api.In (Bytes.make 20_000 'x'); Api.I 20_000L ]
        with
        | Error (Api.Killed why) ->
            (why, rt.Runtime.machine.Lfi_emulator.Machine.insns)
        | Ok _ -> Alcotest.fail "runaway not killed"
        | Error e -> Alcotest.failf "wrong error: %s" (Api.error_to_string e))
  in
  let why_b, insns_b = kill_insns true in
  let why_s, insns_s = kill_insns false in
  checks "same kill reason" why_s why_b;
  checki "killed at identical instruction count" insns_s insns_b

(* ---------------- serve ---------------- *)

let test_serve_deterministic () =
  let r1 =
    Serve.run ~spec:Libs.xzbox ~pool:2 ~requests:60 ~seed:3 ()
  in
  let r2 =
    Serve.run ~spec:Libs.xzbox ~pool:2 ~requests:60 ~seed:3 ()
  in
  checks "byte-identical reports" (pretty r1) (pretty r2);
  checki "all served" 60 r1.Serve.completed;
  checki "none lost" 0 r1.Serve.retired

let contains (s : string) (sub : string) : bool =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_serve_transition_beats_pipe () =
  let r = Serve.run ~spec:Libs.xzbox ~pool:2 ~requests:40 ~seed:5 () in
  let u = Lfi_emulator.Cost_model.m1 in
  checkb "p50 below linux pipe" true
    (r.Serve.gate_p50 < u.Lfi_emulator.Cost_model.linux_pipe_roundtrip);
  checkb "p99 below linux pipe" true
    (r.Serve.gate_p99 < u.Lfi_emulator.Cost_model.linux_pipe_roundtrip);
  checks "schema tagged" "lfi-serve/v3"
    (Json.to_string (Json.member "schema" r.Serve.json));
  checki "phase breakdown present" 6
    (List.length (Json.to_assoc (Json.member "phases" r.Serve.json)));
  checkb "rolling windows present" true
    (Json.member "windows" r.Serve.json <> Json.Null)

let test_serve_filter () =
  let r =
    Serve.run ~spec:Libs.xzbox ~filter:[ "checksum" ] ~pool:2 ~requests:30
      ~seed:3 ()
  in
  checki "all served" 30 r.Serve.completed;
  checks "filter recorded" "[\"checksum\"]" (member_line "filter" r);
  checks "only checksum in the stream" "{\"checksum\": 30}"
    (member_line "per_export" r)

let test_serve_slo_alert () =
  (* slowbox's grind export blows its 8192-cycle objective on every
     call; the multi-window burn-rate monitor must page, and must do so
     identically on every run *)
  let r1 = Serve.run ~spec:Libs.slowbox ~pool:2 ~requests:120 ~seed:7 () in
  let r2 = Serve.run ~spec:Libs.slowbox ~pool:2 ~requests:120 ~seed:7 () in
  checks "deterministic report" (pretty r1) (pretty r2);
  checkb "alerts fired" true (r1.Serve.alerts <> []);
  List.iter
    (fun (a : Lfi_telemetry.Slo.alert) ->
      checks "grind is the offender" "grind" a.Lfi_telemetry.Slo.a_export;
      checkb "latency dimension" true
        (a.Lfi_telemetry.Slo.a_kind = Lfi_telemetry.Slo.Latency);
      checkb "fast window burning" true (a.Lfi_telemetry.Slo.a_fast >= 1.0);
      checkb "slow window burning" true (a.Lfi_telemetry.Slo.a_slow >= 1.0))
    r1.Serve.alerts;
  (* the control: xzbox's generous checksum objective never burns *)
  let green = Serve.run ~spec:Libs.xzbox ~pool:2 ~requests:60 ~seed:3 () in
  checkb "xzbox stays green" true (green.Serve.alerts = [])

let test_serve_snapshot_golden () =
  let r =
    Serve.run ~spec:Libs.slowbox ~pool:2 ~requests:120 ~seed:7
      ~snapshot_every:40 ()
  in
  checki "three frames" 3 (List.length r.Serve.snapshots);
  let got = String.concat "\n" r.Serve.snapshots ^ "\n" in
  let ic = open_in "serve_snap_golden.txt" in
  let want = really_input_string ic (in_channel_length ic) in
  close_in ic;
  checks "byte-stable frames" want got;
  (* every frame survives a parse → re-serialize round trip untouched *)
  List.iter
    (fun line ->
      checks "round trip" line (Snapshot.to_json (Snapshot.of_json line)))
    r.Serve.snapshots;
  let last = Snapshot.of_json (List.nth r.Serve.snapshots 2) in
  let view = Snapshot.render last in
  checkb "alert rendered" true (contains view "ALERT");
  checkb "slot table rendered" true (contains view "PG.RESTORED")

let test_serve_trace_spans () =
  let tr = Lfi_telemetry.Trace.create () in
  let _r =
    Serve.run ~spec:Libs.slowbox ~pool:2 ~requests:40 ~seed:7 ~trace:tr ()
  in
  let s = Lfi_telemetry.Trace.to_string tr in
  checkb "serve process named" true (contains s "lfi-serve");
  checkb "slot track named" true (contains s "slot 1");
  checkb "request slice" true (contains s "req:fast");
  checkb "exec phase slice" true (contains s "\"exec\"");
  checkb "gate phase slice" true (contains s "\"gate_in\"");
  checkb "slo alert instant" true (contains s "slo:grind");
  (* buffer-carrying calls additionally get marshal slices (slowbox
     passes scalars only, so zero-width marshal phases are elided) *)
  let tr2 = Lfi_telemetry.Trace.create () in
  let _r =
    Serve.run ~spec:Libs.xzbox ~pool:2 ~requests:20 ~seed:3 ~trace:tr2 ()
  in
  checkb "marshal phase slice" true
    (contains (Lfi_telemetry.Trace.to_string tr2) "\"marshal_in\"")

(* ---------------- multi-tenant scheduling (lfi-serve/v3) ---------- *)

module Tenant = Lfi_sched.Tenant
module Arrival = Lfi_sched.Arrival

(* the Makefile's anchor run must reproduce every member of the
   committed BENCH_serve.json (the --suite members come from other
   runs), so tier-1 pins the whole v3 report, not just a fixture *)
let test_serve_matches_bench () =
  let ic = open_in_bin "../BENCH_serve.json" in
  let bench = Json.parse (really_input_string ic (in_channel_length ic)) in
  close_in ic;
  let r = Serve.run ~spec:Libs.xzbox ~pool:4 ~requests:1000 ~seed:1 () in
  List.iter
    (fun (k, v) ->
      checks k (Json.to_line (Json.member k bench)) (Json.to_line v))
    (Json.to_assoc r.Serve.json)

(* identical seeds must give byte-identical v3 reports under every
   arrival model; a different seed must not *)
let test_serve_v3_deterministic () =
  let go seed arrival =
    Serve.run ~arrival ~tenants:Serve.Suite.tenants ~spec:Libs.xzbox ~pool:8
      ~requests:300 ~seed ()
  in
  let opn = Arrival.Open { rate_rps = 800_000.0 } in
  let clsd = Arrival.Closed { concurrency = 16 } in
  checks "open loop deterministic" (pretty (go 11 opn)) (pretty (go 11 opn));
  checks "closed loop deterministic" (pretty (go 11 clsd))
    (pretty (go 11 clsd));
  checkb "seed matters" true (pretty (go 11 opn) <> pretty (go 12 opn));
  let r = go 11 opn in
  checks "v3 schema" "\"lfi-serve/v3\"" (member_line "schema" r);
  checks "arrival section" "\"open\""
    (Json.to_line (Json.member "model" (Json.member "arrival" r.Serve.json)));
  checki "tenants section" 4
    (List.length (Json.to_list (Json.member "tenants" r.Serve.json)))

(* a greedy tenant clamped by its quota cannot push the victim's p99
   past its SLO, even at far-over-capacity offered load; without the
   quota it can *)
let test_serve_quota_starvation () =
  let greedy quota =
    { Tenant.t_name = "greedy"; t_weight = 8; t_queue_bound = 64;
      t_quota_rps = quota; t_burst = 16.0 }
  in
  let victim =
    { Tenant.t_name = "victim"; t_weight = 1; t_queue_bound = 64;
      t_quota_rps = 0.0; t_burst = 1.0 }
  in
  let slo_cycles = 131_072.0 in
  let go quota =
    let r =
      Serve.run
        ~arrival:(Arrival.Open { rate_rps = 1_600_000.0 })
        ~tenants:[ greedy quota; victim ] ~spec:Libs.xzbox ~pool:4
        ~requests:600 ~seed:5 ()
    in
    ( List.find (fun t -> t.Serve.ts_name = "victim") r.Serve.tenants,
      List.find (fun t -> t.Serve.ts_name = "greedy") r.Serve.tenants )
  in
  let v_quota, g_quota = go 150_000.0 in
  let v_flood, _ = go 0.0 in
  checkb "quota sheds the greedy excess" true (g_quota.Serve.ts_shed_quota > 0);
  checkb "victim p99 within SLO under quota" true
    (v_quota.Serve.ts_p99 <= slo_cycles);
  (* the tail is bucket-quantised, so the flood shows up most robustly
     in the victim's median queueing delay; the tail must at least not
     improve while the greedy tenant floods *)
  checkb "victim median latency degrades without the quota" true
    (v_flood.Serve.ts_p50 > v_quota.Serve.ts_p50);
  checkb "victim p99 no better without the quota" true
    (v_flood.Serve.ts_p99 >= v_quota.Serve.ts_p99)

(* with fewer slots than tenants, some home shards are empty and those
   tenants serve every request on stolen instances; nothing may be
   lost or double-served on that path *)
let test_serve_work_stealing_conservation () =
  let r =
    Serve.run
      ~arrival:(Arrival.Closed { concurrency = 8 })
      ~tenants:Serve.Suite.tenants ~spec:Libs.xzbox ~pool:2 ~requests:200
      ~seed:9 ()
  in
  let sum f = List.fold_left (fun a t -> a + f t) 0 r.Serve.tenants in
  (* conservation: every issued request is completed or failed, exactly
     once, and the pool's own counters agree with the tenant ledgers *)
  checki "all issued requests accounted" 200
    (sum (fun t -> t.Serve.ts_completed) + sum (fun t -> t.Serve.ts_failed));
  List.iter
    (fun t ->
      checki
        (Printf.sprintf "tenant %s ledger balances" t.Serve.ts_name)
        t.Serve.ts_admitted
        (t.Serve.ts_completed + t.Serve.ts_failed))
    r.Serve.tenants;
  checki "pool agrees" r.Serve.completed (sum (fun t -> t.Serve.ts_completed));
  (* tenants 2 and 3 have empty home shards on a 2-slot pool: every one
     of their dispatches is a steal *)
  List.iter
    (fun t ->
      if t.Serve.ts_name = "silver2" || t.Serve.ts_name = "bronze3" then begin
        checkb (t.Serve.ts_name ^ " stole") true (t.Serve.ts_steals > 0);
        checki (t.Serve.ts_name ^ " every dispatch stolen")
          (t.Serve.ts_completed + t.Serve.ts_failed)
          t.Serve.ts_steals
      end)
    r.Serve.tenants;
  checkb "steals totalled" true (r.Serve.steals > 0);
  (* the open loop also conserves: offered = served + shed *)
  let o =
    Serve.run
      ~arrival:(Arrival.Open { rate_rps = 1_600_000.0 })
      ~tenants:Serve.Suite.tenants ~spec:Libs.xzbox ~pool:2 ~requests:400
      ~seed:9 ()
  in
  let osum f = List.fold_left (fun a t -> a + f t) 0 o.Serve.tenants in
  checki "offered = served + shed" 400
    (osum (fun t -> t.Serve.ts_completed)
    + osum (fun t -> t.Serve.ts_failed)
    + o.Serve.shed)

(* the dispatch rotation with dead slots: all-but-one retired, the last
   one retiring mid-stream, and a respawn recycling the freed slot *)
let test_pool_wraparound_respawn () =
  let lib = Lazy.force crash_lib in
  let pool = Pool.create ~size:3 lib in
  let scratch =
    match Library.symbol lib "scratch" with
    | Some a -> Int64.of_int a
    | None -> Alcotest.fail "scratch symbol missing"
  in
  let kill () =
    match Pool.dispatch pool "corrupt" [] with
    | _, Error (Api.Killed _) -> ()
    | _ -> Alcotest.fail "corrupt did not kill"
  in
  let poke () =
    match Pool.dispatch pool "poke" [ Api.I scratch ] with
    | Some inst, Ok _ -> inst.Instance.p.Proc.slot
    | _ -> Alcotest.fail "poke failed"
  in
  kill ();
  ignore (poke ());
  kill ();
  checki "one live" 1 (Pool.live_count pool);
  (* the rotation must wrap cleanly onto the single survivor *)
  let s1 = poke () and s2 = poke () and s3 = poke () in
  checkb "survivor serves repeatedly" true (s1 = s2 && s2 = s3);
  (* last live instance retires mid-stream: dispatch reports, never
     loops or dangles *)
  kill ();
  checki "none live" 0 (Pool.live_count pool);
  (match Pool.dispatch pool "poke" [ Api.I scratch ] with
  | None, Error Api.No_instances -> ()
  | _ -> Alcotest.fail "empty pool must report No_instances");
  let freed = List.length pool.Pool.rt.Runtime.free_slots in
  checkb "slots freed" true (freed > 0);
  (* respawn recycles a freed slot and the pool serves again *)
  let inst = Pool.respawn pool in
  checki "slot recycled" (freed - 1)
    (List.length pool.Pool.rt.Runtime.free_slots);
  checki "respawn live" 1 (Pool.live_count pool);
  let s = poke () in
  checki "respawned instance serves" inst.Instance.p.Proc.slot s

(* lfi_top feeds untrusted lines to of_json: every malformed frame
   must fail closed with Bad_snapshot, never another exception *)
let test_snapshot_rejects_malformed () =
  let r =
    Serve.run ~spec:Libs.slowbox ~pool:2 ~requests:40 ~seed:7
      ~snapshot_every:40 ()
  in
  let good = List.hd r.Serve.snapshots in
  let v1 =
    "{\"schema\": \"lfi-snap/v1\", \"workload\": \"xzbox\", \"seq\": 250, \
     \"now\": 817570.0, \"completed\": 250, \"failed\": 0, \
     \"instances_lost\": 0, \"window_cycles\": 50000, \"windows\": 17, \
     \"exports\": [{\"name\": \"checksum\", \"requests\": 97, \"errors\": 0, \
     \"p50\": 2048.0, \"p99\": 4096.0, \"p999\": 4096.0, \"mean\": 1250.8, \
     \"insns_per_request\": 4812.0, \"burn_fast\": 0.00, \
     \"burn_slow\": 0.00, \"alerting\": false}, {\"name\": \"compress\", \
     \"requests\": 71, \"errors\": 0, \"p50\": 4096.0, \"p99\": 8192.0, \
     \"p999\": 8192.0, \"mean\": 2559.0, \"insns_per_request\": 10354.5, \
     \"burn_fast\": 0.00, \"burn_slow\": 0.00, \"alerting\": false}, \
     {\"name\": \"expand\", \"requests\": 56, \"errors\": 0, \
     \"p50\": 2048.0, \"p99\": 4096.0, \"p999\": 4096.0, \"mean\": 1404.2, \
     \"insns_per_request\": 5684.0, \"burn_fast\": 0.00, \
     \"burn_slow\": 0.00, \"alerting\": false}, {\"name\": \"dict_sum\", \
     \"requests\": 26, \"errors\": 0, \"p50\": 32768.0, \"p99\": 32768.0, \
     \"p999\": 32768.0, \"mean\": 16766.3, \"insns_per_request\": 73784.0, \
     \"burn_fast\": 0.00, \"burn_slow\": 0.00, \"alerting\": false}], \
     \"slots\": [{\"slot\": 1, \"pid\": 1, \"alive\": true, \"calls\": 63, \
     \"resets\": 63, \"insns\": 590682, \"pages_restored\": 124}, \
     {\"slot\": 2, \"pid\": 2, \"alive\": true, \"calls\": 63, \
     \"resets\": 63, \"insns\": 1027787, \"pages_restored\": 117}, \
     {\"slot\": 3, \"pid\": 3, \"alive\": true, \"calls\": 62, \
     \"resets\": 62, \"insns\": 872355, \"pages_restored\": 117}, \
     {\"slot\": 4, \"pid\": 4, \"alive\": true, \"calls\": 62, \
     \"resets\": 62, \"insns\": 947797, \"pages_restored\": 116}], \
     \"phases\": {\"queue\": 0.0, \"marshal_in\": 5771.3, \
     \"gate_in\": 13750.0, \"exec\": 786300.4, \"gate_out\": 13750.0, \
     \"marshal_out\": 3769.6}, \"alerts\": []}"
  in
  List.iter
    (fun (what, line) ->
      match Snapshot.of_json line with
      | _ -> Alcotest.failf "%s: accepted" what
      | exception Snapshot.Bad_snapshot _ -> ()
      | exception e ->
          Alcotest.failf "%s: raised %s" what (Printexc.to_string e))
    [
      ("bad \\u escape", "{\"schema\": \"\\uZZZZ\"}");
      ("cut mid-string", String.sub good 0 20);
      ("trailing garbage", good ^ " }x");
      ("unsupported lfi-snap/v1 schema", v1);
    ];
  checkb "the intact frame parses" true
    (Snapshot.to_json (Snapshot.of_json good) = good)

let mk name f = Alcotest.test_case name `Quick f

let () =
  Alcotest.run "libbox"
    [
      ( "library",
        [
          mk "export resolution" test_export_resolution;
          mk "unknown export rejected" test_unknown_export_rejected;
        ] );
      ( "calls",
        [
          mk "checksum matches reference" test_checksum_matches_reference;
          mk "compress copy-out" test_compress_copy_out;
          mk "expand copy-out" test_expand_copy_out;
          mk "efault on bad pointer" test_copy_efault;
          mk "arena overflow" test_arena_overflow;
          mk "gate cheaper than pipe" test_gate_cheaper_than_pipe;
        ] );
      ( "reset",
        [
          mk "globals restored" test_reset_restores_globals;
          mk "init survives" test_init_survives_reset;
          mk "dirty accounting" test_reset_dirty_accounting;
          mk "mmap growth undone" test_reset_undoes_mmap_growth;
        ] );
      ( "pool",
        [
          mk "request isolation" test_pool_isolation;
          mk "round robin" test_pool_round_robin;
          mk "crash containment" test_crash_containment;
          mk "runaway budget" test_runaway_budget;
          mk "budget parity across dispatch modes"
            test_runaway_budget_mode_parity;
        ] );
      ( "serve",
        [
          mk "deterministic" test_serve_deterministic;
          mk "transitions beat pipe" test_serve_transition_beats_pipe;
          mk "export filter" test_serve_filter;
          mk "slo burn-rate alert" test_serve_slo_alert;
          mk "snapshot golden" test_serve_snapshot_golden;
          mk "trace spans" test_serve_trace_spans;
        ] );
      ( "sched",
        [
          mk "report matches BENCH_serve" test_serve_matches_bench;
          mk "v3 deterministic" test_serve_v3_deterministic;
          mk "quota starvation" test_serve_quota_starvation;
          mk "work-stealing conservation" test_serve_work_stealing_conservation;
          mk "pool wraparound + respawn" test_pool_wraparound_respawn;
          mk "snapshot rejects malformed" test_snapshot_rejects_malformed;
        ] );
    ]
