(* lfi_serve: drive a seeded request stream through a pool of warm
   sandboxed-library instances and report throughput + transition
   costs as lfi-serve/v3 JSON.

   The stream, the scheduling (per-tenant queues, quotas, DRR service,
   work stealing — see lib/sched), and every number in the report
   derive from the seed and the simulated machine, so the output is
   byte-identical across runs — `make serve-bench` commits it and CI
   re-runs and diffs it.  The same determinism covers the optional
   observability outputs: --trace writes a Chrome/Perfetto trace with
   one track per pool slot and one slice per request phase, and
   --snapshot writes lfi-snap/v2 frames (one JSON object per line)
   that lfi_top renders.

   --arrival picks the load model: replay (back-to-back, the committed
   anchor), open (seeded Poisson at --rate), or closed (--concurrency
   clients).  --suite appends the committed scale runs — open + closed
   loop at 256 slots / 4 tenants, the knee sweep (written separately
   to --knee-json), and the measured yield_to handoff cost on both
   cost models — to the anchor report. *)

module Serve = Lfi_libbox.Serve
module Arrival = Lfi_sched.Arrival
module Tenant = Lfi_sched.Tenant

let tenant_specs n =
  if n <= 1 then [ Tenant.default_spec ]
  else if n <= List.length Serve.Suite.tenants then
    List.filteri (fun i _ -> i < n) Serve.Suite.tenants
  else begin
    Printf.eprintf "--tenants %d: at most %d tenant classes are defined\n" n
      (List.length Serve.Suite.tenants);
    exit 2
  end

(* the committed scale runs appended by --suite, as extra top-level
   members of the report; each run is summarized by its condensed
   one-object view *)
let suite_sections spec seed knee_file =
  let module S = Serve.Suite in
  let run ~arrival ~pool ~requests =
    Serve.run ~arrival ~tenants:S.tenants ~batch_max:S.batch_max ~spec ~pool
      ~requests ~seed ()
  in
  Printf.eprintf "suite: open loop (%d slots, %.0f rps offered)...\n%!"
    S.pool S.open_rate;
  let open_r =
    run ~arrival:(Arrival.Open { rate_rps = S.open_rate }) ~pool:S.pool
      ~requests:S.requests
  in
  Printf.eprintf "suite: closed loop (%d slots, %d clients)...\n%!" S.pool
    S.concurrency;
  let closed_r =
    run ~arrival:(Arrival.Closed { concurrency = S.concurrency }) ~pool:S.pool
      ~requests:S.requests
  in
  Printf.eprintf "suite: knee sweep (%d slots, %d rates)...\n%!" S.knee_pool
    (List.length S.knee_rates);
  let knee_rows =
    List.map
      (fun rate ->
        ( rate,
          run ~arrival:(Arrival.Open { rate_rps = rate }) ~pool:S.knee_pool
            ~requests:S.knee_requests ))
      S.knee_rates
  in
  let base_p999 =
    match knee_rows with
    | (_, r) :: _ -> r.Serve.latency_p999
    | [] -> nan
  in
  let knee =
    List.fold_left
      (fun acc (rate, r) ->
        if S.sustainable ~base_p999 r then Float.max acc rate else acc)
      0.0 knee_rows
  in
  let shed_queue r =
    List.fold_left (fun a t -> a + t.Serve.ts_shed_queue) 0 r.Serve.tenants
  in
  let open Lfi_telemetry.Json in
  let f1 v = Float (v, 1) and f0 v = Float (v, 0) in
  let rate_row (rate, r) =
    [
      ("offered_rps", f0 rate); ("achieved_rps", f0 r.Serve.achieved_rps);
      ("p50", f1 r.Serve.latency_p50); ("p99", f1 r.Serve.latency_p99);
      ("p999", f1 r.Serve.latency_p999); ("shed", Int r.Serve.shed);
      ("shed_queue", Int (shed_queue r));
    ]
  in
  Printf.eprintf "suite: yield_to handoff microbenchmark...\n%!";
  let hm1 = Lfi_experiments.Handoff.measure Lfi_emulator.Cost_model.m1 in
  let ht2a = Lfi_experiments.Handoff.measure Lfi_emulator.Cost_model.t2a in
  (* the knee sweep as its own artifact (CI uploads it) *)
  let oc = open_out knee_file in
  output_string oc
    (to_pretty
       (Obj
          [
            ("schema", Str "lfi-serve-knee/v1");
            ("workload", Str spec.Lfi_libbox.Api.l_short); ("seed", Int seed);
            ("pool", Int S.knee_pool);
            ("requests_per_rate", Int S.knee_requests);
            ("max_sustainable_rps", f0 knee);
            ("rates", Arr (List.map (fun row -> Obj (rate_row row)) knee_rows));
          ]));
  close_out oc;
  Printf.eprintf "wrote %s (knee sweep artifact)\n" knee_file;
  Printf.eprintf
    "suite: closed-loop p999 %.0f cycles; knee %.0f rps; handoff m1 %.1f / \
     t2a %.1f cycles (paper ~%.0f)\n"
    closed_r.Serve.latency_p999 knee hm1.Lfi_experiments.Handoff.h_cycles_per_handoff
    ht2a.Lfi_experiments.Handoff.h_cycles_per_handoff
    Lfi_experiments.Handoff.paper_cycles;
  [
    ("open_loop", open_r.Serve.summary);
    ("closed_loop", closed_r.Serve.summary);
    ( "knee",
      Obj
        [
          ("pool", Int S.knee_pool); ("requests_per_rate", Int S.knee_requests);
          ("max_sustainable_rps", f0 knee);
          ( "rule",
            Str
              "largest swept rate with p999 <= 4x the lowest rate's p999 and \
               no queue-bound sheds" );
          ( "rates",
            Arr
              (List.map
                 (fun ((_, r) as row) ->
                   let dur = f1 r.Serve.duration_cycles in
                   Obj (rate_row row @ [ ("duration_cycles", dur) ]))
                 knee_rows) );
        ] );
    ( "yield_handoff",
      Obj
        [
          ("paper_cycles", f1 Lfi_experiments.Handoff.paper_cycles);
          ("m1", Lfi_experiments.Handoff.to_json hm1);
          ("t2a", Lfi_experiments.Handoff.to_json ht2a);
        ] );
  ]

let run workload requests pool seed machine json filter trace snapshot
    snapshot_every arrival rate concurrency tenants batch_max suite knee_file =
  match Lfi_workloads.Libs.find workload with
  | None ->
      Printf.eprintf "unknown library workload %S (have: %s)\n" workload
        (String.concat ", "
           (List.map
              (fun s -> s.Lfi_libbox.Api.l_short)
              Lfi_workloads.Libs.all));
      exit 2
  | Some spec ->
      let uarch =
        match Lfi_emulator.Cost_model.by_name machine with
        | Some u -> u
        | None ->
            Printf.eprintf "unknown machine %S (m1 or t2a)\n" machine;
            exit 2
      in
      let arrival =
        match arrival with
        | "replay" -> Arrival.Replay
        | "open" -> Arrival.Open { rate_rps = rate }
        | "closed" -> Arrival.Closed { concurrency }
        | s ->
            Printf.eprintf "unknown --arrival %S (replay, open, closed)\n" s;
            exit 2
      in
      List.iter
        (fun name ->
          if
            not
              (List.exists
                 (fun e -> e.Lfi_libbox.Api.e_name = name)
                 spec.Lfi_libbox.Api.l_exports)
          then begin
            Printf.eprintf "--filter %s: no such export in %S (have: %s)\n"
              name workload
              (String.concat ", "
                 (List.map
                    (fun e -> e.Lfi_libbox.Api.e_name)
                    spec.Lfi_libbox.Api.l_exports));
            exit 2
          end)
        filter;
      let tr = Option.map (fun _ -> Lfi_telemetry.Trace.create ()) trace in
      (* snapshots default on whenever a cadence or file is given *)
      let snapshot_every =
        match (snapshot, snapshot_every) with
        | None, _ -> 0
        | Some _, n -> if n > 0 then n else 250
      in
      let report =
        Serve.run ~uarch ~filter ?trace:tr ~snapshot_every ~arrival
          ~tenants:(tenant_specs tenants) ~batch_max ~spec ~pool ~requests
          ~seed ()
      in
      (match (trace, tr) with
      | Some file, Some t ->
          Lfi_telemetry.Trace.write_file t file;
          Printf.eprintf "wrote %s (open in ui.perfetto.dev)\n" file
      | _ -> ());
      (match snapshot with
      | None -> ()
      | Some file ->
          let oc = open_out file in
          List.iter
            (fun frame ->
              output_string oc frame;
              output_char oc '\n')
            report.Serve.snapshots;
          close_out oc;
          Printf.eprintf "wrote %s (%d frames; view with lfi_top)\n" file
            (List.length report.Serve.snapshots));
      let final_json =
        let extra = if suite then suite_sections spec seed knee_file else [] in
        Lfi_telemetry.Json.(
          to_pretty (Obj (to_assoc report.Serve.json @ extra)))
      in
      (match json with
      | None -> print_string final_json
      | Some file ->
          let oc = open_out file in
          output_string oc final_json;
          close_out oc;
          Printf.printf "wrote %s\n" file);
      (* human summary on stderr so --json stdout stays machine-clean *)
      Printf.eprintf
        "%s: %d/%d requests ok, %d shed, %d instances lost; transition p50 \
         %.0f / p99 %.0f cycles (linux pipe %.0f); call p999 %.0f; %.1f \
         insns/req, %.0f req/s; %d SLO alert%s\n"
        spec.Lfi_libbox.Api.l_short report.Serve.completed requests
        report.Serve.shed report.Serve.retired report.Serve.gate_p50
        report.Serve.gate_p99
        uarch.Lfi_emulator.Cost_model.linux_pipe_roundtrip
        report.Serve.call_p999 report.Serve.insns_per_request
        report.Serve.requests_per_sec
        (List.length report.Serve.alerts)
        (if List.length report.Serve.alerts = 1 then "" else "s");
      if report.Serve.gate_p50 >=
           uarch.Lfi_emulator.Cost_model.linux_pipe_roundtrip then begin
        Printf.eprintf
          "error: transition p50 not below the linux pipe round-trip\n";
        exit 1
      end

open Cmdliner

let workload =
  Arg.(value & opt string "xzbox" & info [ "workload" ] ~docv:"LIB"
         ~doc:"Library workload to serve (xzbox, crashbox, slowbox).")

let requests =
  Arg.(value & opt int 1000 & info [ "requests" ] ~docv:"N"
         ~doc:"Number of requests to serve (offered, for open loop).")

let pool =
  Arg.(value & opt int 4 & info [ "pool" ] ~docv:"N"
         ~doc:"Number of warm instances.")

let seed =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED"
         ~doc:"Request-stream seed; the report is a pure function of it.")

let machine =
  Arg.(value & opt string "m1" & info [ "machine" ] ~docv:"UARCH"
         ~doc:"Cost model: m1 or t2a.")

let json =
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE"
         ~doc:"Write the lfi-serve/v3 report to $(docv) instead of stdout.")

let filter =
  Arg.(value & opt_all string [] & info [ "filter" ] ~docv:"EXPORT"
         ~doc:"Restrict the request stream to this export (repeatable). \
               The stream stays a pure function of the seed and the \
               filter set.")

let trace =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
         ~doc:"Write a Chrome/Perfetto trace of the run to $(docv): one \
               track per pool slot, one slice per request phase, SLO \
               alerts as instants.")

let snapshot =
  Arg.(value & opt ~vopt:(Some "serve_snap.jsonl") (some string) None
       & info [ "snapshot" ] ~docv:"FILE"
           ~doc:"Write lfi-snap/v2 frames (one JSON object per line) to \
                 $(docv) (default serve_snap.jsonl); lfi_top renders them.")

let snapshot_every =
  Arg.(value & opt int 250 & info [ "snapshot-every" ] ~docv:"N"
         ~doc:"Emit a snapshot frame every $(docv) requests (plus one \
               final frame).")

let arrival =
  Arg.(value & opt string "replay" & info [ "arrival" ] ~docv:"MODEL"
         ~doc:"Arrival model: replay (back-to-back), open (seeded Poisson \
               at --rate), or closed (--concurrency clients).")

let rate =
  Arg.(value & opt float 800_000.0 & info [ "rate" ] ~docv:"RPS"
         ~doc:"Open-loop offered rate, requests per simulated second.")

let concurrency =
  Arg.(value & opt int 64 & info [ "concurrency" ] ~docv:"N"
         ~doc:"Closed-loop client count.")

let tenants =
  Arg.(value & opt int 1 & info [ "tenants" ] ~docv:"N"
         ~doc:"Number of tenant classes (from the suite's canned specs; 1 \
               = single unlimited tenant).")

let batch_max =
  Arg.(value & opt int 8 & info [ "batch" ] ~docv:"N"
         ~doc:"Max same-export requests served per dispatch decision.")

let suite =
  Arg.(value & flag & info [ "suite" ]
         ~doc:"Append the committed scale runs (open + closed loop at 256 \
               slots / 4 tenants, knee sweep, yield_to handoff cost) to \
               the report.")

let knee_file =
  Arg.(value & opt string "BENCH_serve_knee.json" & info [ "knee-json" ]
         ~docv:"FILE" ~doc:"Where --suite writes the knee-sweep artifact.")

let cmd =
  let doc = "serve a request stream through a sandboxed-library pool" in
  Cmd.v
    (Cmd.info "lfi_serve" ~doc)
    Term.(const run $ workload $ requests $ pool $ seed $ machine $ json
          $ filter $ trace $ snapshot $ snapshot_every $ arrival $ rate
          $ concurrency $ tenants $ batch_max $ suite $ knee_file)

let () = exit (Cmd.eval cmd)
