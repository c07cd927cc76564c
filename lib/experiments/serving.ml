(** Experiment E9 — library serving: the §5.3 transition costs.

    The seeded xzbox request stream that [make serve-bench] commits
    (1000 requests, a pool of 4 warm instances, seed 1), replayed under
    both cost models.  The gate is the runtime-call entry + exit around
    each library call, in simulated cycles; the pipe columns are Table
    5's process-isolation baselines in the same unit. *)

open Lfi_emulator

let row (uarch : Cost_model.t) : string list =
  let r =
    Lfi_libbox.Serve.run ~uarch ~spec:Lfi_workloads.Libs.xzbox ~pool:4
      ~requests:1000 ~seed:1 ()
  in
  let cycles v = if Float.is_nan v then "-" else Printf.sprintf "%.0f" v in
  [
    uarch.Cost_model.name;
    Printf.sprintf "%.1f" r.Lfi_libbox.Serve.gate_mean;
    cycles r.Lfi_libbox.Serve.gate_p50;
    cycles r.Lfi_libbox.Serve.gate_p99;
    cycles uarch.Cost_model.linux_pipe_roundtrip;
    cycles uarch.Cost_model.gvisor_pipe_roundtrip;
    Printf.sprintf "%.0f" r.Lfi_libbox.Serve.requests_per_sec;
  ]

let table () : Report.table =
  {
    Report.title =
      "Library serving (E9, §5.3): xzbox stream, 1000 requests, pool of 4 \
       (simulated cycles)";
    header =
      [ "uarch"; "gate mean"; "gate p50"; "gate p99"; "linux pipe";
        "gvisor pipe"; "req/s" ];
    rows = [ row Cost_model.m1; row Cost_model.t2a ];
    notes =
      [ "a sandboxed library call crosses the boundary for the cost of a \
         runtime-call gate (plus marshalling), orders of magnitude below \
         a pipe round-trip between processes" ];
  }

let tables () = [ table () ]
