(** Experiment E5 — Table 5: isolation-domain switch microbenchmarks.

    LFI numbers are *measured*: the microbenchmark guests run under the
    runtime (through the verifier, the runtime-call table, the real
    scheduler, fork and pipes) and per-operation cost is simulated
    cycles converted at the model's clock rate.  Linux and gVisor
    columns are the cost-model constants, which are themselves the
    paper's measurements — they are printed as the comparison baseline,
    exactly as DESIGN.md documents. *)

open Lfi_emulator

(** The runtime the microbenchmarks run in: the defaults, on [uarch]. *)
let config uarch = { Lfi_runtime.Runtime.default_config with uarch }

(** A microbenchmark's image, rewritten at O2. *)
let build = Run.build (Run.Lfi Lfi_core.Config.o2)

(** Per-operation LFI costs, in simulated cycles. *)
type costs = {
  syscall : float;
      (** per getpid: the runtime-call loop minus the same loop without
          the call *)
  pipe : float;
      (** per one-way pipe hop (a write plus a blocking read handoff):
          the fork + two-pipes ping-pong over its one-way transfers *)
  yield : float;  (** per optimized direct yield between two sandboxes *)
  yield_run : float;  (** the whole yield run: [yield_ops] switches *)
}

let yield_ops = 2 * Lfi_workloads.Microbench.yield_iters

(** Run every microbenchmark guest in a fresh runtime under [config]
    (uarch, Spectre hardening) and return its per-operation costs. *)
let measure (config : Lfi_runtime.Runtime.config) : costs =
  let run ?(peer = false) prog =
    let rt = Lfi_runtime.Runtime.create ~config () in
    let elf = build prog in
    let load arg =
      Lfi_runtime.Runtime.load rt ~arg ~personality:Lfi_runtime.Proc.Lfi elf
    in
    (* each yield guest takes its peer's pid: pid 1 gets 2, pid 2 gets 1 *)
    let p = load (if peer then 2L else 0L) in
    if peer then ignore (load 1L);
    let _, _, cycles, _ = Lfi_runtime.Runtime.run_one rt p in
    cycles
  in
  let open Lfi_workloads.Microbench in
  let yield_run = run ~peer:true yield_prog in
  {
    syscall =
      (run syscall_prog -. run syscall_baseline_prog)
      /. float_of_int syscall_iters;
    pipe = run pipe_prog /. float_of_int (2 * pipe_iters);
    yield = yield_run /. float_of_int yield_ops;
    yield_run;
  }

let table ~(uarch : Cost_model.t) : Report.table =
  let c = measure (config uarch) in
  let to_ns = Cost_model.cycles_to_ns uarch in
  let paper =
    if uarch.Cost_model.name = "m1" then Report.Paper.table5_m1
    else Report.Paper.table5_t2a
  in
  let row name lfi linux gvisor =
    let plfi, plinux, pgv =
      Option.value (List.assoc_opt name paper) ~default:(nan, nan, nan)
    in
    [ name; Report.fmt_ns lfi; Report.fmt_ns plfi; Report.fmt_ns linux;
      Report.fmt_ns plinux; Report.fmt_ns gvisor; Report.fmt_ns pgv ]
  in
  {
    Report.title =
      Printf.sprintf "Table 5: isolation-domain switching - %s (%.1f GHz)"
        (String.uppercase_ascii uarch.Cost_model.name)
        uarch.Cost_model.clock_ghz;
    header =
      [ "benchmark"; "LFI"; "(paper)"; "Linux"; "(paper)"; "gVisor";
        "(paper)" ];
    rows =
      [
        row "syscall" (to_ns c.syscall)
          (to_ns uarch.Cost_model.linux_syscall)
          (to_ns uarch.Cost_model.gvisor_syscall);
        row "pipe" (to_ns c.pipe)
          (to_ns uarch.Cost_model.linux_pipe_roundtrip)
          (to_ns uarch.Cost_model.gvisor_pipe_roundtrip);
        row "yield" (to_ns c.yield) nan nan;
      ];
    notes =
      [ "LFI columns are measured in the runtime; Linux/gVisor columns \
         are modeled from the paper's own numbers (see DESIGN.md)" ];
  }

let tables () = [ table ~uarch:Cost_model.m1; table ~uarch:Cost_model.t2a ]
