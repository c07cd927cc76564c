(** Experiment E5 — Table 5: isolation-domain switch microbenchmarks.

    LFI numbers are *measured*: the microbenchmark guests run under the
    runtime (through the verifier, the runtime-call table, the real
    scheduler, fork and pipes) and per-operation cost is simulated
    cycles converted at the model's clock rate.  Linux and gVisor
    columns are the cost-model constants, which are themselves the
    paper's measurements — they are printed as the comparison baseline,
    exactly as DESIGN.md documents. *)

open Lfi_emulator

let lfi_config uarch =
  { Lfi_runtime.Runtime.default_config with uarch }

(** A microbenchmark's image, rewritten at O2. *)
let build = Run.build (Run.Lfi Lfi_core.Config.o2)

(** Per-getpid cost under LFI: runtime-call loop minus the same loop
    without the call. *)
let measure_syscall uarch : float =
  let run prog =
    let rt = Lfi_runtime.Runtime.create ~config:(lfi_config uarch) () in
    let p =
      Lfi_runtime.Runtime.load rt ~personality:Lfi_runtime.Proc.Lfi
        (build prog)
    in
    let _, _, cycles, _ = Lfi_runtime.Runtime.run_one rt p in
    cycles
  in
  let with_call = run Lfi_workloads.Microbench.syscall_prog in
  let without = run Lfi_workloads.Microbench.syscall_baseline_prog in
  Cost_model.cycles_to_ns uarch
    ((with_call -. without)
    /. float_of_int Lfi_workloads.Microbench.syscall_iters)

(** Per-hop pipe cost under LFI (one write + one blocking read handoff):
    the full fork + two-pipes ping-pong, divided by the number of
    one-way transfers. *)
let measure_pipe uarch : float =
  let rt = Lfi_runtime.Runtime.create ~config:(lfi_config uarch) () in
  let p =
    Lfi_runtime.Runtime.load rt ~personality:Lfi_runtime.Proc.Lfi
      (build Lfi_workloads.Microbench.pipe_prog)
  in
  let _, _, cycles, _ = Lfi_runtime.Runtime.run_one rt p in
  Cost_model.cycles_to_ns uarch
    (cycles /. float_of_int (2 * Lfi_workloads.Microbench.pipe_iters))

(** Per-switch cost of the optimized direct yield between two
    sandboxes. *)
let measure_yield uarch : float =
  let rt = Lfi_runtime.Runtime.create ~config:(lfi_config uarch) () in
  let elf = build Lfi_workloads.Microbench.yield_prog in
  let p1 = Lfi_runtime.Runtime.load rt ~arg:2L ~personality:Lfi_runtime.Proc.Lfi elf in
  let _p2 = Lfi_runtime.Runtime.load rt ~arg:1L ~personality:Lfi_runtime.Proc.Lfi elf in
  let _, _, cycles, _ = Lfi_runtime.Runtime.run_one rt p1 in
  Cost_model.cycles_to_ns uarch
    (cycles /. float_of_int (2 * Lfi_workloads.Microbench.yield_iters))

let table ~(uarch : Cost_model.t) : Report.table =
  let lfi_syscall = measure_syscall uarch in
  let lfi_pipe = measure_pipe uarch in
  let lfi_yield = measure_yield uarch in
  let to_ns c = Cost_model.cycles_to_ns uarch c in
  let paper =
    if uarch.Cost_model.name = "m1" then Report.Paper.table5_m1
    else Report.Paper.table5_t2a
  in
  let paper_of name =
    match List.assoc_opt name paper with
    | Some t -> t
    | None -> (nan, nan, nan)
  in
  let row name lfi linux gvisor =
    let plfi, plinux, pgv = paper_of name in
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
        row "syscall" lfi_syscall
          (to_ns uarch.Cost_model.linux_syscall)
          (to_ns uarch.Cost_model.gvisor_syscall);
        row "pipe" lfi_pipe
          (to_ns uarch.Cost_model.linux_pipe_roundtrip)
          (to_ns uarch.Cost_model.gvisor_pipe_roundtrip);
        row "yield" lfi_yield nan nan;
      ];
    notes =
      [ "LFI columns are measured in the runtime; Linux/gVisor columns \
         are modeled from the paper's own numbers (see DESIGN.md)" ];
  }

let run_all () =
  Report.print (table ~uarch:Cost_model.m1);
  print_newline ();
  Report.print (table ~uarch:Cost_model.t2a)
