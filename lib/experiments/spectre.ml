(** Experiment E8 — pricing the §7.1 Spectre mitigations.

    The paper argues LFI blocks sandbox-breakout attacks by
    construction (no CFI to subvert), and that cross-sandbox / host
    poisoning needs the CSV2_2 software-context-number extension, which
    "will likely have some cost" the authors could not measure on
    available hardware.  We model SCXTNUM_EL0 writes on every
    runtime-boundary crossing and report the impact on the Table 5
    microbenchmarks, plus the cost of the other knob the verifier
    offers: rejecting LL/SC exclusives (the S2C timerless-channel
    hardening) costs nothing at runtime — it only restricts which
    programs verify. *)

open Lfi_emulator

let hardened_config uarch =
  { Lfi_runtime.Runtime.default_config with uarch; spectre_hardening = true }

let plain_config uarch = { Lfi_runtime.Runtime.default_config with uarch }

let measure_syscall_with config =
  let run prog =
    let rt = Lfi_runtime.Runtime.create ~config () in
    let p =
      Lfi_runtime.Runtime.load rt ~personality:Lfi_runtime.Proc.Lfi
        (Table5.build prog)
    in
    let _, _, cycles, _ = Lfi_runtime.Runtime.run_one rt p in
    cycles
  in
  (run Lfi_workloads.Microbench.syscall_prog
  -. run Lfi_workloads.Microbench.syscall_baseline_prog)
  /. float_of_int Lfi_workloads.Microbench.syscall_iters

let measure_yield_with config =
  let rt = Lfi_runtime.Runtime.create ~config () in
  let elf = Table5.build Lfi_workloads.Microbench.yield_prog in
  let p1 = Lfi_runtime.Runtime.load rt ~arg:2L ~personality:Lfi_runtime.Proc.Lfi elf in
  let _p2 = Lfi_runtime.Runtime.load rt ~arg:1L ~personality:Lfi_runtime.Proc.Lfi elf in
  let _, _, cycles, _ = Lfi_runtime.Runtime.run_one rt p1 in
  cycles /. float_of_int (2 * Lfi_workloads.Microbench.yield_iters)

let table ~(uarch : Cost_model.t) : Report.table =
  let ns c = Cost_model.cycles_to_ns uarch c in
  let sys_plain = measure_syscall_with (plain_config uarch) in
  let sys_hard = measure_syscall_with (hardened_config uarch) in
  let yld_plain = measure_yield_with (plain_config uarch) in
  let yld_hard = measure_yield_with (hardened_config uarch) in
  {
    Report.title =
      Printf.sprintf
        "Spectre hardening (E8, §7.1) - %s model: SCXTNUM_EL0 context \
         switching"
        (String.uppercase_ascii uarch.Cost_model.name);
    header = [ "benchmark"; "baseline"; "hardened"; "slowdown" ];
    rows =
      [
        [ "syscall"; Report.fmt_ns (ns sys_plain); Report.fmt_ns (ns sys_hard);
          Printf.sprintf "%.1fx" (sys_hard /. sys_plain) ];
        [ "yield"; Report.fmt_ns (ns yld_plain); Report.fmt_ns (ns yld_hard);
          Printf.sprintf "%.1fx" (yld_hard /. yld_plain) ];
      ];
    notes =
      [
        "sandbox breakout is mitigated by construction (no CFI to \
         subvert); poisoning attacks need the modeled SCXTNUM writes";
        "S2C hardening (rejecting LL/SC, Config.allow_exclusives=false) \
         has no runtime cost — it is a verifier policy";
      ];
  }

let run_all () = Report.print (table ~uarch:Cost_model.m1)
