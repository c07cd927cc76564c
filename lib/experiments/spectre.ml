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

let table ~(uarch : Cost_model.t) : Report.table =
  let ns c = Cost_model.cycles_to_ns uarch c in
  let config = Table5.config uarch in
  let plain = Table5.measure config in
  let hard =
    Table5.measure { config with Lfi_runtime.Runtime.spectre_hardening = true }
  in
  let row name (op : Table5.costs -> float) =
    [ name; Report.fmt_ns (ns (op plain)); Report.fmt_ns (ns (op hard));
      Printf.sprintf "%.1fx" (op hard /. op plain) ]
  in
  {
    Report.title =
      Printf.sprintf
        "Spectre hardening (E8, §7.1) - %s model: SCXTNUM_EL0 context \
         switching"
        (String.uppercase_ascii uarch.Cost_model.name);
    header = [ "benchmark"; "baseline"; "hardened"; "slowdown" ];
    rows =
      [ row "syscall" (fun c -> c.Table5.syscall);
        row "yield" (fun c -> c.Table5.yield) ];
    notes =
      [
        "sandbox breakout is mitigated by construction (no CFI to \
         subvert); poisoning attacks need the modeled SCXTNUM writes";
        "S2C hardening (rejecting LL/SC, Config.allow_exclusives=false) \
         has no runtime cost — it is a verifier policy";
      ];
  }

let tables () = [ table ~uarch:Cost_model.m1 ]
