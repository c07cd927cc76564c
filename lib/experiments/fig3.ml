(** Experiment E1 — Figure 3: LFI optimization levels on the SPEC
    proxies, both machine models.

    For each benchmark: percent increase in simulated cycles over
    native for LFI O0 / O1 / O2 / O2-no-loads.  The paper's headline
    numbers are the geomeans: 6.4% (M1) and 7.3% (T2A) at O2, ~1% with
    loads unsandboxed. *)

open Lfi_emulator

let levels =
  [ Run.Lfi Lfi_core.Config.o0;
    Run.Lfi Lfi_core.Config.o1;
    Run.Lfi Lfi_core.Config.o2;
    Run.Lfi Lfi_core.Config.o2_no_loads ]

let table ~(uarch : Cost_model.t) : Report.table =
  let grid = Run.grid ~uarch levels (Lfi_workloads.Registry.selected ()) in
  {
    Report.title =
      Printf.sprintf
        "Figure 3: overhead on SPEC 2017 proxies - %s model (percent \
         increase over native runtime)"
        (String.uppercase_ascii uarch.Cost_model.name);
    header = [ "benchmark"; "LFI O0"; "LFI O1"; "LFI O2"; "O2, no loads" ];
    rows = List.map Report.overhead_row grid @ [ Report.geomean_row grid ];
    notes =
      [
        Printf.sprintf
          "paper geomean at O2: %.1f%% (m1), %.1f%% (t2a); no-loads ~%.0f%%"
          Report.Paper.fig3_geomean_m1 Report.Paper.fig3_geomean_t2a
          Report.Paper.fig3_no_loads;
      ];
  }

let tables () = [ table ~uarch:Cost_model.m1; table ~uarch:Cost_model.t2a ]
