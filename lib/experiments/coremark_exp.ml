(** CoreMark (Appendix A.6.3): the paper's artifact runs CoreMark when
    SPEC is unavailable.  Same statistic as Figure 3/4, one benchmark,
    every system. *)

open Lfi_emulator

let systems =
  [ Run.Lfi Lfi_core.Config.o0; Run.Lfi Lfi_core.Config.o1;
    Run.Lfi Lfi_core.Config.o2; Run.Lfi Lfi_core.Config.o2_no_loads ]
  @ List.map (fun e -> Run.Wasm e) Lfi_wasm.Engine.all

let table ~(uarch : Cost_model.t) : Report.table =
  let row =
    List.hd (Run.grid ~uarch systems [ Lfi_workloads.Coremark.workload ])
  in
  {
    Report.title =
      Printf.sprintf "CoreMark - %s model (percent increase over native)"
        (String.uppercase_ascii uarch.Cost_model.name);
    header = [ "system"; "overhead" ];
    rows =
      List.map2
        (fun (sys, r) pct ->
          [ Run.system_name sys;
            (if r.Run.exit_code <> row.Run.native.Run.exit_code then
               "WRONG RESULT"
             else Report.fmt_pct pct) ])
        (List.combine systems row.Run.results)
        (Run.overheads row);
    notes =
      [ "the artifact's expectation: CoreMark shows the same overhead \
         picture as the SPEC subset" ];
  }

let tables () = [ table ~uarch:Cost_model.m1 ]
