(** Experiment E2 — Figure 4 and Table 4: LFI vs WebAssembly engines on
    the 7-benchmark Wasm-compatible subset, both machine models.

    The paper's result: the best Wasm configurations reach ~15%
    geomean overhead while LFI (full isolation) sits at 6-7% — less
    than half. *)

open Lfi_emulator

let systems =
  List.map (fun e -> Run.Wasm e) Lfi_wasm.Engine.all
  @ [ Run.Lfi Lfi_core.Config.o2 ]

let grid ~uarch = Run.grid ~uarch systems Lfi_workloads.Registry.wasm_subset

let fig4_table ~(uarch : Cost_model.t) : Report.table =
  let grid = grid ~uarch in
  {
    Report.title =
      Printf.sprintf
        "Figure 4: LFI vs Wasm on SPEC 2017 proxies - %s model (percent \
         increase over native)"
        (String.uppercase_ascii uarch.Cost_model.name);
    header = "benchmark" :: List.map Run.system_name systems;
    rows = List.map Report.overhead_row grid @ [ Report.geomean_row grid ];
    notes = [];
  }

(** Table 4 is the geomean summary of Figure 4 over both machines. *)
let table4 () : Report.table =
  let gm_t2a = Run.geomeans (grid ~uarch:Cost_model.t2a) in
  let gm_m1 = Run.geomeans (grid ~uarch:Cost_model.m1) in
  {
    Report.title = "Table 4: geomean overheads over native";
    header =
      [ "system"; "T2A meas."; "T2A paper"; "M1 meas."; "M1 paper" ];
    rows =
      List.map2
        (fun (label, (t2a, m1)) (mt2a, mm1) ->
          [ label; Report.fmt_pct mt2a; Report.fmt_pct t2a;
            Report.fmt_pct mm1; Report.fmt_pct m1 ])
        Report.Paper.table4
        (List.combine gm_t2a gm_m1);
    notes =
      [ "shape target: LFI well under half the best Wasm configuration" ];
  }

let tables () =
  [ fig4_table ~uarch:Cost_model.t2a; fig4_table ~uarch:Cost_model.m1;
    table4 () ]
