(** Experiment E7 — ablations of the individual design choices.

    Figure 3 already isolates the big step (O0 → O1, the
    zero-instruction guard).  This experiment prices the two remaining
    optimizations the paper discusses:

    - §4.3 redundant guard elimination (O2 vs O1): "about a 1.5%
      overhead reduction (and the code size reduction is also useful)"
      on the benchmarks where hoistable field accesses dominate;
    - §4.2 "later access within the same basic block": eliding the sp
      guard after small immediate adjustments (the paper keeps all sp
      optimizations on even at O0; turning this one off shows why). *)

open Lfi_emulator

(* Benchmarks with pointer-struct access patterns (the Figure 2
   shape); the rest barely exercise hoisting. *)
let hoisting_benchmarks = [ "leela"; "xalancbmk"; "omnetpp"; "mcf"; "x264" ]

let no_sp_opt =
  { Lfi_core.Config.o2 with Lfi_core.Config.sp_block_optimization = false }

let table ~(uarch : Cost_model.t) : Report.table =
  let grid =
    Run.grid ~uarch
      [ Run.Lfi Lfi_core.Config.o1; Run.Lfi Lfi_core.Config.o2;
        Run.Lfi no_sp_opt ]
      (List.filter_map Lfi_workloads.Registry.find hoisting_benchmarks)
  in
  let text r k =
    Printf.sprintf "%dB" (List.nth r.Run.results k).Run.text_bytes
  in
  {
    Report.title =
      Printf.sprintf "Ablations (E7) - %s model: guard hoisting (§4.3) and \
                      the sp block optimization (§4.2)"
        (String.uppercase_ascii uarch.Cost_model.name);
    header =
      [ "benchmark"; "O1"; "O2"; "O2 w/o sp-elide"; "O1 text"; "O2 text" ];
    rows =
      List.map (fun r -> Report.overhead_row r @ [ text r 0; text r 1 ]) grid;
    notes =
      [
        "paper: redundant guard elimination buys ~1.5% runtime plus code \
         size; sp guards are kept cheap by the same-basic-block elision";
      ];
  }

let tables () = [ table ~uarch:Cost_model.m1 ]
