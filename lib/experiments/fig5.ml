(** Experiment E4 — Figure 5: LFI vs hardware-assisted virtualization.

    KVM is modeled by its named mechanism (§6.4): nested page tables
    double the cost of every TLB-miss page walk.  Benchmarks with big
    irregular working sets (mcf, omnetpp, xalancbmk) pay; cache-resident
    kernels barely notice — the Figure 5 shape. *)

open Lfi_emulator

let table ~(uarch : Cost_model.t) : Report.table =
  let grid =
    Run.grid ~uarch
      [ Run.Native_kvm; Run.Lfi Lfi_core.Config.o2 ]
      (Lfi_workloads.Registry.selected ())
  in
  let kvm_miss_rate r = (List.hd r.Run.results).Run.tlb_miss_rate in
  {
    Report.title =
      Printf.sprintf
        "Figure 5: LFI vs hardware-assisted virtualization - %s model"
        (String.uppercase_ascii uarch.Cost_model.name);
    header = [ "benchmark"; "QEMU KVM"; "LFI"; "TLB miss rate" ];
    rows =
      List.map
        (fun r ->
          Report.overhead_row r
          @ [ Printf.sprintf "%.2f%%" (kvm_miss_rate r *. 100.) ])
        grid
      @ [ Report.geomean_row grid ];
    notes =
      [ "KVM = nested page tables double the TLB-walk cost (§6.4); \
         paper shape: KVM a few percent, spiking on TLB-heavy \
         benchmarks; LFI comparable" ];
  }

let tables () = [ table ~uarch:Cost_model.m1 ]
