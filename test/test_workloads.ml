(* Workload-level integration tests: the SPEC proxies must compute the
   same checksum under every sandboxing system, and the experiment
   helpers must behave.  Only the two fastest proxies run here (the
   full 14-benchmark sweep is bin/lfi_bench.exe's job). *)

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let systems_for (w : Lfi_workloads.Common.t) =
  [
    Lfi_experiments.Run.Lfi Lfi_core.Config.o0;
    Lfi_experiments.Run.Lfi Lfi_core.Config.o1;
    Lfi_experiments.Run.Lfi Lfi_core.Config.o2;
    Lfi_experiments.Run.Lfi Lfi_core.Config.o2_no_loads;
    Lfi_experiments.Run.Native_kvm;
  ]
  @
  if w.Lfi_workloads.Common.wasm_ok then
    [ Lfi_experiments.Run.Wasm Lfi_wasm.Engine.wasmtime;
      Lfi_experiments.Run.Wasm Lfi_wasm.Engine.wamr ]
  else []

let agreement (short : string) () =
  let w = Option.get (Lfi_workloads.Registry.find short) in
  let prog = w.Lfi_workloads.Common.program in
  let base = Lfi_experiments.Run.run Lfi_experiments.Run.Native prog in
  checkb "ran" true (base.Lfi_experiments.Run.insns > 0);
  List.iter
    (fun sys ->
      let r = Lfi_experiments.Run.run sys prog in
      checki
        (Lfi_experiments.Run.system_name sys)
        base.Lfi_experiments.Run.exit_code r.Lfi_experiments.Run.exit_code)
    (systems_for w)

let test_coremark_agreement () =
  let w = Lfi_workloads.Coremark.workload in
  let prog = w.Lfi_workloads.Common.program in
  let base = Lfi_experiments.Run.run Lfi_experiments.Run.Native prog in
  List.iter
    (fun sys ->
      let r = Lfi_experiments.Run.run sys prog in
      checki
        (Lfi_experiments.Run.system_name sys)
        base.Lfi_experiments.Run.exit_code r.Lfi_experiments.Run.exit_code)
    [ Lfi_experiments.Run.Lfi Lfi_core.Config.o2;
      Lfi_experiments.Run.Wasm Lfi_wasm.Engine.wasmtime ]

let test_registry () =
  checki "all" 14 (List.length Lfi_workloads.Registry.all);
  checki "wasm subset" 7 (List.length Lfi_workloads.Registry.wasm_subset);
  checkb "find" true (Lfi_workloads.Registry.find "mcf" <> None);
  checkb "find by name" true (Lfi_workloads.Registry.find "505.mcf" <> None);
  checkb "missing" true (Lfi_workloads.Registry.find "nope" = None)

let test_overhead_positive () =
  (* LFI O2 must cost more than native but far less than 2x *)
  let w = Option.get (Lfi_workloads.Registry.find "deepsjeng") in
  let prog = w.Lfi_workloads.Common.program in
  let base = Lfi_experiments.Run.run Lfi_experiments.Run.Native prog in
  let lfi = Lfi_experiments.Run.run (Lfi_experiments.Run.Lfi Lfi_core.Config.o2) prog in
  let ov =
    Lfi_experiments.Run.overhead ~base:base.Lfi_experiments.Run.cycles
      lfi.Lfi_experiments.Run.cycles
  in
  checkb "positive" true (ov > 0.0);
  checkb "sane" true (ov < 50.0)

let test_o0_worse_than_o1 () =
  let w = Option.get (Lfi_workloads.Registry.find "namd") in
  let prog = w.Lfi_workloads.Common.program in
  let cycles cfg =
    (Lfi_experiments.Run.run (Lfi_experiments.Run.Lfi cfg) prog).Lfi_experiments.Run.cycles
  in
  checkb "O0 > O1" true (cycles Lfi_core.Config.o0 > cycles Lfi_core.Config.o1);
  checkb "O1 >= no-loads" true
    (cycles Lfi_core.Config.o1 >= cycles Lfi_core.Config.o2_no_loads)

let test_geomean () =
  let g = Lfi_experiments.Run.geomean [ 10.0; 10.0; 10.0 ] in
  checkb "constant" true (abs_float (g -. 10.0) < 1e-9);
  let g2 = Lfi_experiments.Run.geomean [ 0.0; 21.0 ] in
  checkb "mixed" true (g2 > 9.0 && g2 < 11.0)

(* The cache must tell apart configs that Config.name does not: E7's
   no-sp-elide config is O2 with one rewriter optimization off. *)
let test_run_cached_keys_on_config () =
  let w = Option.get (Lfi_workloads.Registry.find "mcf") in
  let cycles c =
    (Lfi_experiments.Run.run_cached (Lfi_experiments.Run.Lfi c) w)
      .Lfi_experiments.Run.cycles
  in
  let o2 = cycles Lfi_core.Config.o2 in
  checkb "no-sp-elide is its own run" true
    (cycles Lfi_experiments.Ablation.no_sp_opt <> o2)

let test_code_size_positive () =
  let w = Option.get (Lfi_workloads.Registry.find "deepsjeng") in
  let prog = w.Lfi_workloads.Common.program in
  let native = Lfi_experiments.Run.build Lfi_experiments.Run.Native prog in
  let lfi = Lfi_experiments.Run.build (Lfi_experiments.Run.Lfi Lfi_core.Config.o2) prog in
  checkb "text grows" true
    (Lfi_elf.Elf.text_size lfi > Lfi_elf.Elf.text_size native);
  checkb "bounded" true
    (float_of_int (Lfi_elf.Elf.text_size lfi)
    < 1.5 *. float_of_int (Lfi_elf.Elf.text_size native))

(* Table 5's runner, the one place the transition costs are measured;
   E8 runs it with Spectre hardening on. *)
let test_microbench_sanity () =
  let uarch = Lfi_emulator.Cost_model.m1 in
  let config = Lfi_experiments.Table5.config uarch in
  let c = Lfi_experiments.Table5.measure config in
  let ns = Lfi_emulator.Cost_model.cycles_to_ns uarch in
  let syscall = ns c.Lfi_experiments.Table5.syscall in
  let yield = ns c.Lfi_experiments.Table5.yield in
  let pipe = ns c.Lfi_experiments.Table5.pipe in
  checkb "syscall in range" true (syscall > 5.0 && syscall < 100.0);
  checkb "yield cheaper than syscall+switch" true (yield < pipe);
  checkb "pipe under linux"
    true
    (pipe
    < Lfi_emulator.Cost_model.cycles_to_ns uarch
        uarch.Lfi_emulator.Cost_model.linux_pipe_roundtrip);
  let hardened =
    Lfi_experiments.Table5.measure
      { config with Lfi_runtime.Runtime.spectre_hardening = true }
  in
  checkb "hardened yield costs more" true
    (hardened.Lfi_experiments.Table5.yield > c.Lfi_experiments.Table5.yield)

let test_verifier_throughput_sane () =
  let r = Lfi_experiments.Verifier_speed.measure ~repeats:2 () in
  checkb "lfi verifier fast" true
    (r.Lfi_experiments.Verifier_speed.lfi_mb_s > 1.0);
  checkb "corpus nonempty" true
    (r.Lfi_experiments.Verifier_speed.lfi_total_bytes > 10_000)

let mk name f = Alcotest.test_case name `Quick f
let slow name f = Alcotest.test_case name `Slow f

let () =
  Alcotest.run "workloads"
    [
      ( "agreement",
        [
          slow "deepsjeng" (agreement "deepsjeng");
          slow "namd" (agreement "namd");
          slow "coremark" test_coremark_agreement;
        ] );
      ( "harness",
        [
          mk "registry" test_registry;
          slow "overhead positive" test_overhead_positive;
          slow "O0 worse than O1" test_o0_worse_than_o1;
          mk "geomean" test_geomean;
          slow "run_cached keys on the config" test_run_cached_keys_on_config;
          slow "code size" test_code_size_positive;
          slow "microbench" test_microbench_sanity;
          slow "verifier throughput" test_verifier_throughput_sane;
        ] );
    ]
