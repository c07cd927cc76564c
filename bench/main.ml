(* The simulated benchmark: writes BENCH_emulator.json (schema
   lfi-bench/v6), the deterministic record of what the emulator, the
   rewriter and the verifier do on the mcf and xz proxies under both
   uarch models.  Every value is a simulated quantity or a count — no
   host wall clock — so two runs give byte-identical files and CI
   checks the committed copy with `git diff --exit-code`.

   Run with: dune exec bench/main.exe -- --json FILE
   (or `make bench-json`, which writes BENCH_emulator.json).

   Host speed is perfbench's job (perfbench/NOTES.md); the paper's
   tables and figures are regenerated by bin/lfi_bench.exe. *)

module J = Lfi_telemetry.Json
module Run = Lfi_experiments.Run

let workloads = [ "mcf"; "xz" ]
let uarchs = [ Lfi_emulator.Cost_model.m1; Lfi_emulator.Cost_model.t2a ]

let program short =
  (Option.get (Lfi_workloads.Registry.find short)).Lfi_workloads.Common.program

let f v d = J.Float (v, d)

(* One emulator sample per (workload, uarch, system), from a single
   metrics-armed run: the counters observe inside the superblock
   engine, so the same run gives the block counters, the cache hit
   rates, the guard fraction and the guard-clamp audit (exactly 0 for
   every well-behaved workload). *)
let emulator_sample short uarch (sysname, sys) =
  let elf = Run.build sys (program short) in
  let r, rt = Run.execute_rt ~uarch ~metrics:true sys elf in
  let snap = Lfi_runtime.Runtime.metrics_snapshot rt in
  let e = snap.Lfi_telemetry.Metrics.emu in
  let open Lfi_telemetry.Metrics in
  Printf.printf "  %-10s %-4s %-7s %9d insns  %12.1f cycles\n%!" short
    uarch.Lfi_emulator.Cost_model.name sysname r.Run.insns r.Run.cycles;
  J.Obj
    [
      ("workload", Str short); ("uarch", Str uarch.name);
      ("system", Str sysname);
      ("insns", Int r.Run.insns); ("sim_cycles", f r.Run.cycles 1);
      ( "telemetry",
        Obj
          [
            ( "decode_cache_hit_rate",
              f (hit_rate ~hits:e.decode_hits ~misses:e.decode_misses) 6 );
            ( "translation_cache_hit_rate",
              f (hit_rate ~hits:snap.tc_hits ~misses:snap.tc_misses) 6 );
            ( "tlb_hit_rate",
              f (hit_rate ~hits:snap.tlb_hits ~misses:snap.tlb_misses) 6 );
            ( "guard_fraction",
              f (float_of_int e.guards /. float_of_int (max 1 (insn_total e)))
                6 );
            ("guard_clamps", Int (Lfi_runtime.Runtime.total_clamps rt));
            ("block_cache_hit_rate", f (block_hit_rate snap) 6);
            ("avg_block_len", f (avg_block_len snap) 2);
            ("deopt_count", Int snap.blk_deopts);
          ] );
    ]

let opt_levels =
  [ ("O0", Lfi_core.Config.o0); ("O1", Lfi_core.Config.o1);
    ("O2", Lfi_core.Config.o2) ]

(* Per-category tax cycles of the inserted sites, attributed by the
   per-site profiler. *)
let categories rt =
  match Lfi_runtime.Runtime.overhead_acc rt with
  | None -> []
  | Some a ->
      let open Lfi_telemetry.Overhead in
      List.map
        (fun cat ->
          let tax = ref 0.0 in
          Array.iteri
            (fun i (s : site) ->
              if s.category = cat && s.inserted then
                tax := !tax +. a.cycles.(i))
            a.sites;
          (category_name cat, f !tax 1))
        all_categories

(* Percent over native per (workload, uarch, opt).  Only the O2 row
   arms per-site attribution and carries the category breakdown;
   attribution only observes the run, so every row's cycles are those
   of an unobserved run. *)
let overhead_rows short uarch =
  let native =
    (Run.execute ~uarch Run.Native (Run.build Run.Native (program short)))
      .Run.cycles
  in
  List.map
    (fun (opt, config) ->
      let sys = Run.Lfi config in
      let attribute = opt = "O2" in
      let r, rt =
        Run.execute_rt ~uarch ~overhead:attribute sys
          (Run.build sys (program short))
      in
      let pct = Run.overhead ~base:native r.Run.cycles in
      Printf.printf "  %-10s %-4s %-3s %12.0f cycles  %+6.2f%% over native\n%!"
        short uarch.Lfi_emulator.Cost_model.name opt r.Run.cycles pct;
      J.Obj
        ([
           ("workload", J.Str short); ("uarch", J.Str uarch.name);
           ("opt", Str opt);
           ("native_cycles", f native 1); ("cycles", f r.Run.cycles 1);
           ("overhead_pct", f pct 2);
         ]
        @ if attribute then [ ("categories", J.Obj (categories rt)) ] else []))
    opt_levels

let each_pair g =
  List.concat_map (fun w -> List.concat_map (fun u -> g w u) uarchs) workloads

let write_json file =
  Printf.printf "running the emulator on %s...\n%!"
    (String.concat ", " workloads);
  let emulator =
    each_pair (fun w u ->
        List.map (emulator_sample w u)
          [ ("native", Run.Native); ("lfi-o2", Run.Lfi Lfi_core.Config.o2) ])
  in
  Printf.printf "measuring SFI overhead vs native...\n%!";
  let overhead = each_pair overhead_rows in
  (* rewriter counts and verified text size on the mcf proxy *)
  let elf, (rstats : Lfi_core.Rewriter.stats) =
    Lfi_core.Build.sandboxed Lfi_core.Config.default
      (Lfi_minic.Compile.compile (program "mcf"))
  in
  let text_bytes =
    match Lfi_verifier.Verifier.verify_elf elf with
    | Ok r -> r.bytes
    | Error _ -> failwith "verifier rejected the mcf proxy"
  in
  let json =
    J.Obj
      [
        ("schema", Str "lfi-bench/v6");
        ("emulator", Arr emulator);
        ("overhead", Arr overhead);
        ( "rewriter",
          Obj
            [
              ("input", Str "mcf"); ("guards", Int rstats.guards);
              ("hoists", Int rstats.hoists);
              ("sp_guards_elided", Int rstats.sp_guards_elided);
              ("branches_relaxed", Int rstats.branches_relaxed);
            ] );
        ( "verifier",
          Obj [ ("input", Str "mcf"); ("text_bytes", Int text_bytes) ]
        );
      ]
  in
  let oc = open_out file in
  output_string oc (J.to_pretty json);
  close_out oc;
  Printf.printf "wrote %s\n%!" file

let () =
  match Sys.argv with
  | [| _; "--json"; file |] -> write_json file
  | _ ->
      prerr_endline "usage: main.exe --json FILE";
      exit 2
