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

(* One run per (workload, uarch, system), armed with the metrics and
   per-site attribution (which needs a [.lfi_sites] table, so a native
   image runs without it).  The counters observe inside the superblock
   engine and attribution only observes, so the one run gives the
   cycles of an unobserved run, the block counters, the cache hit
   rates, the guard fraction, the guard-clamp audit (exactly 0 for
   every well-behaved workload) and the category tax. *)
let run short uarch sys =
  Run.execute_rt ~uarch ~metrics:true ~overhead:true sys
    (Run.build sys (program short))

let emulator_sample short uarch sysname ((r : Run.result), rt) =
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

(* Per-category tax cycles of the inserted sites, as the overhead
   report rolls them up. *)
let categories rt =
  let open Lfi_telemetry.Overhead in
  let a = Option.get (Lfi_runtime.Runtime.overhead_acc rt) in
  List.map
    (fun cat -> (category_name cat, f (rollup a cat).r_tax_cycles 1))
    all_categories

(* Percent over native at one opt level; only the O2 row carries the
   category breakdown. *)
let overhead_row short uarch ~native opt ((r : Run.result), rt) =
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
    @ if opt = "O2" then [ ("categories", J.Obj (categories rt)) ] else [])

(* The emulator samples and the overhead rows of one (workload, uarch):
   four runs, the native and O2 ones shared. *)
let pair short uarch =
  let native = run short uarch Run.Native in
  let o2 = run short uarch (Run.Lfi Lfi_core.Config.o2) in
  let emulator =
    [ emulator_sample short uarch "native" native;
      emulator_sample short uarch "lfi-o2" o2 ]
  in
  let row = overhead_row short uarch ~native:(fst native).Run.cycles in
  let o0 = row "O0" (run short uarch (Run.Lfi Lfi_core.Config.o0)) in
  let o1 = row "O1" (run short uarch (Run.Lfi Lfi_core.Config.o1)) in
  (emulator, [ o0; o1; row "O2" o2 ])

let write_json file =
  Printf.printf "running the emulator on %s...\n%!"
    (String.concat ", " workloads);
  let pairs =
    List.concat_map (fun w -> List.map (pair w) uarchs) workloads
  in
  let emulator = List.concat_map fst pairs
  and overhead = List.concat_map snd pairs in
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
