(** [BENCH_emulator.json] (schema [lfi-bench/v6]): the deterministic
    record of what the emulator, the rewriter and the verifier do on
    the mcf and xz proxies under both uarch models.  Every value is a
    simulated quantity or a count, no host wall clock, so two runs give
    byte-identical files and CI diffs the committed copy.  [lfi_bench
    --json FILE] writes it.

    The overhead rows are cells of E1's grid ({!Run.grid} over O0, O1
    and O2), so after Figure 3 in the same process they are cache hits.
    Each emulator sample is one run with the metrics and the per-site
    attribution armed (attribution needs a [.lfi_sites] table, so the
    native image runs without it); both observe without changing the
    cycles, and the O2 rows' category tax comes from the O2 sample. *)

module J = Lfi_telemetry.Json
module M = Lfi_telemetry.Metrics

let workload short = Option.get (Lfi_workloads.Registry.find short)
let workloads = List.map workload [ "mcf"; "xz" ]

let uarchs = [ Lfi_emulator.Cost_model.m1; Lfi_emulator.Cost_model.t2a ]
let levels = Lfi_core.Config.[ ("O0", o0); ("O1", o1); ("O2", o2) ]
let f v d = J.Float (v, d)

let armed uarch sys (w : Lfi_workloads.Common.t) =
  Run.execute_rt ~uarch ~metrics:true ~overhead:true sys
    (Run.build sys w.Lfi_workloads.Common.program)

let sample short uarch sysname ((r : Run.result), rt) =
  let snap = Lfi_runtime.Runtime.metrics_snapshot rt in
  let e = snap.M.emu in
  J.Obj
    [
      ("workload", J.Str short);
      ("uarch", J.Str uarch.Lfi_emulator.Cost_model.name);
      ("system", J.Str sysname);
      ("insns", J.Int r.Run.insns); ("sim_cycles", f r.Run.cycles 1);
      ( "telemetry",
        J.Obj
          [
            ( "decode_cache_hit_rate",
              f (M.hit_rate ~hits:e.M.decode_hits ~misses:e.M.decode_misses) 6 );
            ( "translation_cache_hit_rate",
              f (M.hit_rate ~hits:snap.M.tc_hits ~misses:snap.M.tc_misses) 6 );
            ( "tlb_hit_rate",
              f (M.hit_rate ~hits:snap.M.tlb_hits ~misses:snap.M.tlb_misses) 6 );
            ( "guard_fraction",
              f
                (float_of_int e.M.guards
                /. float_of_int (max 1 (M.insn_total e)))
                6 );
            ("guard_clamps", J.Int (Lfi_runtime.Runtime.total_clamps rt));
            ("block_cache_hit_rate", f (M.block_hit_rate snap) 6);
            ("avg_block_len", f (M.avg_block_len snap) 2);
            ("deopt_count", J.Int snap.M.blk_deopts);
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

(* The two samples and the three overhead rows of one (workload,
   uarch). *)
let pair (w : Lfi_workloads.Common.t) uarch =
  let short = w.Lfi_workloads.Common.short in
  let native = armed uarch Run.Native w in
  let o2 = armed uarch (Run.Lfi Lfi_core.Config.o2) w in
  let samples =
    [ sample short uarch "native" native; sample short uarch "lfi-o2" o2 ]
  in
  let row =
    List.hd (Run.grid ~uarch (List.map (fun (_, c) -> Run.Lfi c) levels) [ w ])
  in
  let native_cycles = row.Run.native.Run.cycles in
  let overhead =
    List.map2
      (fun (opt, _) (r : Run.result) ->
        J.Obj
          ([
             ("workload", J.Str short);
             ("uarch", J.Str uarch.Lfi_emulator.Cost_model.name);
             ("opt", J.Str opt);
             ("native_cycles", f native_cycles 1);
             ("cycles", f r.Run.cycles 1);
             ("overhead_pct", f (Run.overhead ~base:native_cycles r.Run.cycles) 2);
           ]
          @ if opt = "O2" then [ ("categories", J.Obj (categories (snd o2))) ]
            else []))
      levels row.Run.results
  in
  (samples, overhead)

let to_json () : J.t =
  let pairs =
    List.concat_map (fun w -> List.map (pair w) uarchs) workloads
  in
  (* rewriter counts and verified text size on the mcf proxy *)
  let elf, (rstats : Lfi_core.Rewriter.stats) =
    Lfi_core.Build.sandboxed Lfi_core.Config.default
      (Lfi_minic.Compile.compile (workload "mcf").Lfi_workloads.Common.program)
  in
  let text_bytes =
    match Lfi_verifier.Verifier.verify_elf elf with
    | Ok r -> r.Lfi_verifier.Verifier.bytes
    | Error _ -> failwith "verifier rejected the mcf proxy"
  in
  J.Obj
    [
      ("schema", J.Str "lfi-bench/v6");
      ("emulator", J.Arr (List.concat_map fst pairs));
      ("overhead", J.Arr (List.concat_map snd pairs));
      ( "rewriter",
        J.Obj
          [
            ("input", J.Str "mcf"); ("guards", J.Int rstats.guards);
            ("hoists", J.Int rstats.hoists);
            ("sp_guards_elided", J.Int rstats.sp_guards_elided);
            ("branches_relaxed", J.Int rstats.branches_relaxed);
          ] );
      ( "verifier",
        J.Obj [ ("input", J.Str "mcf"); ("text_bytes", J.Int text_bytes) ] );
    ]

let write file =
  let oc = open_out file in
  output_string oc (J.to_pretty (to_json ()));
  close_out oc
