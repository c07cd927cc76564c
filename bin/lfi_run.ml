(* lfi-run: load one or more LFI ELF executables into sandboxes and run
   them under the runtime, printing their output and exit codes.

   With --native the program runs unsandboxed (the comparison baseline);
   with --asm the input is an assembly file that is assembled (and, for
   sandboxed runs, rewritten) on the fly; with --workload a built-in
   SPEC-proxy workload is compiled and run.  Telemetry: --metrics dumps
   the emulator/runtime counters as JSON, --trace writes a Chrome
   trace-event file (load it in Perfetto), --profile prints a sampled
   per-sandbox flat profile. *)

open Cmdliner

let read_file path = In_channel.with_open_bin path In_channel.input_all

(** [path], or with [asm] the assembly file at [path] built at
    [config] ([None]: native). *)
let load_input ~asm ~config path : Lfi_elf.Elf.t =
  if asm then
    Lfi_core.Build.elf config
      (Lfi_arm64.Parser.parse_string_exn (read_file path))
  else Lfi_elf.Elf.read (Bytes.of_string (read_file path))

let workload_source name : Lfi_arm64.Source.t =
  match Lfi_workloads.Registry.find name with
  | None ->
      Printf.eprintf "unknown workload %S (try: %s)\n" name
        (String.concat ", "
           (List.map
              (fun w -> w.Lfi_workloads.Common.short)
              Lfi_workloads.Registry.all));
      exit 2
  | Some w -> Lfi_minic.Compile.compile w.Lfi_workloads.Common.program

(* ---------------- overhead attribution ---------------- *)

(** Build [src] at [config] ([None]: native), run it to completion in a
    fresh, silent runtime and return its cycle count — the paired-run
    primitive behind percent-over-native. *)
let quiet_cycles ~uarch config src : float =
  let system =
    match config with
    | None -> Lfi_experiments.Run.Native
    | Some c -> Lfi_experiments.Run.Lfi c
  in
  (Lfi_experiments.Run.execute ~uarch system (Lfi_core.Build.elf config src))
    .Lfi_experiments.Run.cycles

(** Assemble the [lfi-overhead/v1] report after an attributed run.
    [source] (the pre-rewrite assembly), when available, enables the
    paired native / O0 / O1 / O2 runs. *)
let write_overhead rt ~dest ~uarch ~uarch_name ~source images =
  match Lfi_runtime.Runtime.overhead_acc rt with
  | None ->
      Printf.eprintf
        "overhead: no .lfi_sites table in the loaded images (native run, \
         or a binary written before the profiler?)\n"
  | Some acc ->
      let label, elf =
        match
          List.find_opt (fun (_, e) -> e.Lfi_elf.Elf.sites <> []) images
        with
        | Some le -> le
        | None -> List.hd images
      in
      let levels, native_cycles =
        match source with
        | None -> ([], None)
        | Some src ->
            let lv name config =
              { Lfi_telemetry.Overhead.lv_name = name;
                lv_cycles = quiet_cycles ~uarch (Some config) src }
            in
            ( [ lv "O0" Lfi_core.Config.o0;
                lv "O1" Lfi_core.Config.o1;
                lv "O2" Lfi_core.Config.o2 ],
              Some (quiet_cycles ~uarch None src) )
      in
      let tbl = Lfi_telemetry.Profile.sym_table elf.Lfi_elf.Elf.symbols in
      let report =
        Lfi_telemetry.Overhead.report ~workload:label ~uarch:uarch_name
          ~total_cycles:(Lfi_runtime.Runtime.cycles rt)
          ~total_insns:(Lfi_runtime.Runtime.insns rt)
          ~native_cycles ~levels
          ~symbol_of:(Lfi_telemetry.Profile.pp_sym tbl)
          ~disasm_of:(fun pc ->
            Option.fold ~none:"?" ~some:Lfi_arm64.Printer.to_string
              (Lfi_elf.Elf.decode_at elf pc))
          ~guard_insn:(fun pc ->
            Option.fold ~none:false ~some:Lfi_arm64.Insn.is_guard
              (Lfi_elf.Elf.decode_at elf pc))
          acc
      in
      if dest = "-" then print_string report
      else begin
        let oc = open_out dest in
        output_string oc report;
        close_out oc;
        Printf.eprintf "wrote overhead report to %s\n" dest
      end

let print_profile rt =
  List.iter
    (fun (p, lines) ->
      let total =
        List.fold_left (fun acc l -> acc + l.Lfi_telemetry.Profile.hits) 0 lines
      in
      Printf.printf "profile: sandbox %d (%s), %d samples\n"
        p.Lfi_runtime.Proc.pid
        (Lfi_runtime.Proc.personality_name p.Lfi_runtime.Proc.personality)
        total;
      List.iter
        (fun l ->
          Printf.printf "  %5.1f%% %8d  %s\n"
            (l.Lfi_telemetry.Profile.fraction *. 100.)
            l.Lfi_telemetry.Profile.hits l.Lfi_telemetry.Profile.name)
        lines)
    (Lfi_runtime.Runtime.profile_report rt)

let run inputs workload native asm uarch_name quantum stats metrics_file
    trace_file profile profile_period postmortem_dest overhead_dest =
  let uarch =
    match Lfi_emulator.Cost_model.by_name uarch_name with
    | Some u -> u
    | None ->
        Printf.eprintf "unknown machine model %S (try m1 or t2a)\n" uarch_name;
        exit 2
  in
  let config =
    { Lfi_runtime.Runtime.default_config with uarch; quantum;
      echo_stdout = true }
  in
  let rt = Lfi_runtime.Runtime.create ~config () in
  if metrics_file <> None then
    ignore (Lfi_runtime.Runtime.enable_metrics rt);
  let tracer =
    match trace_file with
    | Some _ -> Some (Lfi_runtime.Runtime.enable_trace rt)
    | None -> None
  in
  if profile then
    ignore (Lfi_runtime.Runtime.enable_profile ~period:profile_period rt);
  let personality =
    if native then Lfi_runtime.Proc.Native_in_lfi_runtime
    else Lfi_runtime.Proc.Lfi
  in
  let build_config = if native then None else Some Lfi_core.Config.default in
  let images =
    (match workload with
    | Some name ->
        [ (name, Lfi_core.Build.elf build_config (workload_source name)) ]
    | None -> [])
    @ List.map
        (fun path -> (path, load_input ~asm ~config:build_config path))
        inputs
  in
  if images = [] then begin
    Printf.eprintf "nothing to run: give a BINARY or --workload NAME\n";
    exit 2
  end;
  let procs =
    List.map
      (fun (label, elf) ->
        try Lfi_runtime.Runtime.load rt ~personality elf with
        | Lfi_runtime.Runtime.Load_error msg ->
            Printf.eprintf "%s: %s\n" label msg;
            exit 1
        | Lfi_elf.Elf.Bad_elf msg ->
            Printf.eprintf "%s: bad ELF: %s\n" label msg;
            exit 1)
      images
  in
  (match overhead_dest with
  | None -> ()
  | Some _ -> (
      match
        List.find_opt (fun p -> p.Lfi_runtime.Proc.sites <> []) procs
      with
      | Some p -> ignore (Lfi_runtime.Runtime.enable_overhead rt p)
      | None -> ()));
  let log = Lfi_runtime.Runtime.run rt in
  let worst = ref 0 in
  List.iter2
    (fun (label, _) p ->
      match List.assoc_opt p.Lfi_runtime.Proc.pid log with
      | Some (Lfi_runtime.Runtime.Exited c) ->
          if stats then Printf.eprintf "%s: exited %d\n" label c;
          worst := max !worst (if c = 0 then 0 else 1)
      | Some (Lfi_runtime.Runtime.Killed why) ->
          Printf.eprintf "%s: killed: %s\n" label why;
          (match
             ( postmortem_dest,
               Lfi_runtime.Runtime.postmortem_for rt p.Lfi_runtime.Proc.pid )
           with
          | Some dest, Some report ->
              prerr_string (Lfi_telemetry.Postmortem.to_text report);
              if dest <> "-" then begin
                let oc = open_out dest in
                output_string oc (Lfi_telemetry.Postmortem.to_json report);
                close_out oc;
                Printf.eprintf "wrote postmortem JSON to %s\n" dest
              end
          | _ -> ());
          worst := max !worst 3
      | None ->
          Printf.eprintf "%s: did not exit\n" label;
          worst := max !worst 3)
    images procs;
  if stats then
    Printf.eprintf
      "%d instructions, %.0f cycles (%.2f ms at %.1f GHz), %d context \
       switches, %d runtime calls\n"
      (Lfi_runtime.Runtime.insns rt)
      (Lfi_runtime.Runtime.cycles rt)
      (Lfi_runtime.Runtime.cycles rt /. uarch.Lfi_emulator.Cost_model.clock_ghz
      /. 1e6)
      uarch.Lfi_emulator.Cost_model.clock_ghz rt.Lfi_runtime.Runtime.ctx_switches
      rt.Lfi_runtime.Runtime.rtcalls;
  (match metrics_file with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      output_string oc (Lfi_runtime.Runtime.metrics_json rt);
      close_out oc);
  (match (tracer, trace_file) with
  | Some t, Some path -> Lfi_telemetry.Trace.write_file t path
  | _ -> ());
  if profile then print_profile rt;
  (match overhead_dest with
  | None -> ()
  | Some dest ->
      let source =
        if native then None
        else
          match (workload, inputs) with
          | Some name, _ -> Some (workload_source name)
          | None, path :: _ when asm ->
              Some (Lfi_arm64.Parser.parse_string_exn (read_file path))
          | _ -> None
      in
      write_overhead rt ~dest ~uarch ~uarch_name ~source images);
  exit !worst

let cmd =
  let inputs =
    Arg.(value & pos_all file [] & info [] ~docv:"BINARY...")
  in
  let workload =
    Arg.(value & opt (some string) None & info [ "workload" ] ~docv:"NAME"
           ~doc:"Run a built-in SPEC-proxy workload (e.g. coremark, mcf).")
  in
  let native =
    Arg.(value & flag & info [ "native" ] ~doc:"Run unsandboxed (baseline).")
  in
  let asm =
    Arg.(value & flag & info [ "asm" ]
           ~doc:"Inputs are .s files; assemble (and rewrite) first.")
  in
  let uarch =
    Arg.(value & opt string "m1" & info [ "machine" ] ~docv:"MODEL"
           ~doc:"Cost model: m1 or t2a.")
  in
  let quantum =
    Arg.(value & opt int 100_000 & info [ "quantum" ]
           ~doc:"Preemption quantum in instructions.")
  in
  let stats = Arg.(value & flag & info [ "stats" ] ~doc:"Print run statistics.") in
  let metrics =
    Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE"
           ~doc:"Write emulator/runtime counters as JSON to $(docv).")
  in
  let trace =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
           ~doc:"Write a Chrome trace-event JSON file (Perfetto-loadable) \
                 timestamped in simulated cycles.")
  in
  let profile =
    Arg.(value & flag & info [ "profile" ]
           ~doc:"Sample the pc and print a per-sandbox flat profile.")
  in
  let profile_period =
    Arg.(value & opt int 4096 & info [ "profile-period" ] ~docv:"N"
           ~doc:"Sample every $(docv) instructions (rounded to a power of \
                 two).")
  in
  let postmortem =
    Arg.(value & opt ~vopt:(Some "-") (some string) None
         & info [ "postmortem" ] ~docv:"FILE"
             ~doc:"On a fault, print the postmortem crash report (registers, \
                   symbolized backtrace, disassembly and memory around the \
                   fault, flight-recorder history, guard-clamp audit) to \
                   stderr; with $(docv), also write it as JSON there.")
  in
  let overhead =
    Arg.(value & opt ~vopt:(Some "-") (some string) None
         & info [ "overhead" ] ~docv:"FILE"
             ~doc:"Attribute cycles to SFI rewrite sites and print the \
                   byte-stable lfi-overhead/v1 report (per-category and \
                   per-symbol breakdowns, hot sites, and — for --workload \
                   or --asm inputs — percent-over-native at O0/O1/O2) to \
                   stdout, or to $(docv) if given.")
  in
  Cmd.v
    (Cmd.info "lfi-run" ~doc:"Run programs in LFI sandboxes")
    Term.(const run $ inputs $ workload $ native $ asm $ uarch $ quantum
          $ stats $ metrics $ trace $ profile $ profile_period $ postmortem
          $ overhead)

let () = exit (Cmd.eval cmd)
