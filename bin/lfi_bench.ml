(* lfi-bench: regenerate the paper's tables and figures — every
   experiment, or the ones named on the command line. *)

open Cmdliner

(* Library-call transition costs vs process-isolation baselines: the
   same seeded stream `make serve-bench` commits, replayed under both
   uarch models. *)
let serve_experiment () =
  Printf.printf
    "  %-5s %10s %10s %10s %12s %12s %10s\n"
    "uarch" "gate mean" "gate p50" "gate p99" "linux pipe" "gvisor pipe"
    "req/s";
  List.iter
    (fun uarch ->
      let r =
        Lfi_libbox.Serve.run ~uarch ~spec:Lfi_workloads.Libs.xzbox ~pool:4
          ~requests:1000 ~seed:1 ()
      in
      let open Lfi_emulator.Cost_model in
      let fmt v = if Float.is_nan v then "-" else Printf.sprintf "%.0f" v in
      Printf.printf "  %-5s %10.1f %10.0f %10.0f %12s %12s %10.0f\n%!"
        uarch.name r.Lfi_libbox.Serve.gate_mean r.Lfi_libbox.Serve.gate_p50
        r.Lfi_libbox.Serve.gate_p99
        (fmt uarch.linux_pipe_roundtrip)
        (fmt uarch.gvisor_pipe_roundtrip)
        r.Lfi_libbox.Serve.requests_per_sec)
    [ Lfi_emulator.Cost_model.m1; Lfi_emulator.Cost_model.t2a ];
  Printf.printf
    "\n  A sandboxed library call crosses the boundary for the cost of a\n\
    \  runtime-call gate (plus marshalling), orders of magnitude below a\n\
    \  pipe round-trip between processes.\n"

(* (name, heading, runner), in the order the full suite prints them *)
let experiments =
  let open Lfi_experiments in
  [
    ("fig3", "Experiment E1 - Figure 3 (LFI optimization levels)",
     Fig3.run_all);
    ("fig4", "Experiment E2 - Figure 4 + Table 4 (LFI vs WebAssembly)",
     Fig4.run_all);
    ("codesize", "Experiment E3 - Code size (Section 6.3)", Codesize.run_all);
    ("fig5", "Experiment E4 - Figure 5 (LFI vs virtualization)", Fig5.run_all);
    ("table5", "Experiment E5 - Table 5 (context switch microbenchmarks)",
     Table5.run_all);
    ("verifier", "Experiment E6 - Verifier throughput (Section 5.2)",
     Verifier_speed.run_all);
    ("ablation", "Experiment E7 - Ablations (Sections 4.2-4.3)",
     Ablation.run_all);
    ("spectre", "Experiment E8 - Spectre hardening cost (Section 7.1)",
     Spectre.run_all);
    ("serve", "Experiment E9 - Library serving (Section 5.3 transition costs)",
     serve_experiment);
    ("coremark", "CoreMark (artifact appendix A.6.3)", Coremark_exp.run_all);
  ]

let name (n, _, _) = n

let run filter names =
  (match filter with
  | [] -> ()
  | fs ->
      List.iter
        (fun f ->
          if Option.is_none (Lfi_workloads.Registry.find f) then begin
            Printf.eprintf "unknown workload %S in --filter\n" f;
            exit 2
          end)
        fs;
      Lfi_workloads.Registry.filter := fs);
  let names = if names = [] then List.map name experiments else names in
  List.iter
    (fun n ->
      match List.find_opt (fun e -> name e = n) experiments with
      | Some (_, title, f) ->
          Printf.printf "\n%s\n%s\n\n%!" title
            (String.make (String.length title) '=');
          f ();
          print_newline ()
      | None ->
          Printf.eprintf "unknown experiment %S (available: %s)\n" n
            (String.concat ", " (List.map name experiments));
          exit 2)
    names

let cmd =
  let names = Arg.(value & pos_all string [] & info [] ~docv:"EXPERIMENT") in
  let filter =
    Arg.(
      value
      & opt_all string []
      & info [ "filter" ] ~docv:"WORKLOAD"
          ~doc:
            "Restrict the SPEC workload matrix to $(docv) (repeatable).  \
             Experiments that iterate the full registry only run the named \
             workloads, so a single one can be re-measured during perf \
             iteration.")
  in
  Cmd.v
    (Cmd.info "lfi-bench" ~doc:"Regenerate the paper's tables and figures")
    Term.(const run $ filter $ names)

let () = exit (Cmd.eval cmd)
