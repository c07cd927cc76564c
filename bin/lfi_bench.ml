(* lfi-bench: regenerate the paper's tables and figures — every
   experiment, or the ones named on the command line — and, with
   --json FILE, the simulated benchmark record BENCH_emulator.json. *)

open Cmdliner

(* (name, heading, tables), in the order the full suite prints them *)
let experiments =
  let open Lfi_experiments in
  [
    ("fig3", "Experiment E1 - Figure 3 (LFI optimization levels)",
     Fig3.tables);
    ("fig4", "Experiment E2 - Figure 4 + Table 4 (LFI vs WebAssembly)",
     Fig4.tables);
    ("codesize", "Experiment E3 - Code size (Section 6.3)", Codesize.tables);
    ("fig5", "Experiment E4 - Figure 5 (LFI vs virtualization)", Fig5.tables);
    ("table5", "Experiment E5 - Table 5 (context switch microbenchmarks)",
     Table5.tables);
    ("verifier", "Experiment E6 - Verifier throughput (Section 5.2)",
     Verifier_speed.tables);
    ("ablation", "Experiment E7 - Ablations (Sections 4.2-4.3)",
     Ablation.tables);
    ("spectre", "Experiment E8 - Spectre hardening cost (Section 7.1)",
     Spectre.tables);
    ("serve", "Experiment E9 - Library serving (Section 5.3 transition costs)",
     Serving.tables);
    ("coremark", "CoreMark (artifact appendix A.6.3)", Coremark_exp.tables);
  ]

let name (n, _, _) = n

let run filter json names =
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
  let names =
    if names = [] && json = None then List.map name experiments else names
  in
  List.iter
    (fun n ->
      match List.find_opt (fun e -> name e = n) experiments with
      | Some (_, title, tables) ->
          Printf.printf "\n%s\n%s\n\n%!" title
            (String.make (String.length title) '=');
          List.iteri
            (fun i t ->
              if i > 0 then print_newline ();
              Lfi_experiments.Report.print t)
            (tables ());
          print_newline ()
      | None ->
          Printf.eprintf "unknown experiment %S (available: %s)\n" n
            (String.concat ", " (List.map name experiments));
          exit 2)
    names;
  Option.iter
    (fun file ->
      Lfi_experiments.Bench_emulator.write file;
      Printf.eprintf "wrote %s\n%!" file)
    json

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
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "After the experiments, write the simulated benchmark record \
             (schema lfi-bench/v6: emulator samples, overhead rows, \
             rewriter and verifier counts on mcf and xz) to $(docv).  \
             With no $(i,EXPERIMENT), only the file is written.")
  in
  Cmd.v
    (Cmd.info "lfi-bench" ~doc:"Regenerate the paper's tables and figures")
    Term.(const run $ filter $ json $ names)

let () = exit (Cmd.eval cmd)
