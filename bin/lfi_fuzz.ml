(* lfi-fuzz: seeded differential fuzzing of the LFI toolchain
   (DESIGN.md §5d).

   Three engines:

     equiv      rewriter equivalence — native vs rewritten at O0/O1/O2
     soundness  mutate verified binaries; accepted mutants must not
                escape the sandbox (emulator escape oracle)
     complete   every rewriter output at every opt level must verify

   Runs are deterministic: every case is derived from (--seed, case
   index), so a failure report is enough to regenerate the input.
   Failing cases are minimized and written to the corpus directory as
   replayable repro_*.s entries. *)

open Cmdliner

let run_engine ?repro_dir (e : Lfi_fuzz.Report.engine) =
  let r = Lfi_fuzz.Report.run ?repro_dir e in
  Format.printf "%a@." Lfi_fuzz.Report.pp r;
  if not (Lfi_fuzz.Report.ok r) then Format.printf "engine %s: FAILED@." e.name;
  Lfi_fuzz.Report.ok r

let run engine seed count minic weaken demo repro_dir =
  let repro_dir = if repro_dir = "" then None else Some repro_dir in
  let weakening =
    if weaken = "" then None
    else
      match Lfi_verifier.Verifier.weakening_of_name weaken with
      | Some w -> Some w
      | None ->
          Printf.eprintf "unknown weakening %s (known: %s)\n" weaken
            (String.concat ", "
               (List.map Lfi_verifier.Verifier.weakening_name
                  Lfi_verifier.Verifier.all_weakenings));
          exit 2
  in
  if demo then begin
    (* regression test for the soundness oracle itself: for every known
       weakening, the weakened verifier must let an escaping mutant
       through, the real one must not *)
    let results = Lfi_fuzz.Soundness.demo_weakened () in
    let ok =
      List.for_all
        (fun (w, d) ->
          Format.printf
            "weakened-verifier demo [%s]: %d escaping mutants accepted by \
             weakened verifier, %d by real verifier@."
            (Lfi_verifier.Verifier.weakening_name w)
            d.Lfi_fuzz.Soundness.weakened_escapes
            d.Lfi_fuzz.Soundness.real_escapes;
          d.Lfi_fuzz.Soundness.weakened_escapes > 0
          && d.Lfi_fuzz.Soundness.real_escapes = 0)
        results
    in
    Format.printf "%s@."
      (if ok then "demo: OK (oracle catches every weakened verifier)"
       else "demo: FAILED");
    exit (if ok then 0 else 1)
  end;
  (* an engine is made only when it runs: making the soundness engine
     builds its seed pool *)
  let engines =
    Lfi_fuzz.
      [
        ("equiv", fun () -> Equiv.engine ~seed ~count ~minic_count:minic);
        ("soundness", fun () -> Soundness.engine ?weakening ~seed ~count ());
        ("complete", fun () -> Complete.engine ~seed ~count ~minic_count:minic);
      ]
  in
  let selected =
    if engine = "all" then List.map snd engines
    else
      match List.assoc_opt engine engines with
      | Some make -> [ make ]
      | None ->
          Printf.eprintf
            "unknown engine %s (expected equiv|soundness|complete|all)\n"
            engine;
          exit 2
  in
  let ok =
    List.for_all (fun make -> run_engine ?repro_dir (make ())) selected
  in
  exit (if ok then 0 else 1)

let cmd =
  let engine =
    Arg.(value & pos 0 string "all"
         & info [] ~docv:"ENGINE"
             ~doc:"Engine to run: equiv, soundness, complete or all.")
  in
  let seed =
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"N"
           ~doc:"Deterministic seed; case $(i,k) of a run is fully determined \
                 by (seed, k).")
  in
  let count =
    Arg.(value & opt int 200 & info [ "count" ] ~docv:"N"
           ~doc:"Cases per engine (raw streams / mutants).")
  in
  let minic =
    Arg.(value & opt int 25 & info [ "minic" ] ~docv:"N"
           ~doc:"Additional MiniC whole-pipeline cases (equiv and complete).")
  in
  let weaken =
    Arg.(value & opt string "" & info [ "weaken" ] ~docv:"NAME"
           ~doc:"Run the soundness engine against a deliberately weakened \
                 verifier (e.g. no-uxtw-check); failures are then expected.")
  in
  let demo =
    Arg.(value & flag & info [ "demo-weakened" ]
           ~doc:"Run the oracle regression demo: for every known verifier \
                 weakening, enumerate single-bit flips of its crafted seed \
                 under both verifier configs and require that only the \
                 weakened one lets an escape through.")
  in
  let repro_dir =
    Arg.(value & opt string "test/corpus" & info [ "corpus-dir" ] ~docv:"DIR"
           ~doc:"Directory minimized repros are written to (empty string \
                 disables writing).")
  in
  Cmd.v
    (Cmd.info "lfi-fuzz" ~doc:"Differential fuzzing of the LFI toolchain")
    Term.(const run $ engine $ seed $ count $ minic $ weaken $ demo
          $ repro_dir)

let () = exit (Cmd.eval cmd)
