(* lfi-prove: symbolic soundness prover for the LFI verifier
   (DESIGN.md §5i).

   Enumerates candidate instruction encodings, one stratum per row of
   the ISA table (boundary values of every field), completes each with
   the bounded forward window its local rule assumes, and symbolically
   proves that every encoding the verifier *accepts* preserves the
   sandbox invariant.  An accepted-but-unprovable encoding is reported
   as a soundness hole with its encoding, disassembly, and the
   violated invariant clause.

   The default run is the smoke tier under the real verifier config
   and must report zero holes (CI gate).  --demo-weakened grounds the
   prover against the escape oracle: each deliberate verifier
   weakening must surface at least one hole, at least one of which
   concretizes into a program that actually escapes the sandbox. *)

open Cmdliner
module Prover = Lfi_prover

let elapsed_of f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, int_of_float ((Unix.gettimeofday () -. t0) *. 1000.))

let write_json path report =
  let oc = open_out path in
  output_string oc (Prover.Report.to_json report);
  close_out oc

let list_strata () =
  Format.printf "strata:@.";
  List.iter
    (fun (s : Prover.Strata.stratum) ->
      Format.printf "  %-14s %s@." s.Prover.Strata.name s.Prover.Strata.desc)
    Prover.Strata.all;
  Format.printf "weakenings:@.";
  List.iter
    (fun w ->
      Format.printf "  %s@." (Lfi_verifier.Verifier.weakening_name w))
    Lfi_verifier.Verifier.all_weakenings;
  0

(** One weakening of the demo: the prover must find a hole, and at
    least one hole must concretize into a program the escape oracle
    confirms leaves the sandbox. *)
let demo_one ~tier (w : Lfi_verifier.Verifier.weakening) : bool =
  let name = Lfi_verifier.Verifier.weakening_name w in
  let r = Prover.Prove.run ~weakenings:[ w ] ~tier () in
  let holes = Prover.Report.total_holes r in
  let config =
    Lfi_verifier.Verifier.(weaken default_config w)
  in
  let confirmed =
    List.exists
      (fun (s : Prover.Report.stratum_result) ->
        List.exists
          (fun (h : Prover.Report.hole) ->
            match Prover.Agree.confirm ~config h.Prover.Report.word with
            | Prover.Agree.Escapes _ -> true
            | Prover.Agree.Clean | Prover.Agree.Not_concretizable -> false)
          s.Prover.Report.samples)
      r.Prover.Report.strata
  in
  Format.printf "  %-18s holes=%d oracle-confirmed=%b@." name holes confirmed;
  holes > 0 && confirmed

let run_demo tier =
  (* real config first: must be hole-free *)
  let real = Prover.Prove.run ~tier () in
  let real_holes = Prover.Report.total_holes real in
  Format.printf "weakened-verifier demo (tier %s):@."
    (Prover.Strata.tier_name tier);
  Format.printf "  %-18s holes=%d@." "real-config" real_holes;
  let ok =
    List.for_all (demo_one ~tier) Lfi_verifier.Verifier.all_weakenings
  in
  if real_holes = 0 && ok then begin
    Format.printf "demo: OK (every weakening yields an oracle-confirmed hole)@.";
    0
  end
  else begin
    Format.printf "demo: FAILED@.";
    1
  end

let run full weaken_names demo json timing stratum list =
  if list then exit (list_strata ());
  let tier = if full then Prover.Strata.Full else Prover.Strata.Smoke in
  if demo then exit (run_demo tier);
  let weakenings =
    List.map
      (fun n ->
        match Lfi_verifier.Verifier.weakening_of_name n with
        | Some w -> w
        | None ->
            Printf.eprintf "unknown weakening %s (see --list)\n" n;
            exit 2)
      weaken_names
  in
  let only = if stratum = "" then None else Some stratum in
  (match only with
  | Some n when Prover.Strata.find n = None ->
      Printf.eprintf "unknown stratum %s (see --list)\n" n;
      exit 2
  | _ -> ());
  let report, ms =
    elapsed_of (fun () -> Prover.Prove.run ~weakenings ~tier ?only ())
  in
  let report =
    if timing then { report with Prover.Report.elapsed_ms = Some ms }
    else report
  in
  Format.printf "%a" Prover.Report.pp report;
  if json <> "" then write_json json report;
  exit (if Prover.Report.total_holes report = 0 then 0 else 1)

let cmd =
  let full =
    Arg.(value & flag & info [ "full" ]
           ~doc:"Run the full enumeration tier (nightly); default is the \
                 smoke tier (every stratum, reduced field grids).")
  in
  let weaken =
    Arg.(value & opt_all string [] & info [ "weaken" ] ~docv:"NAME"
           ~doc:"Apply a deliberate verifier weakening (repeatable; see \
                 --list).  Holes are then expected.")
  in
  let demo =
    Arg.(value & flag & info [ "demo-weakened" ]
           ~doc:"Self-test: the real config must prove hole-free, and every \
                 known weakening must yield at least one hole that the \
                 escape oracle confirms concretely escapes the sandbox.")
  in
  let json =
    Arg.(value & opt string "" & info [ "json" ] ~docv:"FILE"
           ~doc:"Write the byte-stable lfi-prove/v1 JSON report to $(docv).")
  in
  let timing =
    Arg.(value & flag & info [ "timing" ]
           ~doc:"Include wall-clock elapsed_ms in the report (off by \
                 default so reports are byte-stable).")
  in
  let stratum =
    Arg.(value & opt string "" & info [ "stratum" ] ~docv:"NAME"
           ~doc:"Restrict the run to a single stratum.")
  in
  let list =
    Arg.(value & flag & info [ "list" ]
           ~doc:"List strata and weakenings, then exit.")
  in
  Cmd.v
    (Cmd.info "lfi-prove"
       ~doc:"Symbolic soundness proof of the LFI verifier")
    Term.(const run $ full $ weaken $ demo $ json $ timing $ stratum $ list)

let () = exit (Cmd.eval cmd)
