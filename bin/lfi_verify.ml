(* lfi-verify: statically verify an LFI ELF executable.

   Reads the ELF, decodes the executable segment, and runs the single
   linear verification pass of Section 5.2.  Exit code 0 = safe to
   load. *)

open Cmdliner

let run input no_loads no_exclusives quiet =
  let config =
    Lfi_verifier.Verifier.config_of
      { Lfi_core.Config.default with
        sandbox_loads = not no_loads;
        allow_exclusives = not no_exclusives }
  in
  let bytes = In_channel.with_open_bin input In_channel.input_all in
  match
    Lfi_verifier.Verifier.verify_elf ~config
      (Lfi_elf.Elf.read (Bytes.of_string bytes))
  with
  | exception Lfi_elf.Elf.Bad_elf msg ->
      Printf.eprintf "%s: bad ELF: %s\n" input msg;
      exit 2
  | Ok r ->
      if not quiet then
        Printf.printf "%s: OK (%d instructions, %d bytes)\n" input r.checked
          r.bytes;
      exit 0
  | Error Lfi_verifier.Verifier.No_executable_segment ->
      Printf.eprintf "%s: no executable segment\n" input;
      exit 2
  | Error (Lfi_verifier.Verifier.Rejected violations) ->
      Printf.eprintf "%s: REJECTED (%d violations)\n" input
        (List.length violations);
      List.iteri
        (fun k v ->
          if k < 20 then
            Format.eprintf "  %a@." Lfi_verifier.Verifier.pp_violation v)
        violations;
      exit 1

let cmd =
  let input = Arg.(required & pos 0 (some file) None & info [] ~docv:"BINARY") in
  let no_loads =
    Arg.(value & flag & info [ "no-loads" ]
           ~doc:"Verify a stores-and-jumps-only binary.")
  in
  let no_exclusives =
    Arg.(value & flag & info [ "no-exclusives" ]
           ~doc:"Reject LL/SC instructions.")
  in
  let quiet = Arg.(value & flag & info [ "q"; "quiet" ]) in
  Cmd.v
    (Cmd.info "lfi-verify" ~doc:"Verify an LFI ELF binary")
    Term.(const run $ input $ no_loads $ no_exclusives $ quiet)

let () = exit (Cmd.eval cmd)
