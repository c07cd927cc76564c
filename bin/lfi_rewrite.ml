(* lfi-rewrite: insert SFI guards into a GNU assembly file.

   The equivalent of the paper's assembly transformation tool: reads a
   .s file produced by any compiler (with the reserved registers kept
   free), writes a guarded .s file for the assembler. *)

open Cmdliner

let write_out path text =
  match path with
  | None -> print_string text
  | Some p ->
      let oc = open_out p in
      output_string oc text;
      close_out oc

let run input output opt no_loads no_exclusives stats =
  let config =
    {
      Lfi_core.Config.default with
      Lfi_core.Config.opt = Lfi_core.Config.opt_level_of_int opt;
      sandbox_loads = not no_loads;
      allow_exclusives = not no_exclusives;
    }
  in
  let text = In_channel.with_open_bin input In_channel.input_all in
  match Lfi_arm64.Parser.parse_string text with
  | Error { line; msg } ->
      Printf.eprintf "%s:%d: %s\n" input line msg;
      exit 1
  | Ok src -> (
      match Lfi_core.Rewriter.rewrite ~config src with
      | exception Lfi_core.Rewriter.Error msg ->
          Printf.eprintf "rewrite error: %s\n" msg;
          exit 1
      | out, s ->
          write_out output (Lfi_arm64.Source.to_string out);
          if stats then begin
            Printf.eprintf
              "%d -> %d instructions (+%.1f%%), %d guards inserted, %d \
               hoisting groups, %d sp guards elided, %d branches relaxed\n"
              s.input_insns s.output_insns
              (float_of_int (s.output_insns - s.input_insns)
              /. float_of_int (max 1 s.input_insns)
              *. 100.)
              s.guards s.hoists s.sp_guards_elided s.branches_relaxed;
            Printf.eprintf "sites:%s\n"
              (String.concat ""
                 (List.map
                    (fun (cat, inserted, modified) ->
                      Printf.sprintf " %s=%d+%d"
                        (Lfi_telemetry.Overhead.category_name cat)
                        inserted modified)
                    (Lfi_core.Rewriter.site_counts s)))
          end)

let cmd =
  let input = Arg.(required & pos 0 (some file) None & info [] ~docv:"INPUT.s") in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"OUT.s")
  in
  let opt =
    Arg.(value & opt int 2 & info [ "O"; "opt" ] ~docv:"LEVEL"
           ~doc:"Optimization level (0, 1 or 2).")
  in
  let no_loads =
    Arg.(value & flag & info [ "no-loads" ]
           ~doc:"Do not sandbox loads (stores and jumps only).")
  in
  let no_exclusives =
    Arg.(value & flag & info [ "no-exclusives" ]
           ~doc:"Reject LL/SC instructions (S2C side-channel hardening).")
  in
  let stats = Arg.(value & flag & info [ "stats" ] ~doc:"Print statistics.") in
  Cmd.v
    (Cmd.info "lfi-rewrite" ~doc:"Insert LFI SFI guards into ARM64 assembly")
    Term.(const run $ input $ output $ opt $ no_loads $ no_exclusives $ stats)

let () = exit (Cmd.eval cmd)
