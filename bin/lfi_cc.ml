(* lfi-cc: the MiniC compiler driver (the pipeline's "clang wrapper",
   §5.1).

   Compiles a .mc source file to ARM64 assembly, optionally runs the
   LFI rewriter over it, and emits either assembly text or a loadable
   ELF executable.  With --run, the result is immediately executed
   under the runtime. *)

open Cmdliner

let run input output emit_asm native opt run_now =
  let prog =
    let text = In_channel.with_open_bin input In_channel.input_all in
    try Lfi_minic.Minic_parser.parse text
    with Lfi_minic.Minic_parser.Parse_error { line; msg } ->
      Printf.eprintf "%s:%d: %s\n" input line msg;
      exit 1
  in
  let asm =
    try Lfi_minic.Compile.compile prog
    with Lfi_minic.Compile.Error msg ->
      Printf.eprintf "%s: compile error: %s\n" input msg;
      exit 1
  in
  let config =
    if native then None
    else
      Some
        { Lfi_core.Config.default with
          opt = Lfi_core.Config.opt_level_of_int opt }
  in
  if run_now then begin
    let elf = Lfi_core.Build.elf config asm in
    let rt =
      Lfi_runtime.Runtime.create
        ~config:{ Lfi_runtime.Runtime.default_config with echo_stdout = true }
        ()
    in
    let personality =
      if native then Lfi_runtime.Proc.Native_in_lfi_runtime
      else Lfi_runtime.Proc.Lfi
    in
    let p = Lfi_runtime.Runtime.load rt ~personality elf in
    match Lfi_runtime.Runtime.run_one rt p with
    | Lfi_runtime.Runtime.Exited c, _, _, _ -> exit (c land 0xff)
    | Lfi_runtime.Runtime.Killed why, _, _, _ ->
        Printf.eprintf "%s: killed: %s\n" input why;
        exit 3
  end
  else begin
    let out_path =
      match output with
      | Some p -> p
      | None ->
          Filename.remove_extension input ^ if emit_asm then ".s" else ".elf"
    in
    let oc = open_out_bin out_path in
    (if emit_asm then
       let asm =
         match config with
         | None -> asm
         | Some config -> fst (Lfi_core.Rewriter.rewrite ~config asm)
       in
       output_string oc (Lfi_arm64.Source.to_string asm)
     else output_bytes oc (Lfi_elf.Elf.write (Lfi_core.Build.elf config asm)));
    close_out oc;
    Printf.printf "%s -> %s\n" input out_path
  end

let cmd =
  let input = Arg.(required & pos 0 (some file) None & info [] ~docv:"PROG.mc") in
  let output = Arg.(value & opt (some string) None & info [ "o" ] ~docv:"OUT") in
  let emit_asm = Arg.(value & flag & info [ "S" ] ~doc:"Emit assembly text.") in
  let native =
    Arg.(value & flag & info [ "native" ] ~doc:"Skip the LFI rewriter.")
  in
  let opt = Arg.(value & opt int 2 & info [ "O" ] ~docv:"LEVEL") in
  let run_now = Arg.(value & flag & info [ "run" ] ~doc:"Run immediately.") in
  Cmd.v
    (Cmd.info "lfi-cc" ~doc:"Compile MiniC programs for LFI sandboxes")
    Term.(const run $ input $ output $ emit_asm $ native $ opt $ run_now)

let () = exit (Cmd.eval cmd)
