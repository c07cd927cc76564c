(* Quickstart: the full LFI pipeline on one small program.

   1. compile a MiniC program to ARM64 assembly (stand-in for
      "clang -ffixed-x18 ... -S"),
   2. rewrite the assembly with SFI guards (lfi-rewrite),
   3. assemble and package as ELF (steps 2 and 3 are one call,
      [Lfi_core.Build.sandboxed], the build path every tool uses),
   4. statically verify the machine code (lfi-verify),
   5. load into a 4GiB sandbox slot and run it (lfi-run).

   Run with: dune exec examples/quickstart.exe *)

open Lfi_minic.Ast

(* a little program: print a message, then compute 10! *)
let program : program =
  let open Lfi_minic.Ast.Dsl in
  let fact =
    func "fact" ~params:[ ("n", Int) ]
      [
        if_ (v "n" <= i 1) [ ret (i 1) ] [];
        ret (v "n" * call "fact" [ v "n" - i 1 ]);
      ]
  in
  let main =
    func "main"
      [
        expr (sys_write (i 1) (addr "msg") (i 24));
        ret (call "fact" [ i 10 ]);
      ]
  in
  { globals = [ Str ("msg", "hello from the sandbox!\n") ]; funcs = [ fact; main ] }

let () =
  (* 1. compile *)
  let assembly = Lfi_minic.Compile.compile program in
  Printf.printf "1. compiled: %d instructions of ARM64 assembly\n"
    (Lfi_arm64.Source.insn_count assembly);

  (* 2. rewrite with SFI guards, 3. assemble + ELF *)
  let elf, stats = Lfi_core.Build.sandboxed Lfi_core.Config.default assembly in
  Printf.printf "2. rewritten: %d -> %d instructions (%d hoisting groups)\n"
    stats.input_insns stats.output_insns stats.hoists;
  Printf.printf "3. assembled: %d-byte text segment, %d-byte ELF\n"
    (Lfi_elf.Elf.text_size elf)
    (Bytes.length (Lfi_elf.Elf.write elf));

  (* 4. verify the machine code *)
  (match Lfi_verifier.Verifier.verify_elf elf with
  | Ok r -> Printf.printf "4. verified: %d instructions, all safe\n" r.checked
  | Error e ->
      Printf.printf "4. VERIFICATION FAILED: %s\n"
        (Lfi_verifier.Verifier.elf_error_message e);
      exit 1);

  (* 5. run in a sandbox *)
  let rt =
    Lfi_runtime.Runtime.create
      ~config:{ Lfi_runtime.Runtime.default_config with echo_stdout = false }
      ()
  in
  let p = Lfi_runtime.Runtime.load rt ~personality:Lfi_runtime.Proc.Lfi elf in
  let reason, out, cycles, insns = Lfi_runtime.Runtime.run_one rt p in
  Printf.printf "5. ran in slot %d (base 0x%Lx): %s\n" p.Lfi_runtime.Proc.slot
    p.Lfi_runtime.Proc.base
    (match reason with
    | Lfi_runtime.Runtime.Exited c -> Printf.sprintf "exit code %d" c
    | Lfi_runtime.Runtime.Killed why -> "killed: " ^ why);
  Printf.printf "   stdout: %S\n" out;
  Printf.printf "   %d instructions, %.0f simulated cycles\n" insns cycles;
  assert (reason = Lfi_runtime.Runtime.Exited 3628800)
