(** Engine 1: rewriter equivalence (DESIGN.md §5d).

    The rewriter may add guards, split instructions and relax
    branches, but it must never change what a program *computes*.
    This engine generates programs, runs each natively (base 0, no
    rewriting) and rewritten at O0/O1/O2 (in a sandbox slot), each in
    a fresh runtime under an instruction budget, and compares
    architectural results: exit value, registers (for raw
    streams), and a digest of the data section.  Cycle and instruction
    counts are the only things allowed to differ.

    Two input populations:

    - {b raw ARM64 streams} ({!Gen_insn.sandbox_stream}): straight-line
      instruction sequences whose memory accesses go through a data
      pointer in x19, wrapped in a tiny [_start] that points x19 at
      the middle of a 64KiB data section.  Because no stream
      instruction can observe its own load address, *every*
      architectural register must match between native and sandboxed
      runs (x19 itself is compared base-relative).

    - {b MiniC programs} ({!Gen_minic.gen_program}): the whole
      compiler pipeline.  Compiled code holds real pointers in
      registers, so only the exit value and the global array's bytes
      are compared. *)

open Lfi_arm64

let x19 = Reg.R (Reg.W64, 19)
let x20 = Reg.R (Reg.W64, 20)

let data_half = 32 * 1024

(** Wrap a raw stream into a runnable program: x19 points at the
    middle of a 64KiB zeroed data section ([adr] is position-sound in
    both layouts), x20 holds a small index constant. *)
let stream_program (stream : Insn.t list) : Source.t =
  [
    Source.Directive (".text", "");
    Source.Label "_start";
    Source.Insn (Insn.Adr { page = false; dst = x19; target = Insn.Sym "gmid" });
    Source.Insn (Insn.Mov { op = Insn.MOVZ; dst = x20; imm = 64; hw = 0 });
  ]
  @ List.map (fun i -> Source.Insn i) stream
  @ [
      Source.Insn (Insn.Svc Lfi_runtime.Sysno.exit);
      Source.Directive (".data", "");
      Source.Label "gdata";
      Source.Directive (".zero", string_of_int data_half);
      Source.Label "gmid";
      Source.Directive (".zero", string_of_int data_half);
    ]

let opt_levels =
  [ ("O0", Lfi_core.Config.o0); ("O1", Lfi_core.Config.o1);
    ("O2", Lfi_core.Config.o2) ]

module Runtime = Lfi_runtime.Runtime
module M = Lfi_emulator.Machine

(** A finished run: the runtime (its machine still holds the process's
    final registers), how the process ended, its slot base and the
    absolute address of its data section. *)
type run = {
  rt : Runtime.t;
  stop : Runtime.exit_reason;
  base : int64;
  data : int64;
}

(** Run [elf] to its end in a fresh runtime, unverified, under an
    instruction [budget]: natively in slot 0, or sandboxed in slot 1,
    where [oracle] arms the escape oracle first. *)
let run_at ?(oracle = false) ~budget ~native (elf : Lfi_elf.Elf.t) : run =
  let rt =
    Runtime.create
      ~config:
        { Runtime.default_config with verify = false; insn_budget = budget }
      ()
  in
  let personality =
    if native then Lfi_runtime.Proc.Native_in_lfi_runtime
    else Lfi_runtime.Proc.Lfi
  in
  let p = Runtime.load rt ~personality elf in
  if oracle then ignore (Runtime.install_oracle rt p);
  let stop, _, _, _ = Runtime.run_one rt p in
  let base = p.Lfi_runtime.Proc.base in
  let data =
    List.find
      (fun (s : Lfi_elf.Elf.segment) -> s.flags land Lfi_elf.Elf.pf_x = 0)
      elf.Lfi_elf.Elf.segments
  in
  { rt; stop; base; data = Int64.add base (Int64.of_int data.vaddr) }

(* the full 64-bit exit value, off the machine: [Exited] carries an
   OCaml int, which has no bit 63 *)
let exit_value (r : run) = M.x r.rt.Runtime.machine.M.regs 0

(* ------------------------------------------------------------------ *)
(* Comparison                                                          *)
(* ------------------------------------------------------------------ *)

let data_digest (r : run) ~len =
  Lfi_emulator.Memory.read_bytes r.rt.Runtime.mem r.data len

(** Registers whose final value must match exactly between the native
    and sandboxed runs of a stream: everything except the reserved
    registers (x18, x21-x24), the link register (the runtime-call exit
    sequence clobbers x30 only in the rewritten run) and the pointer
    register x19 (compared base-relative below). *)
let stream_compared_regs =
  [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12; 13; 14; 15; 16; 17; 20; 25;
    26; 27; 28; 29 ]

let compare_stream_state ~(native : run) ~(lfi : run) : string option =
  let fn = native.rt.Runtime.machine.M.regs
  and fl = lfi.rt.Runtime.machine.M.regs in
  let reg_mismatch =
    List.find_opt (fun n -> M.x fn n <> M.x fl n) stream_compared_regs
  in
  let rel f (r : run) = Int64.sub (M.x f 19) r.base in
  let fp_mismatch =
    let rec go i =
      if i >= 32 then None
      else if M.vlo fn i <> M.vlo fl i || M.vhi fn i <> M.vhi fl i then Some i
      else go (i + 1)
    in
    go 0
  in
  match reg_mismatch with
  | Some n ->
      Some
        (Printf.sprintf "x%d: native 0x%Lx, sandboxed 0x%Lx" n (M.x fn n)
           (M.x fl n))
  | None ->
      if rel fn native <> rel fl lfi then
        Some
          (Printf.sprintf "x19-base: native 0x%Lx, sandboxed 0x%Lx"
             (rel fn native) (rel fl lfi))
      else if M.nzcv fn <> M.nzcv fl then Some "flags differ"
      else (
        match fp_mismatch with
        | Some i -> Some (Printf.sprintf "v%d differs" i)
        | None ->
            let dn = data_digest native ~len:(2 * data_half)
            and dl = data_digest lfi ~len:(2 * data_half) in
            if not (Bytes.equal dn dl) then Some "data section differs"
            else None)

(* ------------------------------------------------------------------ *)
(* One case                                                            *)
(* ------------------------------------------------------------------ *)

type case_result = Pass | Skip of string | Fail of string

(** [src] built at [config], or why it could not be: the rewriter
    refused it or its output does not assemble. *)
let build_level ~name config src =
  match Lfi_core.Build.elf (Some config) src with
  | elf -> Ok elf
  | exception Lfi_core.Rewriter.Error e ->
      Error (Printf.sprintf "%s: rewriter error: %s" name e)
  | exception e ->
      Error
        (Printf.sprintf "%s: rewriter output unassemblable: %s" name
           (Printexc.to_string e))

(** Run [src] natively and at every opt level, with [compare_state]
    called on matching exits for the deeper state comparison. *)
let check_source ~(compare_state : native:run -> lfi:run -> string option)
    (src : Source.t) : case_result =
  match Lfi_core.Build.elf None src with
  | exception e -> Skip ("native build failed: " ^ Printexc.to_string e)
  | native_elf -> (
      let run = run_at ~budget:500_000 in
      let native = run ~native:true native_elf in
      match native.stop with
      | Runtime.Killed why -> Skip ("native run killed: " ^ why)
      | Runtime.Exited _ ->
          let native_exit = exit_value native in
          (* the first level that fails, and why *)
          let failure (name, config) =
            match build_level ~name config src with
            | Error why -> Some why
            | Ok elf -> (
                let lfi = run ~native:false elf in
                match lfi.stop with
                | Runtime.Exited _ when exit_value lfi = native_exit ->
                    compare_state ~native ~lfi
                    |> Option.map (Printf.sprintf "%s: %s" name)
                | Runtime.Exited _ ->
                    Some
                      (Printf.sprintf "%s: exit value 0x%Lx, native 0x%Lx"
                         name (exit_value lfi) native_exit)
                | Runtime.Killed why ->
                    Some
                      (Printf.sprintf "%s: killed: %s, native exit(0x%Lx)"
                         name why native_exit))
          in
          match List.find_map failure opt_levels with
          | None -> Pass
          | Some why -> Fail why)

let minic_compare ~(native : run) ~(lfi : run) : string option =
  (* compiled code keeps real pointers in registers; compare the global
     array contents only *)
  let dn = data_digest native ~len:512 and dl = data_digest lfi ~len:512 in
  if Bytes.equal dn dl then None else Some "global array differs"

(* ------------------------------------------------------------------ *)
(* The engine                                                          *)
(* ------------------------------------------------------------------ *)

let stream_case rand : Report.outcome =
  let stream = QCheck.Gen.generate1 ~rand Gen_insn.sandbox_stream in
  let check s =
    check_source ~compare_state:compare_stream_state (stream_program s)
  in
  let asm s = Source.to_string (stream_program s) in
  match check stream with
  | Pass -> Report.Pass
  | Skip why ->
      (* a stream that cannot even run natively is a generator bug;
         surface it rather than hiding it in the skip count *)
      Report.Fail ("stream not runnable: " ^ why, asm stream)
  | Fail desc ->
      (* shrink to a minimal stream that still diverges *)
      let fails s = match check s with Fail _ -> true | _ -> false in
      Report.Fail (desc, asm (Shrink.items stream ~still_fails:fails))

let minic_case rand : Report.outcome =
  let prog = QCheck.Gen.generate1 ~rand Gen_minic.gen_program in
  match Lfi_minic.Interp.run ~fuel:2_000_000 prog with
  | exception (Lfi_minic.Interp.Out_of_fuel | Lfi_minic.Interp.Unsupported _) ->
      Report.Skip
  | _ -> (
      let src = Lfi_minic.Compile.compile prog in
      match check_source ~compare_state:minic_compare src with
      | Pass -> Report.Pass
      | Skip why | Fail why ->
          Report.Fail ("minic: " ^ why, Source.to_string src))

(** [count] raw-stream cases, then [minic_count] MiniC cases. *)
let engine ~seed ~count ~minic_count : Report.engine =
  {
    name = "equiv";
    expect = Corpus.Accept;
    seed;
    count = count + minic_count;
    case =
      (fun rand k -> if k < count then stream_case rand else minic_case rand);
  }
