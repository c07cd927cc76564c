(** Engine 1: rewriter equivalence (DESIGN.md §5d).

    The rewriter may add guards, split instructions and relax
    branches, but it must never change what a program *computes*.
    This engine generates programs, runs each natively (base 0, no
    rewriting) and rewritten at O0/O1/O2 (in a sandbox slot), and
    compares architectural results: exit value, registers (for raw
    streams), and a digest of the data section.  Cycle and instruction
    counts are the only things allowed to differ.

    Two input populations:

    - {b raw ARM64 streams} ({!Gen_insn.stream}): straight-line
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

let lfi_base = Lfi_core.Layout.slot_base 1

let run_at ~(base : int64) (elf : Lfi_elf.Elf.t) : Sandbox.t * Sandbox.outcome =
  let sbx = Sandbox.load ~base elf in
  let out = Sandbox.run sbx in
  (sbx, out)

(* ------------------------------------------------------------------ *)
(* Comparison                                                          *)
(* ------------------------------------------------------------------ *)

let data_digest sbx ~len = Sandbox.read_data sbx ~off:0 ~len

(** Registers whose final value must match exactly between the native
    and sandboxed runs of a stream: everything except the reserved
    registers (x18, x21-x24), the link register (the runtime-call exit
    sequence clobbers x30 only in the rewritten run) and the pointer
    register x19 (compared base-relative below). *)
let stream_compared_regs =
  [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12; 13; 14; 15; 16; 17; 20; 25;
    26; 27; 28; 29 ]

let compare_stream_state ~(native : Sandbox.t) ~(lfi : Sandbox.t) :
    string option =
  let module M = Lfi_emulator.Machine in
  let fn = native.Sandbox.machine.M.regs and fl = lfi.Sandbox.machine.M.regs in
  let reg_mismatch =
    List.find_opt (fun n -> M.x fn n <> M.x fl n) stream_compared_regs
  in
  let rel f (sbx : Sandbox.t) = Int64.sub (M.x f 19) sbx.Sandbox.base in
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

(** Run [src] natively and at every opt level, with [compare_extra]
    called on matching exits for the deeper state comparison. *)
let check_source ~(compare_state : native:Sandbox.t -> lfi:Sandbox.t -> string option)
    (src : Source.t) : case_result =
  match Lfi_core.Build.elf None src with
  | exception e -> Skip ("native build failed: " ^ Printexc.to_string e)
  | native_elf -> (
      let native_sbx, native_out = run_at ~base:0L native_elf in
      match native_out.Sandbox.stop with
      | Sandbox.Out_of_budget -> Skip "native run out of budget"
      | Sandbox.Trapped why -> Skip ("native run trapped: " ^ why)
      | Sandbox.Stray_call _ -> Skip "native stray call"
      | Sandbox.Exit native_exit ->
          (* the first level that fails, and why *)
          let failure (name, config) =
            match build_level ~name config src with
            | Error why -> Some why
            | Ok elf -> (
                let sbx, out = run_at ~base:lfi_base elf in
                match out.Sandbox.stop with
                | Sandbox.Exit v when v = native_exit ->
                    compare_state ~native:native_sbx ~lfi:sbx
                    |> Option.map (Printf.sprintf "%s: %s" name)
                | Sandbox.Exit v ->
                    Some
                      (Printf.sprintf "%s: exit value 0x%Lx, native 0x%Lx"
                         name v native_exit)
                | other ->
                    Some
                      (Format.asprintf "%s: %a, native exit(0x%Lx)" name
                         Sandbox.pp_stop other native_exit))
          in
          match List.find_map failure opt_levels with
          | None -> Pass
          | Some why -> Fail why)

let minic_compare ~(native : Sandbox.t) ~(lfi : Sandbox.t) : string option =
  (* compiled code keeps real pointers in registers; compare the global
     array contents only *)
  let dn = Sandbox.read_data native ~off:0 ~len:512
  and dl = Sandbox.read_data lfi ~off:0 ~len:512 in
  if Bytes.equal dn dl then None else Some "global array differs"

(* ------------------------------------------------------------------ *)
(* The engine                                                          *)
(* ------------------------------------------------------------------ *)

(** Shrink a failing stream to a minimal one and render it. *)
let minimize_stream (stream : Insn.t list) : Insn.t list =
  let fails s =
    match check_source ~compare_state:compare_stream_state (stream_program s) with
    | Fail _ -> true
    | _ -> false
  in
  if fails stream then Shrink.items stream ~still_fails:fails else stream

(** [run ~seed ~count ~minic_count ?repro_dir ()] — [count] raw-stream
    cases then [minic_count] MiniC cases, deterministically derived
    from [seed]. *)
let run ?(seed = 0) ?(count = 100) ?(minic_count = 20) ?repro_dir () :
    Report.t =
  let failures = ref [] and skipped = ref 0 and cases = ref 0 in
  let record_failure ~case ~desc ~asm =
    let repro =
      match repro_dir with
      | None -> None
      | Some dir ->
          Some
            (Corpus.write_repro ~dir ~engine:"equiv" ~expect:Corpus.Accept
               ~label:(Printf.sprintf "seed%d_case%d" seed case)
               ~notes:[ desc ] asm)
    in
    failures := { Report.case; desc; repro } :: !failures
  in
  (* raw streams *)
  for case = 0 to count - 1 do
    let rand = Random.State.make [| seed; case |] in
    let stream = QCheck.Gen.generate1 ~rand Gen_insn.stream in
    incr cases;
    match check_source ~compare_state:compare_stream_state (stream_program stream) with
    | Pass -> ()
    | Skip why ->
        (* a stream that cannot even run natively is a generator bug;
           surface it rather than hiding it in the skip count *)
        record_failure ~case ~desc:("stream not runnable: " ^ why)
          ~asm:(Source.to_string (stream_program stream))
    | Fail desc ->
        let small = minimize_stream stream in
        record_failure ~case ~desc
          ~asm:(Source.to_string (stream_program small))
  done;
  (* MiniC programs *)
  for k = 0 to minic_count - 1 do
    let case = count + k in
    let rand = Random.State.make [| seed; case |] in
    let prog = QCheck.Gen.generate1 ~rand Gen_minic.gen_program in
    match Lfi_minic.Interp.run ~fuel:2_000_000 prog with
    | exception Lfi_minic.Interp.Out_of_fuel -> incr skipped
    | exception Lfi_minic.Interp.Unsupported _ -> incr skipped
    | _ -> (
        incr cases;
        let src = Lfi_minic.Compile.compile prog in
        match check_source ~compare_state:minic_compare src with
        | Pass -> ()
        | Skip why -> record_failure ~case ~desc:("minic: " ^ why)
            ~asm:(Source.to_string src)
        | Fail desc ->
            record_failure ~case ~desc:("minic: " ^ desc)
              ~asm:(Source.to_string src))
  done;
  {
    Report.engine = "equiv";
    seed;
    cases = !cases;
    skipped = !skipped;
    failures = List.rev !failures;
  }
