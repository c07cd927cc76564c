(** Prover ↔ escape-oracle agreement (DESIGN.md §5i).

    The symbolic proof and PR 4's fuzzing oracle must tell the same
    story: an instruction the prover flags as a hole under a weakened
    verifier config should, when driven with a worst-case concrete
    index, actually escape the sandbox at runtime — and a proved
    instruction must never escape.  This module concretizes a hole
    into a minimal runnable program (index register set to the value
    the symbolic interval says is reachable, an exit through the
    runtime table appended) and runs it under
    {!Lfi_fuzz.Sandbox.install_oracle}.

    Not every hole is concretizable this way (e.g. sp descents that
    need a multi-step staircase to drift below the sandbox); the tests
    only require that each weakening yields at least one *confirmed*
    hole, pinning the symbolic and dynamic engines together. *)

open Lfi_arm64
module Verifier = Lfi_verifier.Verifier

type confirmation = Escapes of int | Clean | Not_concretizable

let exit_tail =
  [ Insn.Ldr
      { sz = Insn.X; signed = false; dst = Reg.x 30;
        addr =
          Insn.Imm_off
            ( Reg.x 21,
              Lfi_core.Layout.rtcall_entry_offset Lfi_runtime.Sysno.exit ) };
    Insn.Blr (Reg.x 30) ]

let source_of (insns : Insn.t list) : Source.t =
  Source.Directive (".text", "")
  :: Source.Label "_start"
  :: List.map (fun i -> Source.Insn i) insns

(** Worst-case driver for a hole instruction, or [None] when this
    shape has no single-block concretization. *)
let witness_insns (i : Insn.t) : Insn.t list option =
  match Insn.addr_of i with
  | Some (Insn.Reg_off (Reg.R (Reg.W64, 21), Reg.R (_, m), e, _))
    when Insn.is_memory i
         && (not (List.mem m [ 18; 21; 22; 23; 24; 30 ]))
         && not (Insn.writes_reg_number i 30) -> (
      (* maximal index for the (unchecked) extension *)
      match e with
      | Insn.Uxtw ->
          (* only scaled uxtw can escape: 0xffff0000 << amount *)
          Some
            [ Insn.Mov { op = Insn.MOVZ; dst = Reg.w m; imm = 0xffff; hw = 1 };
              i ]
      | Insn.Sxtw ->
          Some
            [ Insn.Mov { op = Insn.MOVZ; dst = Reg.w m; imm = 0x8000; hw = 1 };
              i ]
      | Insn.Uxtx | Insn.Sxtx ->
          Some
            [ Insn.Mov { op = Insn.MOVZ; dst = Reg.x m; imm = 0xdead; hw = 3 };
              i ]
      | _ -> None)
  | _ ->
      if
        Transfer.is_sp_drift i
        && match i with Insn.Alu { op = Insn.ADD; _ } -> true | _ -> false
      then
        (* sp at the sandbox top, the oversized drift, then a maximal
           sp-relative store: past the guard iff the drift really was
           too large *)
        Some
          [ Insn.Mov { op = Insn.MOVN; dst = Reg.w 22; imm = 0; hw = 0 };
            Prove.sp_guard_insn; i;
            Insn.Str
              { sz = Insn.X; src = Reg.x 0;
                addr =
                  Insn.Imm_off
                    (Reg.sp, Lfi_core.Layout.max_mem_immediate - 8) } ]
      else None

(** Concretize the hole [word] and run it under the escape oracle with
    the (weakened) [config] that accepted it. *)
let confirm ~(config : Verifier.config) (word : int) : confirmation =
  match witness_insns (Isa.decode word) with
  | None -> Not_concretizable
  | Some body -> (
      let elf = Lfi_fuzz.Soundness.build_seed (source_of (body @ exit_tail)) in
      match Lfi_elf.Elf.text_segment elf with
      | None -> Not_concretizable
      | Some seg ->
          if
            not
              (Lfi_fuzz.Soundness.verifies ~config elf seg.Lfi_elf.Elf.data)
          then Not_concretizable
          else
            let _, n =
              Lfi_fuzz.Soundness.escapes_of elf seg.Lfi_elf.Elf.data
            in
            if n > 0 then Escapes n else Clean)
