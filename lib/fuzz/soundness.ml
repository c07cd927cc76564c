(** Engine 2: verifier soundness oracle (DESIGN.md §5d).

    The verifier is the trust root of LFI: anything it accepts is
    allowed to run.  This engine attacks that property directly.  It
    takes *verified* seed binaries, applies deterministic byte-level
    mutations (bit flips, word splices, nop-outs, immediate-field
    tweaks), and re-verifies each mutant:

    - mutant rejected — fine, that is the verifier doing its job;
    - mutant accepted — it is *executed* on a bare machine with the
      emulator's escape oracle installed ({!Sandbox.install_oracle}).
      Any load, store or taken branch that resolves outside the
      sandbox (plus its guard regions / the runtime-call entries) is a
      **soundness bug**: the verifier blessed a binary that escapes.
      The failing mutant is minimized by nopping out every word that
      is not needed to both verify and escape, and written to the
      corpus.

    Because (we believe!) the real verifier is sound, a green run only
    proves the engine *ran*; {!demo_weakened} proves it can *catch*:
    with the deliberately weakened verifier config
    ([unsafe_no_uxtw_check]), a single-bit flip of a guarded load's
    addressing mode (uxtw -> uxtx, bit 13) must slip through
    verification and trip the oracle, while the real verifier rejects
    every such mutant. *)

open Lfi_arm64
open Lfi_emulator

(* ------------------------------------------------------------------ *)
(* Mutations                                                           *)
(* ------------------------------------------------------------------ *)

type mutation =
  | Bit_flip of { word : int; bit : int }
  | Splice of { src : int; dst : int }  (** copy word [src] over [dst] *)
  | Nop_out of int  (** delete an instruction (e.g. a guard) *)
  | Imm_tweak of { word : int; bit : int }  (** flip inside bits 10-21,
      where most immediate fields live *)

let pp_mutation fmt = function
  | Bit_flip { word; bit } -> Format.fprintf fmt "flip w%d b%d" word bit
  | Splice { src; dst } -> Format.fprintf fmt "splice w%d->w%d" src dst
  | Nop_out w -> Format.fprintf fmt "nop w%d" w
  | Imm_tweak { word; bit } -> Format.fprintf fmt "imm w%d b%d" word bit

let gen_mutation (nwords : int) : mutation QCheck.Gen.t =
  let open QCheck.Gen in
  let word = int_range 0 (nwords - 1) in
  frequency
    [
      (4, map2 (fun word bit -> Bit_flip { word; bit }) word (int_range 0 31));
      (2, map2 (fun src dst -> Splice { src; dst }) word word);
      (2, map (fun w -> Nop_out w) word);
      ( 2,
        map2 (fun word bit -> Imm_tweak { word; bit }) word (int_range 10 21)
      );
    ]

let apply_mutation (code : bytes) (m : mutation) : bytes =
  let b = Bytes.copy code in
  (match m with
  | Bit_flip { word; bit } | Imm_tweak { word; bit } ->
      Shrink.set32 b word (Shrink.get32 b word lxor (1 lsl bit))
  | Splice { src; dst } -> Shrink.set32 b dst (Shrink.get32 b src)
  | Nop_out w -> Shrink.set32 b w Shrink.nop_word);
  b

(* ------------------------------------------------------------------ *)
(* Running a mutant                                                    *)
(* ------------------------------------------------------------------ *)

let base = Lfi_core.Layout.slot_base 1

let with_text (elf : Lfi_elf.Elf.t) (code : bytes) : Lfi_elf.Elf.t =
  {
    elf with
    Lfi_elf.Elf.segments =
      List.map
        (fun (s : Lfi_elf.Elf.segment) ->
          if s.Lfi_elf.Elf.flags land Lfi_elf.Elf.pf_x <> 0 then
            { s with Lfi_elf.Elf.data = code }
          else s)
        elf.Lfi_elf.Elf.segments;
  }

let text_of (elf : Lfi_elf.Elf.t) : Lfi_elf.Elf.segment =
  match Lfi_elf.Elf.text_segment elf with
  | Some s -> s
  | None -> invalid_arg "seed has no text segment"

let verifies ~(config : Lfi_verifier.Verifier.config) (elf : Lfi_elf.Elf.t) :
    bool =
  Result.is_ok (Lfi_verifier.Verifier.verify_elf ~config elf)

(** Execute [elf] with the oracle installed; returns the escape
    records. *)
let escapes_of (elf : Lfi_elf.Elf.t) : Machine.escape list * int =
  let sbx = Sandbox.load ~base elf in
  ignore (Sandbox.install_oracle sbx);
  let out = Sandbox.run ~budget:200_000 sbx in
  (out.Sandbox.escapes, out.Sandbox.escape_count)

and pp_escape fmt (e : Machine.escape) =
  Format.fprintf fmt "%s at pc=0x%Lx -> 0x%Lx"
    (match e.Machine.esc_kind with
    | Machine.Eload -> "load"
    | Machine.Estore -> "store"
    | Machine.Ebranch -> "branch")
    e.Machine.esc_pc e.Machine.esc_addr

(* ------------------------------------------------------------------ *)
(* Seeds                                                               *)
(* ------------------------------------------------------------------ *)

let x21 = Reg.R (Reg.W64, 21)
let x30 = Reg.R (Reg.W64, 30)

(** The crafted seed behind {!demo_weakened} (also committed as
    [test/corpus/uxtw_load.s]): x2's *low 32 bits* are zero but its
    high bits are far outside any sandbox, so the guarded load
    [\[x21, w2, uxtw\]] legally reads runtime-call table entry 0 — the
    uxtw truncation is the whole defense.  One bit-13 flip turns the
    addressing mode into [\[x21, x2\]] (uxtx): the untruncated index
    resolves thousands of sandboxes away — an escape the real verifier
    prevents by insisting on uxtw. *)
let uxtw_demo_source : Source.t =
  [
    Source.Directive (".text", "");
    Source.Label "_start";
    Source.Insn
      (Insn.Mov { op = Insn.MOVZ; dst = Reg.R (Reg.W64, 2); imm = 0xdead; hw = 3 });
    Source.Insn
      (Insn.Ldr
         { sz = Insn.X; signed = false; dst = Reg.R (Reg.W64, 3);
           addr = Insn.Reg_off (x21, Reg.R (Reg.W32, 2), Insn.Uxtw, 0) });
    Source.Insn (Insn.Mov { op = Insn.MOVZ; dst = Reg.R (Reg.W64, 0); imm = 0; hw = 0 });
    Source.Insn
      (Insn.Ldr
         { sz = Insn.X; signed = false; dst = x30;
           addr = Insn.Imm_off (x21, Lfi_core.Layout.rtcall_entry_offset
                                       Lfi_runtime.Sysno.exit) });
    Source.Insn (Insn.Blr x30);
  ]

(** The crafted seed for the sp-drift weakening (committed as
    [test/corpus/sp_drift_weak.s]): sp parked at the sandbox top, a
    small legal drift, then a maximal sp-relative store that lands in
    the guard region — safe as written.  One bit-22 flip turns
    [add sp, sp, #5] into [add sp, sp, #5, lsl #12]: the 20 KiB drift
    pushes the store past the guard — an escape the real verifier
    prevents by bounding the drift. *)
let sp_drift_demo_source : Source.t =
  [
    Source.Directive (".text", "");
    Source.Label "_start";
    Source.Insn (Insn.Mov { op = Insn.MOVN; dst = Reg.R (Reg.W32, 22); imm = 0; hw = 0 });
    Source.Insn
      (Insn.Alu
         { op = Insn.ADD; flags = false; dst = Reg.sp; src = x21;
           op2 = Insn.Ext (Reg.R (Reg.W64, 22), Insn.Uxtx, 0) });
    Source.Insn
      (Insn.Alu
         { op = Insn.ADD; flags = false; dst = Reg.sp; src = Reg.sp;
           op2 = Insn.Imm (5, 0) });
    Source.Insn
      (Insn.Str
         { sz = Insn.X; src = Reg.R (Reg.W64, 0);
           addr =
             Insn.Imm_off (Reg.sp, Lfi_core.Layout.max_mem_immediate - 8) });
    Source.Insn
      (Insn.Ldr
         { sz = Insn.X; signed = false; dst = x30;
           addr = Insn.Imm_off (x21, Lfi_core.Layout.rtcall_entry_offset
                                       Lfi_runtime.Sysno.exit) });
    Source.Insn (Insn.Blr x30);
  ]

(** The crafted seed whose single-bit flips exercise [weakening]. *)
let demo_seed_source : Lfi_verifier.Verifier.weakening -> Source.t = function
  | Lfi_verifier.Verifier.No_uxtw_check -> uxtw_demo_source
  | Lfi_verifier.Verifier.No_sp_drift_check -> sp_drift_demo_source

(** Deterministic seed pool: the crafted demo seed plus [n] rewritten
    (O2) random streams — i.e. real verifier-accepted binaries. *)
let seed_pool ~seed ~(n : int) : Lfi_elf.Elf.t list =
  let streams =
    List.init n (fun j ->
        let rand = Random.State.make [| seed; 1_000_000 + j |] in
        let stream = QCheck.Gen.generate1 ~rand Gen_insn.sandbox_stream in
        Lfi_core.Build.elf (Some Lfi_core.Config.o2)
          (Equiv.stream_program stream))
  in
  Lfi_core.Build.elf None uxtw_demo_source :: streams

(* ------------------------------------------------------------------ *)
(* The engine                                                          *)
(* ------------------------------------------------------------------ *)

(** [count] mutants drawn over the seed pool.  [weakening] swaps in a
    deliberately unsound verifier config (to exercise the oracle;
    failures are then expected).  A failure is an accepted mutant
    whose execution escapes. *)
let engine ?(weakening : Lfi_verifier.Verifier.weakening option) ~seed ~count
    () : Report.engine =
  let config =
    match weakening with
    | Some w -> Lfi_verifier.Verifier.(weaken default_config w)
    | None -> Lfi_verifier.Verifier.default_config
  in
  (* the demo seed and six streams; drop any seed the (possibly
     weakened) verifier does not accept: mutating an unverifiable
     binary proves nothing *)
  let seeds =
    seed_pool ~seed ~n:6 |> List.filter (verifies ~config) |> Array.of_list
  in
  let pick = QCheck.Gen.int_bound (Array.length seeds - 1) in
  let case rand _ =
    let elf = seeds.(QCheck.Gen.generate1 ~rand pick) in
    let orig = (text_of elf).Lfi_elf.Elf.data in
    let nwords = Bytes.length orig / 4 in
    let m = QCheck.Gen.generate1 ~rand (gen_mutation nwords) in
    let code = apply_mutation orig m in
    let mutant = with_text elf code in
    if not (verifies ~config mutant) then Report.Pass
    else
      let escs, total = escapes_of mutant in
      if total = 0 then Report.Pass
      else
        (* soundness bug: minimize to the words needed to both verify
           and escape *)
        let still_fails b =
          let m = with_text elf b in
          verifies ~config m && snd (escapes_of m) > 0
        in
        let small, live = Shrink.words code ~still_fails in
        let desc =
          Format.asprintf
            "accepted mutant escapes (%a; %d escapes, first: %a; %d live insns)"
            pp_mutation m total
            (Format.pp_print_list pp_escape)
            (match escs with e :: _ -> [ e ] | [] -> [])
            live
        in
        Report.Fail (desc, Corpus.disassemble small)
  in
  { name = "soundness"; expect = Corpus.Reject; seed; count; case }

(* ------------------------------------------------------------------ *)
(* The oracle's own regression test                                    *)
(* ------------------------------------------------------------------ *)

type demo = {
  weakened_escapes : int;
      (** single-bit-flip mutants of the demo seed that the *weakened*
          verifier accepts and that escape at runtime — must be > 0,
          proving the engine catches a broken verifier *)
  real_escapes : int;
      (** same mutants filtered by the *real* verifier — must be 0 *)
}

(** Enumerate every single-bit flip of [elf]'s text under both the
    real verifier config and the config weakened by [weakening]. *)
let bit_flip_audit ?(weakening = Lfi_verifier.Verifier.No_uxtw_check)
    (elf : Lfi_elf.Elf.t) : demo =
  let orig = (text_of elf).Lfi_elf.Elf.data in
  let nwords = Bytes.length orig / 4 in
  let weak = Lfi_verifier.Verifier.(weaken default_config weakening) in
  let real = Lfi_verifier.Verifier.default_config in
  let weakened_escapes = ref 0 and real_escapes = ref 0 in
  for word = 0 to nwords - 1 do
    for bit = 0 to 31 do
      let mutant =
        with_text elf (apply_mutation orig (Bit_flip { word; bit }))
      in
      let escaped () = snd (escapes_of mutant) > 0 in
      if verifies ~config:weak mutant && escaped () then incr weakened_escapes;
      if verifies ~config:real mutant && escaped () then incr real_escapes
    done
  done;
  { weakened_escapes = !weakened_escapes; real_escapes = !real_escapes }

(** The audit on every known weakening's crafted seed: the acceptance
    demo for the whole oracle. *)
let demo_weakened () : (Lfi_verifier.Verifier.weakening * demo) list =
  List.map
    (fun w ->
      let seed = Lfi_core.Build.elf None (demo_seed_source w) in
      (w, bit_flip_audit ~weakening:w seed))
    Lfi_verifier.Verifier.all_weakenings
