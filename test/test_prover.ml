(* Tests for the symbolic soundness prover (lib/prover, DESIGN.md §5i):

   - the smoke enumeration under the real verifier config must prove
     every accepted encoding (zero holes), pinned byte-for-byte by a
     golden lfi-prove/v1 report;
   - each deliberate verifier weakening must surface holes, in the
     stratum where the weakened rule lives, and at least one hole per
     weakening must concretize into a program the escape oracle
     confirms escapes the sandbox;
   - prover-accepts ⇒ oracle-clean agreement on the soundness seed
     pool and the adversarial corpus;
   - adversarial verifier unit tests asserting the exact violation
     rule each corpus-style attack trips. *)

module Prover = Lfi_prover
module Verifier = Lfi_verifier.Verifier
module Fuzz = Lfi_fuzz
open Lfi_arm64

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

let stratum (r : Prover.Report.t) name : Prover.Report.stratum_result =
  match
    List.find_opt
      (fun (s : Prover.Report.stratum_result) ->
        s.Prover.Report.s_name = name)
      r.Prover.Report.strata
  with
  | Some s -> s
  | None -> Alcotest.failf "no stratum %s in report" name

(* ---------------- strata derived from the ISA table ---------------- *)

let rows = Prover.Strata.rows

(* a row's mask and its fields partition the 32 bits of the word *)
let test_rows_cover_word () =
  checki "61 rows" 61 (List.length rows);
  List.iter
    (fun (r : Isa.row) ->
      let covered =
        List.fold_left
          (fun acc (Isa.F f) ->
            checki (r.Isa.name ^ ": fields do not overlap") 0
              (acc land f.Isa.mask);
            acc lor f.Isa.mask)
          r.Isa.mask r.Isa.fields
      in
      checki (r.Isa.name ^ ": mask and fields cover 32 bits") 0xFFFFFFFF
        covered)
    rows

let test_rows_have_candidates () =
  List.iter
    (fun (r : Isa.row) ->
      let s = Option.get (Prover.Strata.find r.Isa.name) in
      checkb (r.Isa.name ^ ": smoke words decode to the row") true
        (Seq.exists
           (fun w ->
             match Prover.Strata.row_of w with
             | Some r' -> r' == r
             | None -> false)
           (s.Prover.Strata.words Prover.Strata.Smoke)))
    rows;
  checkb "unallocated words decode to no row" true
    (List.for_all
       (fun w -> Prover.Strata.row_of w = None)
       Prover.Strata.unallocated)

(* [ubfm w0, w1, #40, #7] verifies: the decoder admits a 32-bit immr
   or imms above 31.  Its row's stratum must hold accepted words of
   that shape: 32-bit, immr >= 32. *)
let test_lenient_bitfield () =
  let ubfm = 0x53281c20 in
  let verifies w =
    let code = Bytes.create 4 in
    Bytes.set_int32_le code 0 (Int32.of_int w);
    Result.is_ok (Verifier.verify ~code ())
  in
  checkb "0x53281c20 decodes by the bitfield row" true
    (match Prover.Strata.row_of ubfm with
    | Some r -> r.Isa.name = "bitfield"
    | None -> false);
  checkb "0x53281c20 verifies" true (verifies ubfm);
  (* sf = 0 and opc = ubfm, as in 0x53281c20, and immr >= 32 *)
  let lenient w = w lsr 29 = ubfm lsr 29 && (w lsr 16) land 63 >= 32 in
  checkb "the bitfield stratum holds accepted lenient ubfm words" true
    (Seq.exists
       (fun w -> lenient w && verifies w)
       ((Option.get (Prover.Strata.find "bitfield")).Prover.Strata.words
          Prover.Strata.Smoke))

(* ---------------- the real config proves hole-free ---------------- *)

let smoke = lazy (Prover.Prove.run ())

(* Only the instructions the verifier bans outright accept nothing. *)
let banned = [ "svc"; "mrs"; "msr"; "udf"; "unallocated" ]

let test_smoke_sound () =
  let r = Lazy.force smoke in
  checki "total holes under the real config" 0 (Prover.Report.total_holes r);
  checki "a stratum per row, and the unallocated words"
    (List.length rows + 1)
    (List.length r.Prover.Report.strata);
  List.iter
    (fun (s : Prover.Report.stratum_result) ->
      let name = s.Prover.Report.s_name in
      if List.mem name banned then
        checki (name ^ ": accepts nothing") 0 s.Prover.Report.accepted
      else
        checkb (name ^ ": accepts some encodings") true
          (s.Prover.Report.accepted > 0);
      checki (name ^ ": proved = accepted") s.Prover.Report.accepted
        s.Prover.Report.proved)
    r.Prover.Report.strata

(* ---------------- golden report, byte-stable ---------------- *)

let test_golden () =
  checks "lfi-prove/v1 smoke report is byte-stable"
    (Golden.read_file "prove_golden.json")
    (Prover.Report.to_json (Lazy.force smoke))

let test_deterministic () =
  checks "two runs render identical reports"
    (Prover.Report.to_json (Lazy.force smoke))
    (Prover.Report.to_json (Prover.Prove.run ()))

(* ---------------- transfer precision ---------------- *)

(* one instruction stepped from the boundary invariant *)
let step (i : Insn.t) =
  let st = Prover.Invariant.start ~pre_anchored:false in
  let fails = Prover.Transfer.step st ~pc_off:Prover.Prove.code_origin i in
  (st, fails, Prover.Invariant.check st)

(* Both writes of [ldp w22, w22] zero-extend, so x22 stays 32-bit
   whichever wins. *)
let test_double_w_write () =
  let st, fails, broken =
    step
      (Insn.Ldp
         { w = Reg.W32; r1 = Reg.w 22; r2 = Reg.w 22;
           addr = Insn.Post (Reg.sp, 8) })
  in
  checki "no failed obligation" 0 (List.length fails);
  checki "invariant holds" 0 (List.length broken);
  checkb "x22 is u32" true (st.Prover.Sym.regs.(22) = Prover.Sym.u32)

(* A w load into its own 64-bit writeback base: the writes disagree on
   width, so x22 is unknown. *)
let test_mixed_double_write () =
  let st, _, broken =
    step
      (Insn.Ldr
         { sz = Insn.W; signed = false; dst = Reg.w 22;
           addr = Insn.Post (Reg.x 22, 8) })
  in
  checkb "x22 is top" true (st.Prover.Sym.regs.(22) = Prover.Sym.Top);
  checkb "the x22 clause fails" true (broken <> [])

(* ---------------- weakenings surface holes ---------------- *)

let test_weakened_uxtw () =
  let r = Prover.Prove.run ~weakenings:[ Verifier.No_uxtw_check ] () in
  checkb "holes under no-uxtw-check" true (Prover.Report.total_holes r > 0);
  checkb "holes live in ldst-reg" true
    ((stratum r "ldst-reg").Prover.Report.holes > 0);
  checki "add-imm unaffected" 0 (stratum r "add-imm").Prover.Report.holes

let test_weakened_sp_drift () =
  let r = Prover.Prove.run ~weakenings:[ Verifier.No_sp_drift_check ] () in
  checkb "holes under no-sp-drift-check" true
    (Prover.Report.total_holes r > 0);
  checkb "holes live in add-imm" true
    ((stratum r "add-imm").Prover.Report.holes > 0);
  checki "ldst-reg unaffected" 0 (stratum r "ldst-reg").Prover.Report.holes

let test_weakening_names () =
  List.iter
    (fun w ->
      match Verifier.weakening_of_name (Verifier.weakening_name w) with
      | Some w' ->
          checkb (Verifier.weakening_name w ^ ": round-trips") true (w = w')
      | None ->
          Alcotest.failf "%s does not round-trip" (Verifier.weakening_name w))
    Verifier.all_weakenings;
  checkb "unknown names rejected" true
    (Verifier.weakening_of_name "no-such-weakening" = None)

(* ---------------- holes ground out in the escape oracle ----------- *)

let test_oracle_confirms_holes () =
  List.iter
    (fun w ->
      let name = Verifier.weakening_name w in
      let r = Prover.Prove.run ~weakenings:[ w ] () in
      let config = Verifier.(weaken default_config w) in
      let confirmed =
        List.exists
          (fun (s : Prover.Report.stratum_result) ->
            List.exists
              (fun (h : Prover.Report.hole) ->
                match
                  Prover.Agree.confirm ~config h.Prover.Report.word
                with
                | Prover.Agree.Escapes _ -> true
                | Prover.Agree.Clean | Prover.Agree.Not_concretizable ->
                    false)
              s.Prover.Report.samples)
          r.Prover.Report.strata
      in
      checkb (name ^ ": some hole concretely escapes") true confirmed)
    Verifier.all_weakenings

(* ---------------- prover-accepts ⇒ oracle-clean agreement --------- *)

let check_proves label elf =
  match Lfi_elf.Elf.text_segment elf with
  | None -> Alcotest.failf "%s: no text segment" label
  | Some seg ->
      (match
         Prover.Prove.check_program ~origin:seg.Lfi_elf.Elf.vaddr
           ~code:seg.Lfi_elf.Elf.data ()
       with
      | Ok [] -> ()
      | Ok (h :: _) ->
          Alcotest.failf "%s: hole at insn %d: %s (%s: %s)" label
            h.Prover.Prove.p_index h.Prover.Prove.p_disasm
            h.Prover.Prove.p_clause h.Prover.Prove.p_detail
      | Error _ -> Alcotest.failf "%s: verifier rejected the program" label);
      let _, escapes =
        Fuzz.Soundness.escapes_of elf seg.Lfi_elf.Elf.data
      in
      checki (label ^ ": escape-oracle clean") 0 escapes

let test_seed_pool_agreement () =
  List.iteri
    (fun k elf -> check_proves (Printf.sprintf "seed %d" k) elf)
    (Fuzz.Soundness.seed_pool ~seed:11 ~n:4)

let assemble_text (text : string) : Lfi_elf.Elf.t =
  Lfi_elf.Elf.of_image (Assemble.assemble (Parser.parse_string_exn text))

let test_corpus_agreement () =
  List.iter
    (fun (e : Fuzz.Corpus.entry) ->
      if e.Fuzz.Corpus.engine = "soundness" then
        let elf = assemble_text e.Fuzz.Corpus.text in
        match e.Fuzz.Corpus.expect with
        | Fuzz.Corpus.Reject -> (
            match Lfi_elf.Elf.text_segment elf with
            | None ->
                Alcotest.failf "%s: no text segment" e.Fuzz.Corpus.path
            | Some seg -> (
                match
                  Prover.Prove.check_program ~origin:seg.Lfi_elf.Elf.vaddr
                    ~code:seg.Lfi_elf.Elf.data ()
                with
                | Error _ -> ()
                | Ok _ ->
                    Alcotest.failf "%s: must be rejected" e.Fuzz.Corpus.path)
            )
        | Fuzz.Corpus.Accept | Fuzz.Corpus.Accept_escape_weakened ->
            (* every accepted corpus entry must also carry a symbolic
               proof — and the crafted accept-escape-weakened seeds are
               exactly the programs whose safety hangs on the rule the
               matching weakening removes *)
            check_proves e.Fuzz.Corpus.path elf
      else
        (* equiv / complete entries are pre-rewriter sources: the
           rewriter's output must both verify and prove, at every
           optimization level *)
        let src = Parser.parse_string_exn e.Fuzz.Corpus.text in
        List.iter
          (fun (level, config) ->
            let rewritten, _ = Lfi_core.Rewriter.rewrite ~config src in
            check_proves
              (Printf.sprintf "%s [%s]" e.Fuzz.Corpus.path level)
              (Fuzz.Soundness.build_seed rewritten))
          [
            ("O0", Lfi_core.Config.o0);
            ("O1", Lfi_core.Config.o1);
            ("O2", Lfi_core.Config.o2);
          ])
    (Fuzz.Corpus.load_dir (Golden.path "corpus"))

(* ---------------- adversarial rule pinning ---------------- *)

(* Each attack must trip its exact rule: these strings are the
   verifier's user-facing vocabulary (lfi_verify prints them), so a
   reworded or accidentally-swapped rule is a regression even when the
   program is still rejected. *)
let adversarial_cases =
  [
    ("movz x21, #7", "write to x21 (sandbox base) forbidden");
    ("movz x23, #7", "x23 may only be written by its guard");
    ("movz x22, #7", "x22 must be written as w22 (32-bit)");
    ("svc #0", "direct system calls are forbidden");
    ("mrs x0, tpidr_el0", "system register access forbidden");
    ("ldr x0, [x9]", "unguarded memory access via x9");
    ("sub sp, sp, #16\n\tret", "unguarded write to sp");
    ( "sub sp, sp, #2048\n\tstr x0, [sp]",
      "sp drift too large for the guard region" );
    ("movz x30, #0", "write to x30 must be followed by its guard");
    ("ldr x30, [x21]\n\tnop", "runtime-table load must be followed by blr x30");
    ("br x9", "indirect branch through x9");
    ("b .-64", "direct branch leaves the text segment");
    ( "movn w1, #0\n\tadd x18, x21, w1, uxtw\n\tldr q0, [x18, #65520]",
      "scaled offset overruns the guard margin" );
    ( "movn w22, #0\n\tadd sp, x21, x22, uxtx\n\tstr q0, [sp, #65520]",
      "scaled offset overruns the guard margin" );
  ]

let test_adversarial_rules () =
  List.iter
    (fun (asm, rule) ->
      let text = "\t" ^ asm ^ "\n" in
      let elf = assemble_text text in
      match Lfi_elf.Elf.text_segment elf with
      | None -> Alcotest.failf "%s: no text segment" asm
      | Some seg -> (
          match
            Verifier.verify ~origin:seg.Lfi_elf.Elf.vaddr
              ~code:seg.Lfi_elf.Elf.data ()
          with
          | Ok _ -> Alcotest.failf "%s: verified but must be rejected" asm
          | Error vs ->
              checkb
                (Printf.sprintf "%s trips %S" asm rule)
                true
                (List.exists
                   (fun (v : Verifier.violation) -> v.Verifier.rule = rule)
                   vs)))
    adversarial_cases

(* ---------------- suite ---------------- *)

let () =
  let mk name f = Alcotest.test_case name `Quick f in
  Alcotest.run "prover"
    [
      ( "strata",
        [
          mk "rows cover the word" test_rows_cover_word;
          mk "every row has candidates" test_rows_have_candidates;
          mk "lenient bitfield" test_lenient_bitfield;
        ] );
      ( "transfer",
        [
          mk "double w write" test_double_w_write;
          mk "mixed double write" test_mixed_double_write;
        ] );
      ( "enumeration",
        [
          mk "smoke sound" test_smoke_sound;
          mk "golden report" test_golden;
          mk "deterministic" test_deterministic;
        ] );
      ( "weakenings",
        [
          mk "uxtw holes" test_weakened_uxtw;
          mk "sp-drift holes" test_weakened_sp_drift;
          mk "names round-trip" test_weakening_names;
          mk "oracle confirms" test_oracle_confirms_holes;
        ] );
      ( "agreement",
        [
          mk "seed pool" test_seed_pool_agreement;
          mk "corpus" test_corpus_agreement;
        ] );
      ("adversarial", [ mk "rule pinning" test_adversarial_rules ]);
    ]
