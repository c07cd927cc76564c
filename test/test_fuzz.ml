(* Tests for the differential fuzzing subsystem (lib/fuzz):

   - replay of the adversarial corpus under test/corpus/ (including
     any repro_*.s files earlier fuzzing runs wrote back);
   - fixed-seed smoke runs of all three engines on the real pipeline;
   - the weakened-verifier demo: the soundness oracle must catch a
     deliberately unsound verifier config while the real verifier
     stays clean;
   - a cross-page straddling-branch equivalence case;
   - the shrinkers;
   - a golden test for the lfi_verify CLI (exit codes and
     pp_violation output are byte-stable). *)

open Lfi_arm64
module Fuzz = Lfi_fuzz

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

let sandbox_base = Lfi_core.Layout.slot_base 1

let assemble_text (text : string) : Lfi_elf.Elf.t =
  Lfi_core.Build.elf None (Parser.parse_string_exn text)

(* [elf] run sandboxed, unverified, with the escape oracle armed *)
let run_armed = Fuzz.Equiv.run_at ~oracle:true ~budget:500_000 ~native:false

(* ---------------- corpus replay ---------------- *)

let replay_soundness (e : Fuzz.Corpus.entry) =
  let elf = assemble_text e.Fuzz.Corpus.text in
  match e.Fuzz.Corpus.expect with
  | Fuzz.Corpus.Reject -> (
      match Lfi_verifier.Verifier.verify_elf elf with
      | Ok _ -> Alcotest.failf "%s: verified but must be rejected" e.path
      | Error _ -> ())
  | Fuzz.Corpus.Accept -> (
      (match Lfi_verifier.Verifier.verify_elf elf with
      | Ok _ -> ()
      | Error err ->
          Alcotest.failf "%s: rejected: %s" e.path
            (Lfi_verifier.Verifier.elf_error_message err));
      (* accepted entries must also run clean under the escape oracle *)
      let r = run_armed elf in
      checki (e.path ^ ": escapes") 0 (snd (Fuzz.Soundness.escapes r));
      match r.Fuzz.Equiv.stop with
      | Lfi_runtime.Runtime.Exited _ -> ()
      | Lfi_runtime.Runtime.Killed why -> Alcotest.failf "%s: %s" e.path why)
  | Fuzz.Corpus.Accept_escape_weakened ->
      (* the oracle's regression seed: see test_weakened_demo *)
      (match Lfi_verifier.Verifier.verify_elf elf with
      | Ok _ -> ()
      | Error _ -> Alcotest.failf "%s: seed itself must verify" e.path);
      let audits =
        List.map
          (fun w -> Fuzz.Soundness.bit_flip_audit ~weakening:w elf)
          Lfi_verifier.Verifier.all_weakenings
      in
      checkb (e.path ^ ": some weakened verifier leaks an escaping mutant")
        true
        (List.exists
           (fun d -> d.Fuzz.Soundness.weakened_escapes > 0)
           audits);
      List.iter
        (fun d ->
          checki (e.path ^ ": real verifier escaping mutants") 0
            d.Fuzz.Soundness.real_escapes)
        audits

let replay_equiv (e : Fuzz.Corpus.entry) =
  let src = Parser.parse_string_exn e.Fuzz.Corpus.text in
  match
    Fuzz.Equiv.check_source ~compare_state:Fuzz.Equiv.compare_stream_state src
  with
  | Fuzz.Equiv.Pass -> ()
  | Fuzz.Equiv.Skip why -> Alcotest.failf "%s: not runnable: %s" e.path why
  | Fuzz.Equiv.Fail why -> Alcotest.failf "%s: %s" e.path why

let replay_complete (e : Fuzz.Corpus.entry) =
  let src = Parser.parse_string_exn e.Fuzz.Corpus.text in
  match Fuzz.Complete.check_source src with
  | None -> ()
  | Some why -> Alcotest.failf "%s: %s" e.path why

let test_corpus () =
  let entries = Fuzz.Corpus.load_dir (Golden.path "corpus") in
  checkb "corpus is not empty" true (List.length entries >= 8);
  List.iter
    (fun (e : Fuzz.Corpus.entry) ->
      match e.Fuzz.Corpus.engine with
      | "soundness" -> replay_soundness e
      | "equiv" -> replay_equiv e
      | "complete" -> replay_complete e
      | other -> Alcotest.failf "%s: unknown engine %s" e.Fuzz.Corpus.path other)
    entries

(* ---------------- fixed-seed engine smoke ---------------- *)

let report_ok e =
  let r = Fuzz.Report.run e in
  if not (Fuzz.Report.ok r) then
    Alcotest.failf "%s" (Format.asprintf "%a" Fuzz.Report.pp r)

let test_equiv_smoke () =
  report_ok (Fuzz.Equiv.engine ~seed:42 ~count:40 ~minic_count:5)

let test_soundness_smoke () =
  report_ok (Fuzz.Soundness.engine ~seed:42 ~count:200 ())

let test_complete_smoke () =
  report_ok (Fuzz.Complete.engine ~seed:42 ~count:80 ~minic_count:10)

(* The oracle checks inside the lowered code: this loop runs under it
   as blocks, and finishes inside one quantum, so not even a quantum
   tail sends it to the step loop.  It exits through the runtime-call
   table, as sandboxed code must. *)
let test_oracle_runs_blocks () =
  let elf =
    assemble_text
      ".text\n_start:\n\tmovz x1, #100\n\tmovz x0, #0\nloop:\n\tadd x0, x0, #3\n\tsub x1, x1, #1\n\tcbnz x1, loop\n\tldr x30, [x21, #8]\n\tblr x30\n"
  in
  let r = run_armed elf in
  (match r.Fuzz.Equiv.stop with
  | Lfi_runtime.Runtime.Exited 300 -> ()
  | Lfi_runtime.Runtime.Exited c -> Alcotest.failf "exited %d" c
  | Lfi_runtime.Runtime.Killed why -> Alcotest.failf "killed: %s" why);
  checki "escapes" 0 (snd (Fuzz.Soundness.escapes r));
  let m = r.Fuzz.Equiv.rt.Lfi_runtime.Runtime.machine in
  checkb "blocks dispatched" true (m.Lfi_emulator.Machine.blk_execs > 0);
  checki "deopts" 0 m.Lfi_emulator.Machine.blk_deopts

(* A planted escape: an unguarded load below the data window, in the
   middle of a straight-line block.  The oracle must record it with the
   load's own pc and the address it resolved. *)
let test_oracle_planted_escape () =
  let elf =
    assemble_text
      ".text\n_start:\n\tmovz x1, #7\n\tsub x9, x21, #13, lsl #12\n\tadd x2, x1, #1\n\tldr x0, [x9]\n\tadd x3, x0, #1\n\tsvc #1\n"
  in
  let text =
    match Lfi_elf.Elf.text_segment elf with
    | Some seg -> seg.Lfi_elf.Elf.vaddr
    | None -> Alcotest.fail "no text segment"
  in
  let show escapes =
    String.concat "; "
      (List.map (Format.asprintf "%a" Fuzz.Soundness.pp_escape) escapes)
  in
  let expected =
    show
      [ { Lfi_emulator.Machine.esc_pc =
            Int64.add sandbox_base (Int64.of_int (text + 12));
          esc_addr = Int64.sub sandbox_base 0xD000L;
          esc_kind = Lfi_emulator.Machine.Eload } ]
  in
  let r = run_armed elf in
  checkb "blocks dispatched" true
    (r.Fuzz.Equiv.rt.Lfi_runtime.Runtime.machine.Lfi_emulator.Machine.blk_execs
    > 0);
  checks "escape recorded" expected (show (fst (Fuzz.Soundness.escapes r)))

let test_determinism () =
  (* same seed, same outcome — byte-for-byte identical reports *)
  let show e = Format.asprintf "%a" Fuzz.Report.pp (Fuzz.Report.run e) in
  List.iter
    (fun mk ->
      let e = mk () in
      checks (e.Fuzz.Report.name ^ " deterministic") (show e) (show (mk ())))
    [
      (fun () -> Fuzz.Equiv.engine ~seed:7 ~count:10 ~minic_count:2);
      (fun () -> Fuzz.Soundness.engine ~seed:7 ~count:50 ());
      (fun () -> Fuzz.Complete.engine ~seed:7 ~count:10 ~minic_count:2);
    ]

(* A failing run writes its minimized case where the report says, as a
   corpus entry the real verifier rejects.  Against the weakened
   verifier, seed 3 fails exactly case 10 (an immediate-field flip of
   bit 13 that turns the demo seed's uxtw load into uxtx). *)
let test_repro_written () =
  (* a fresh name two levels deep; writing the repro makes both *)
  let top = Filename.temp_file "lfi_fuzz" "" in
  Sys.remove top;
  let dir = Filename.concat top "repros" in
  let r =
    Fuzz.Report.run ~repro_dir:dir
      (Fuzz.Soundness.engine ~weakening:Lfi_verifier.Verifier.No_uxtw_check
         ~seed:3 ~count:11 ())
  in
  let path =
    match r.Fuzz.Report.failures with
    | [ { Fuzz.Report.case = 10; repro = Some p; _ } ] -> p
    | _ -> Alcotest.failf "%s" (Format.asprintf "%a" Fuzz.Report.pp r)
  in
  checks "repro file" "repro_soundness_seed3_case10.s" (Filename.basename path);
  let e = Fuzz.Corpus.load_file path in
  checks "engine" "soundness" e.Fuzz.Corpus.engine;
  checkb "expect reject" true (e.Fuzz.Corpus.expect = Fuzz.Corpus.Reject);
  replay_soundness e;
  Sys.remove path;
  Sys.rmdir dir;
  Sys.rmdir top

(* ---------------- the weakened-verifier demo ---------------- *)

let test_weakened_demo () =
  List.iter
    (fun (w, d) ->
      let name = Lfi_verifier.Verifier.weakening_name w in
      checkb (name ^ ": weakened verifier accepts an escaping mutant") true
        (d.Fuzz.Soundness.weakened_escapes > 0);
      checki (name ^ ": real verifier accepts no escaping mutant") 0
        d.Fuzz.Soundness.real_escapes)
    (Fuzz.Soundness.demo_weakened ())

(* ---------------- cross-page straddling branches ---------------- *)

(* The decode cache and branch handling are page-indexed (16KiB): a
   program whose branches jump across a page boundary in both
   directions must still be equivalence-clean at every opt level. *)
let test_cross_page_branches () =
  let nops = List.init 4200 (fun _ -> Source.Insn Insn.Nop) in
  let src =
    [
      Source.Directive (".text", "");
      Source.Label "_start";
      Source.Insn
        (Insn.Adr { page = false; dst = Reg.R (Reg.W64, 19);
                    target = Insn.Sym "gmid" });
      Source.Insn
        (Insn.Mov { op = Insn.MOVZ; dst = Reg.R (Reg.W64, 0); imm = 0; hw = 0 });
      Source.Insn (Insn.B (Insn.Sym "fwd"));  (* first page -> last page *)
      Source.Label "early";
      Source.Insn
        (Insn.Mov { op = Insn.MOVZ; dst = Reg.R (Reg.W64, 0); imm = 42; hw = 0 });
      Source.Insn (Insn.Svc Lfi_runtime.Sysno.exit);
    ]
    @ nops
    @ [
        Source.Label "fwd";
        Source.Insn (Insn.B (Insn.Sym "early"));  (* and back again *)
        Source.Directive (".data", "");
        Source.Label "gdata";
        Source.Directive (".zero", "32768");
        Source.Label "gmid";
        Source.Directive (".zero", "32768");
      ]
  in
  match
    Fuzz.Equiv.check_source ~compare_state:Fuzz.Equiv.compare_stream_state src
  with
  | Fuzz.Equiv.Pass -> ()
  | Fuzz.Equiv.Skip why -> Alcotest.failf "not runnable: %s" why
  | Fuzz.Equiv.Fail why -> Alcotest.fail why

(* ---------------- shrinkers ---------------- *)

let test_shrink_items () =
  let still_fails l = List.mem 5 l && List.mem 7 l in
  Alcotest.(check (list int))
    "keeps only load-bearing items" [ 5; 7 ]
    (Fuzz.Shrink.items [ 1; 5; 2; 7; 3 ] ~still_fails)

let test_shrink_words () =
  (* four instructions; only word 2 is load-bearing *)
  let enc i =
    match Isa.encode i with Ok w -> w | Error _ -> assert false
  in
  let words =
    [
      enc (Insn.Mov { op = Insn.MOVZ; dst = Reg.R (Reg.W64, 1); imm = 1; hw = 0 });
      enc (Insn.Mov { op = Insn.MOVZ; dst = Reg.R (Reg.W64, 2); imm = 2; hw = 0 });
      enc (Insn.Mov { op = Insn.MOVZ; dst = Reg.R (Reg.W64, 3); imm = 3; hw = 0 });
      enc Insn.Nop;
    ]
  in
  let code = Bytes.create 16 in
  List.iteri (fun i w -> Bytes.set_int32_le code (i * 4) (Int32.of_int w)) words;
  let target = List.nth words 2 in
  let still_fails b = Fuzz.Shrink.get32 b 2 = target in
  let small, live = Fuzz.Shrink.words code ~still_fails in
  checki "one live instruction" 1 live;
  checki "the load-bearing word survives" target (Fuzz.Shrink.get32 small 2)

(* ---------------- lfi_verify CLI golden ---------------- *)

let write_file path (b : bytes) =
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc

(* Exit codes and the pp_violation rendering are part of the CLI's
   interface (scripts and CI parse them): compare byte-for-byte
   against a committed golden transcript. *)
let test_verify_cli_golden () =
  let exe = Filename.quote (Golden.path "../bin/lfi_verify.exe") in
  write_file "cli_ok.elf"
    (Lfi_elf.Elf.write
       (assemble_text "f:\n\tldr x0, [x21, w1, uxtw]\n\tnop\n"));
  write_file "cli_bad.elf"
    (Lfi_elf.Elf.write
       (assemble_text "f:\n\tmovz x21, #0\n\tstr x0, [x1]\n\tsvc #5\n"));
  write_file "cli_garbage.elf" (Bytes.of_string "not an elf at all");
  let transcript = Buffer.create 1024 in
  List.iter
    (fun (file, expected_code) ->
      let code =
        Sys.command
          (Printf.sprintf "%s %s > cli_out.tmp 2> cli_err.tmp" exe file)
      in
      checki (file ^ ": exit code") expected_code code;
      Buffer.add_string transcript
        (Printf.sprintf "$ lfi_verify %s (exit %d)\n" file code);
      Buffer.add_string transcript (Golden.read_file "cli_out.tmp");
      Buffer.add_string transcript (Golden.read_file "cli_err.tmp"))
    [ ("cli_ok.elf", 0); ("cli_bad.elf", 1); ("cli_garbage.elf", 2) ];
  (* on mismatch, the fresh transcript is left next to the golden file
     for inspection / regeneration *)
  write_file "verify_cli_golden.actual"
    (Bytes.of_string (Buffer.contents transcript));
  checks "CLI transcript is byte-stable"
    (Golden.read_file "verify_cli_golden.txt")
    (Buffer.contents transcript)

(* ---------------- suite ---------------- *)

let () =
  let mk name f = Alcotest.test_case name `Quick f in
  Alcotest.run "fuzz"
    [
      ( "corpus",
        [ mk "replay" test_corpus ] );
      ( "engines",
        [
          mk "equiv smoke" test_equiv_smoke;
          mk "soundness smoke" test_soundness_smoke;
          mk "oracle runs lowered blocks" test_oracle_runs_blocks;
          mk "oracle planted escape" test_oracle_planted_escape;
          mk "complete smoke" test_complete_smoke;
          mk "deterministic" test_determinism;
          mk "repro written" test_repro_written;
          mk "weakened demo" test_weakened_demo;
          mk "cross-page branches" test_cross_page_branches;
        ] );
      ( "shrink",
        [ mk "items" test_shrink_items; mk "words" test_shrink_words ] );
      ( "cli",
        [ mk "lfi_verify golden" test_verify_cli_golden ] );
    ]
