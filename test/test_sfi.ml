(* Tests for the LFI rewriter and static verifier — the security core.

   Every rewriter transformation is checked against the paper's Table 3
   forms, and the verifier is tested both ways: it must accept
   everything the rewriter produces (a QCheck property over random
   instruction streams) and reject a catalogue of violations. *)

open Lfi_arm64
module Gen = Lfi_fuzz.Gen_insn

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

let rewrite_body ?(config = Lfi_core.Config.o2) (asm : string) : string list =
  let src = Parser.parse_string_exn ("f:\n" ^ asm) in
  let out, _ = Lfi_core.Rewriter.rewrite ~config src in
  List.filter_map
    (function Source.Insn i -> Some (Printer.to_string i) | _ -> None)
    out

let expect ?config asm expected () =
  Alcotest.(check (list string)) asm expected (rewrite_body ?config asm)

(* ---------------- Table 3 transformations ---------------- *)

let table3_cases =
  [
    ( "base register",
      "\tldr x0, [x1]\n",
      [ "ldr x0, [x21, w1, uxtw]" ] );
    ( "base + immediate",
      "\tldr x0, [x1, #16]\n",
      [ "add w22, w1, #16"; "ldr x0, [x21, w22, uxtw]" ] );
    ( "pre-index",
      "\tldr x0, [x1, #16]!\n",
      [ "add x1, x1, #16"; "ldr x0, [x21, w1, uxtw]" ] );
    ( "post-index",
      "\tldr x0, [x1], #16\n",
      [ "ldr x0, [x21, w1, uxtw]"; "add x1, x1, #16" ] );
    ( "register lsl",
      "\tldr x0, [x1, x2, lsl #3]\n",
      [ "add w22, w1, w2, lsl #3"; "ldr x0, [x21, w22, uxtw]" ] );
    ( "register uxtw",
      "\tldr x0, [x1, w2, uxtw #2]\n",
      [ "add w22, w1, w2, uxtw #2"; "ldr x0, [x21, w22, uxtw]" ] );
    ( "register sxtw",
      "\tldr x0, [x1, w2, sxtw]\n",
      [ "add w22, w1, w2, sxtw"; "ldr x0, [x21, w22, uxtw]" ] );
    ( "store treated like load",
      "\tstr x0, [x1, #8]\n",
      [ "add w22, w1, #8"; "str x0, [x21, w22, uxtw]" ] );
    ( "negative offset",
      "\tldr x0, [x1, #-8]\n",
      [ "sub w22, w1, #8"; "ldr x0, [x21, w22, uxtw]" ] );
    ( "fp load",
      "\tldr d0, [x1, #24]\n",
      [ "add w22, w1, #24"; "ldr d0, [x21, w22, uxtw]" ] );
  ]

(* sp-based accesses are free; sp writes get the two-instruction guard
   unless the §4.2 optimizations apply *)
let sp_cases =
  [
    ("sp load unchanged", "\tldr x0, [sp, #16]\n", [ "ldr x0, [sp, #16]" ]);
    ( "sp pre-index unchanged",
      "\tstr x0, [sp, #-16]!\n",
      [ "str x0, [sp, #-16]!" ] );
    ( "small sub with access elided",
      "\tsub sp, sp, #32\n\tstr x0, [sp]\n",
      [ "sub sp, sp, #32"; "str x0, [sp]" ] );
    ( "small sub without access guarded",
      "\tsub sp, sp, #32\n\tret\n",
      [ "sub sp, sp, #32"; "mov w22, wsp"; "add sp, x21, x22, uxtx"; "ret" ] );
    ( "large sub guarded",
      "\tsub sp, sp, #2048\n\tstr x0, [sp]\n",
      [ "sub sp, sp, #2048"; "mov w22, wsp"; "add sp, x21, x22, uxtx";
        "str x0, [sp]" ] );
    ( "mov sp guarded",
      "\tmov sp, x9\n",
      [ "mov w22, w9"; "add sp, x21, x22, uxtx" ] );
  ]

let misc_cases =
  [
    ( "indirect branch",
      "\tbr x5\n",
      [ "add x18, x21, w5, uxtw"; "br x18" ] );
    ( "indirect call",
      "\tblr x5\n",
      [ "add x18, x21, w5, uxtw"; "blr x18" ] );
    ("plain ret untouched", "\tret\n", [ "ret" ]);
    ( "ldp via x18",
      "\tldp x2, x3, [x1, #16]\n",
      [ "add x18, x21, w1, uxtw"; "ldp x2, x3, [x18, #16]" ] );
    ( "exclusive via x18",
      "\tldxr x0, [x1]\n",
      [ "add x18, x21, w1, uxtw"; "ldxr x0, [x18]" ] );
    ( "lr restore gets guard",
      "\tldr x30, [sp, #8]\n",
      [ "ldr x30, [sp, #8]"; "add x30, x21, w30, uxtw" ] );
    ( "ldp restoring lr gets guard",
      "\tldp x29, x30, [sp], #16\n",
      [ "ldp x29, x30, [sp], #16"; "add x30, x21, w30, uxtw" ] );
    ( "svc becomes runtime call",
      "\tsvc #2\n",
      [ "ldr x30, [x21, #16]"; "blr x30" ] );
  ]

let o0_cases =
  [
    ( "O0 basic guard",
      "\tldr x0, [x1, #16]\n",
      [ "add x18, x21, w1, uxtw"; "ldr x0, [x18, #16]" ] );
    ( "O0 register offset",
      "\tldr x0, [x1, x2, lsl #3]\n",
      [ "add w22, w1, w2, lsl #3"; "add x18, x21, w22, uxtw";
        "ldr x0, [x18]" ] );
  ]

let no_loads_cases =
  [
    ("loads untouched", "\tldr x0, [x1, #16]\n", [ "ldr x0, [x1, #16]" ]);
    ( "stores still guarded",
      "\tstr x0, [x1]\n",
      [ "str x0, [x21, w1, uxtw]" ] );
  ]

let test_reserved_rejected () =
  List.iter
    (fun asm ->
      match Lfi_core.Rewriter.rewrite (Parser.parse_string_exn asm) with
      | exception Lfi_core.Rewriter.Error _ -> ()
      | _ -> Alcotest.failf "accepted input using reserved register: %s" asm)
    [ "f:\n\tadd x21, x21, #1\n"; "f:\n\tmov x18, x0\n"; "f:\n\tldr x0, [x23]\n" ]

let test_hoisting () =
  let body =
    "f:\n\tstr x0, [x1, #8]\n\tstr x0, [x1, #16]\n\tstr x0, [x1, #24]\n\tstr \
     x0, [x1, #32]\n"
  in
  let out, stats =
    Lfi_core.Rewriter.rewrite ~config:Lfi_core.Config.o2
      (Parser.parse_string_exn body)
  in
  checki "hoists" 1 stats.hoists;
  let insns =
    List.filter_map
      (function Source.Insn i -> Some (Printer.to_string i) | _ -> None)
      out
  in
  Alcotest.(check (list string))
    "figure 2"
    [ "add x23, x21, w1, uxtw"; "str x0, [x23, #8]"; "str x0, [x23, #16]";
      "str x0, [x23, #24]"; "str x0, [x23, #32]" ]
    insns

let test_hoisting_not_across_write () =
  (* redefining the base register must end the hoisting group *)
  let body =
    "f:\n\tstr x0, [x1, #8]\n\tstr x0, [x1, #16]\n\tadd x1, x1, #64\n\tstr \
     x0, [x1, #8]\n\tstr x0, [x1, #16]\n"
  in
  let out, stats =
    Lfi_core.Rewriter.rewrite ~config:Lfi_core.Config.o2
      (Parser.parse_string_exn body)
  in
  checki "two groups" 2 stats.hoists;
  (* every store must go through a reserved register *)
  List.iter
    (function
      | Source.Insn (Insn.Str { addr; _ }) ->
          let base = Insn.addr_base addr in
          checkb "reserved base" true
            (match Reg.number_of base with
            | Some (23 | 24) -> true
            | _ -> false)
      | _ -> ())
    out

let test_branch_relaxation () =
  (* a tbz whose target is pushed out of range by inserted guards *)
  let buf = Buffer.create 65536 in
  Buffer.add_string buf "f:\n\ttbz x0, #3, far\n";
  for _ = 1 to 9000 do
    Buffer.add_string buf "\tldr x1, [x2, #8]\n"
  done;
  Buffer.add_string buf "far:\n\tret\n";
  let out, stats =
    Lfi_core.Rewriter.rewrite (Parser.parse_string_exn (Buffer.contents buf))
  in
  checkb "relaxed" true (stats.branches_relaxed >= 1);
  (* and the result must still assemble (all offsets in range) *)
  ignore (Assemble.assemble out)

(* [f:], the [head] instructions, [gap] nops, [far:], the [tail]
   instructions.  Nops pass through the rewriter, so input and output
   offsets agree until a branch is relaxed. *)
let far_program head gap tail =
  let p = Parser.parse_string_exn in
  p ("f:\n" ^ head)
  @ List.init gap (fun _ -> Source.Insn Insn.Nop)
  @ p ("far:\n" ^ tail)

let relax src =
  let out, stats = Lfi_core.Rewriter.rewrite src in
  checki "output insns"
    (stats.input_insns + stats.branches_relaxed)
    stats.output_insns;
  (* every branch of the result is in reach *)
  ignore (Assemble.assemble out);
  (Source.insns out, stats.branches_relaxed)

let test_far_cbz_bcond () =
  (* cbz and b.eq more than 1 MiB before their target, cbnz and b.ne
     more than 1 MiB after theirs *)
  let insns, relaxed =
    relax
      (far_program "\tcbz x0, far\n\tb.eq far\n" 262100
         "\tcbnz x1, f\n\tb.ne f\n\tret\n")
  in
  checki "relaxed" 4 relaxed;
  let printed k = Printer.to_string (List.nth insns k) in
  checks "cbz inverted" "cbnz x0, .+8" (printed 0);
  checks "cbz veneer" "b far" (printed 1);
  checks "b.eq inverted" "b.ne .+8" (printed 2);
  checks "b.eq veneer" "b far" (printed 3);
  (* the reach is exact: a target (1 lsl 18) - 64 instructions away is
     in range, one more is not *)
  let at d = snd (relax (far_program "\tcbz x0, far\n" (d - 1) "\tret\n")) in
  checki "at the reach" 0 (at ((1 lsl 18) - 64));
  checki "past the reach" 1 (at ((1 lsl 18) - 63));
  let tbz d = snd (relax (far_program "\ttbz x0, #3, far\n" (d - 1) "\tret\n")) in
  checki "tbz at the reach" 0 (tbz (8192 - 64));
  checki "tbz past the reach" 1 (tbz (8192 - 63))

let test_relaxation_cascade () =
  (* the first tbz's target is exactly at its reach; relaxing the
     second (far) tbz, which lies between them, adds an instruction that
     pushes the first out of range on the next pass *)
  let src =
    Parser.parse_string_exn "f:\n\ttbz x0, #1, near\n\ttbz x0, #2, far\n"
    @ List.init (8192 - 64 - 2) (fun _ -> Source.Insn Insn.Nop)
    @ Parser.parse_string_exn "near:\n"
    @ List.init 5000 (fun _ -> Source.Insn Insn.Nop)
    @ Parser.parse_string_exn "far:\n\tret\n"
  in
  let insns, relaxed = relax src in
  checki "relaxed" 2 relaxed;
  checks "first inverted" "tbnz w0, #1, .+8"
    (Printer.to_string (List.nth insns 0));
  checks "first veneer" "b near" (Printer.to_string (List.nth insns 1))

(* ---------------- verifier bounds ---------------- *)

let many_o2_text () =
  let src = Lfi_minic.Compile.compile (Synthetic.many_functions_program ()) in
  let out, _ = Lfi_core.Rewriter.rewrite ~config:Lfi_core.Config.o2 src in
  (Assemble.assemble out).Assemble.text

(* The verifier keeps no decoded text, so verifying the ~320 KiB
   many-function image promotes next to nothing; an array of its
   decoded instructions is about 616k words. *)
let test_verifier_promotes_little () =
  let code = many_o2_text () in
  Gc.minor ();
  let before = (Gc.quick_stat ()).Gc.promoted_words in
  let r = Lfi_verifier.Verifier.verify ~code () in
  Gc.minor ();
  let promoted = (Gc.quick_stat ()).Gc.promoted_words -. before in
  checkb "verifies" true (Result.is_ok r);
  checkb
    (Printf.sprintf "%.0f promoted words < 16k" promoted)
    true (promoted < 16384.)

let minor_words_per_insn code =
  let before = Gc.minor_words () in
  let r = Lfi_verifier.Verifier.verify ~code () in
  (r, (Gc.minor_words () -. before) /. float_of_int (Bytes.length code / 4))

let words asm =
  List.map
    (fun i ->
      match Isa.encode i with Ok w -> w | Error e -> Alcotest.fail e)
    (Source.insns (Parser.parse_string_exn asm))

(* 256 sp writes, each followed by 1024 ALU instructions that neither
   branch nor touch sp.  The even blocks end with an sp access, which
   anchors their small drift; each odd block's write runs into the next
   block's (or the end of the text) and is rejected.  However far an sp
   write is from its anchor, verification must decode each word once:
   it may take no more minor words per instruction than the same text
   with [sub x15, x15, #16] for each sp write, beyond the 128 violation
   reports (about 0.04 words per instruction; a second decode of the
   runs would add about 8). *)
let test_verifier_long_sp_runs () =
  let access = words "\tstr x0, [sp, #8]\n"
  and alu =
    Array.of_list
      (words
         "\tadd x0, x0, #1\n\teor x1, x2, x3\n\tmadd x4, x5, x6, x7\n\
          \tlsl x8, x9, #3\n\tmov x10, x11\n\tsub w12, w13, w14, uxtb\n")
  in
  let blocks = 256 and run = 1024 in
  let text drift =
    let ws =
      List.concat
        (List.init blocks (fun b ->
             drift
             @ List.init run (fun k -> alu.(k mod Array.length alu))
             @ if b mod 2 = 0 then access else []))
    in
    let code = Bytes.create (4 * List.length ws) in
    List.iteri (fun k w -> Bytes.set_int32_le code (4 * k) (Int32.of_int w)) ws;
    code
  in
  let code = text (words "\tsub sp, sp, #16\n") in
  checkb "at least 256k instructions" true (Bytes.length code >= 4 * 256 * 1024);
  (* block [b] starts after [b] drifts, [b] runs and [(b + 1) / 2]
     accesses *)
  let expected =
    List.filter_map
      (fun b ->
        if b mod 2 = 1 then Some ((b * (1 + run)) + ((b + 1) / 2)) else None)
      (List.init blocks Fun.id)
  in
  let ordinary =
    match minor_words_per_insn (text (words "\tsub x15, x15, #16\n")) with
    | Ok _, w -> w
    | Error _, _ -> Alcotest.fail "the text without sp writes is rejected"
  in
  match minor_words_per_insn code with
  | Ok _, _ -> Alcotest.fail "unanchored sp writes verified"
  | Error vs, per_insn ->
      Alcotest.(check (list int)) "rejected sp writes" expected
        (List.map (fun (v : Lfi_verifier.Verifier.violation) -> v.index) vs);
      List.iter
        (fun (v : Lfi_verifier.Verifier.violation) ->
          checks "rule" "unguarded write to sp" v.rule)
        vs;
      checkb
        (Printf.sprintf "%.2f minor words per insn <= %.2f + 0.1" per_insn
           ordinary)
        true
        (per_insn <= ordinary +. 0.1)

let test_svc_out_of_range () =
  match
    Lfi_core.Rewriter.rewrite (Parser.parse_string_exn "f:\n\tsvc #3000\n")
  with
  | exception Lfi_core.Rewriter.Error _ -> ()
  | _ -> Alcotest.fail "svc #3000 should be rejected"

(* ---------------- verifier ---------------- *)

let verify_asm ?config asm =
  let img = Assemble.assemble (Parser.parse_string_exn asm) in
  Lfi_verifier.Verifier.verify ?config ~code:img.Assemble.text ()

let test_verifier_accepts_rewritten () =
  (* every Table 3 / sp / misc case, once rewritten, must verify *)
  List.iter
    (fun (name, asm, _) ->
      let src = Parser.parse_string_exn ("f:\n" ^ asm) in
      match
        Lfi_verifier.Verifier.verify_elf
          (Lfi_core.Build.elf (Some Lfi_core.Config.default) src)
      with
      | Ok _ -> ()
      | Error e ->
          Alcotest.failf "%s: %s" name
            (Lfi_verifier.Verifier.elf_error_message e))
    (table3_cases @ sp_cases @ misc_cases)

let violations =
  [
    ("unguarded store", "f:\n\tstr x0, [x1]\n");
    ("unguarded load", "f:\n\tldr x0, [x1]\n");
    ("write to x21", "f:\n\tmovz x21, #0\n");
    ("write to x18", "f:\n\tmov x18, x1\n");
    ("write x23 not via guard", "f:\n\tadd x23, x23, #8\n");
    ("64-bit write to x22", "f:\n\tmovz x22, #1\n");
    ("x30 write unguarded", "f:\n\tmov x30, x1\n\tnop\n");
    ("table load without blr", "f:\n\tldr x30, [x21, #16]\n\tnop\n");
    ("table load bad offset", "f:\n\tldr x30, [x21, #20]\n\tblr x30\n");
    ("svc", "f:\n\tsvc #1\n");
    ("mrs", "f:\n\tmrs x0, tpidr_el0\n");
    ("msr", "f:\n\tmsr tpidr_el0, x0\n");
    ("indirect branch free register", "f:\n\tbr x9\n");
    ("indirect call free register", "f:\n\tblr x9\n");
    ("ret through free register", "f:\n\tret x9\n");
    ("sp from register", "f:\n\tmov sp, x9\n");
    ("sp large immediate", "f:\n\tadd sp, sp, #1024\n\tldr x0, [sp]\n");
    ("sp small but unanchored", "f:\n\tsub sp, sp, #16\n\tret\n");
    ("branch past the end", "f:\n\tb .+64\n");
    ("branch before the start", "f:\n\tb .-64\n");
    ("guarded addressing with shift", "f:\n\tldr w0, [x21, w1, uxtw #2]\n");
    ("reg-offset from reserved base", "f:\n\tldr x0, [x18, x1, lsl #3]\n");
    ("writeback on reserved base", "f:\n\tldr x0, [x18, #8]!\n");
  ]

let test_verifier_rejects () =
  List.iter
    (fun (name, asm) ->
      match verify_asm asm with
      | Ok _ -> Alcotest.failf "%s: verified but should not" name
      | Error _ -> ())
    violations

let test_verifier_accepts_safe_forms () =
  List.iter
    (fun (name, asm) ->
      match verify_asm asm with
      | Ok _ -> ()
      | Error (v :: _) ->
          Alcotest.failf "%s rejected: %s" name
            (Format.asprintf "%a" Lfi_verifier.Verifier.pp_violation v)
      | Error [] -> assert false)
    [
      ("guarded load", "f:\n\tldr x0, [x21, w1, uxtw]\n");
      ("load via x18", "f:\n\tadd x18, x21, w1, uxtw\n\tldr x0, [x18, #8]\n");
      ("sp store", "f:\n\tstr x0, [sp, #8]\n");
      ("sp pre-index", "f:\n\tstr x0, [sp, #-16]!\n");
      ("sp guard sequence", "f:\n\tmov w22, wsp\n\tadd sp, x21, x22\n");
      ("sp small anchored", "f:\n\tsub sp, sp, #16\n\tstr x0, [sp]\n");
      ("runtime call", "f:\n\tldr x30, [x21, #16]\n\tblr x30\n");
      ("lr guard after load", "f:\n\tldr x30, [sp]\n\tadd x30, x21, w30, uxtw\n");
      ("br through x18", "f:\n\tadd x18, x21, w0, uxtw\n\tbr x18\n");
      ("ret", "f:\n\tret\n");
      ("w22 write ok", "f:\n\tadd w22, w1, #8\n");
      ("bl in range", "f:\n\tbl .+4\n\tret\n");
      ("exclusive via x18", "f:\n\tadd x18, x21, w1, uxtw\n\tldxr x0, [x18]\n");
    ]

let test_verifier_exclusives_config () =
  let asm = "f:\n\tadd x18, x21, w1, uxtw\n\tldxr x0, [x18]\n" in
  (match verify_asm asm with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "exclusives should verify by default");
  match
    verify_asm
      ~config:{ Lfi_verifier.Verifier.default_config with allow_exclusives = false }
      asm
  with
  | Ok _ -> Alcotest.fail "exclusives should be rejected when disabled"
  | Error _ -> ()

let test_verifier_no_loads_config () =
  let asm = "f:\n\tldr x0, [x1, #8]\n" in
  match
    verify_asm
      ~config:{ Lfi_verifier.Verifier.default_config with sandbox_loads = false }
      asm
  with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "unguarded load should pass in no-loads mode"

(* Property: any random (encodable) instruction stream, once rewritten,
   passes verification.  This is the rewriter's soundness contract. *)
let prop_rewrite_verifies =
  let stream_gen = QCheck.Gen.(list_size (int_range 1 40) Gen.insn) in
  QCheck.Test.make ~count:300 ~name:"verify (rewrite stream) = ok"
    (QCheck.make
       ~print:(fun l -> String.concat "; " (List.map Printer.to_string l))
       stream_gen)
    (fun insns ->
      (* drop instructions the rewriter legitimately refuses (reserved
         registers, unsupported sp writes) and branches (random targets
         rarely stay in range) *)
      let ok_input i =
        (match
           List.find_opt
             (fun r ->
               match Reg.number_of r with
               | Some n -> List.mem n Reg.reserved_numbers
               | None -> false)
             (Insn.regs_mentioned i)
         with
        | Some _ -> false
        | None -> true)
        && (not (Insn.is_branch i))
        && (not (Insn.writes_sp i))
        && not (Insn.writes_reg_number i 30)
      in
      let insns = List.filter ok_input insns in
      let src = List.map (fun i -> Source.Insn i) insns in
      match
        Lfi_core.Build.elf (Some Lfi_core.Config.default)
          (Source.Label "f" :: src)
      with
      (* rejected inputs are fine *)
      | exception (Lfi_core.Rewriter.Error _ | Assemble.Error _) -> true
      | elf -> (
          match Lfi_verifier.Verifier.verify_elf elf with
          | Ok _ -> true
          | Error e ->
              QCheck.Test.fail_reportf "%s"
                (Lfi_verifier.Verifier.elf_error_message e)))

let test_stats_accounting () =
  let src = Parser.parse_string_exn "f:\n\tldr x0, [x1, #8]\n\tret\n" in
  let _, stats = Lfi_core.Rewriter.rewrite src in
  checki "in" 2 stats.input_insns;
  checki "out" 3 stats.output_insns

let test_layout_constants () =
  checki "guard covers imm+index"
    1 (if Lfi_core.Layout.guard_size > Lfi_core.Layout.max_mem_immediate
          + Lfi_core.Layout.max_sp_drift then 1 else 0);
  checki "guard is page multiple" 0
    (Lfi_core.Layout.guard_size mod Lfi_core.Layout.page_size);
  checki "code origin" (64 * 1024) Lfi_core.Layout.code_origin;
  checkb "code limit leaves 128MiB" true
    (Lfi_core.Layout.sandbox_size - Lfi_core.Layout.code_limit
    = 128 * 1024 * 1024);
  checki "max sandboxes" 65535 Lfi_core.Layout.max_sandboxes_48bit

let mk name f = Alcotest.test_case name `Quick f

let () =
  Alcotest.run "sfi"
    [
      ( "rewriter-table3",
        List.map (fun (n, a, e) -> mk n (expect a e)) table3_cases );
      ("rewriter-sp", List.map (fun (n, a, e) -> mk n (expect a e)) sp_cases);
      ( "rewriter-misc",
        List.map (fun (n, a, e) -> mk n (expect a e)) misc_cases
        @ [
            mk "reserved inputs rejected" test_reserved_rejected;
            mk "svc out of range" test_svc_out_of_range;
            mk "stats" test_stats_accounting;
          ] );
      ( "rewriter-O0",
        List.map
          (fun (n, a, e) -> mk n (expect ~config:Lfi_core.Config.o0 a e))
          o0_cases );
      ( "rewriter-no-loads",
        List.map
          (fun (n, a, e) ->
            mk n (expect ~config:Lfi_core.Config.o2_no_loads a e))
          no_loads_cases );
      ( "rewriter-hoisting",
        [
          mk "figure 2" test_hoisting;
          mk "group ends at base write" test_hoisting_not_across_write;
        ] );
      ( "rewriter-relaxation",
        [
          mk "far tbz" test_branch_relaxation;
          mk "far cbz and b.cond" test_far_cbz_bcond;
          mk "cascade" test_relaxation_cascade;
        ] );
      ( "verifier",
        [
          mk "accepts rewritten" test_verifier_accepts_rewritten;
          mk "rejects violations" test_verifier_rejects;
          mk "accepts safe forms" test_verifier_accepts_safe_forms;
          mk "exclusives config" test_verifier_exclusives_config;
          mk "no-loads config" test_verifier_no_loads_config;
          QCheck_alcotest.to_alcotest prop_rewrite_verifies;
          mk "promotes little" test_verifier_promotes_little;
          mk "long sp runs" test_verifier_long_sp_runs;
        ] );
      ("layout", [ mk "constants" test_layout_constants ]);
    ]
