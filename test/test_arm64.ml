(* Unit and property tests for the ARM64 layer: registers, the
   instruction ADT, parser/printer, encoder/decoder, assembler. *)

open Lfi_arm64
module Gen = Lfi_fuzz.Gen_insn

let check = Alcotest.check
let checks = Alcotest.(check string)
let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* ---------------- registers ---------------- *)

let test_reg_roundtrip () =
  List.iter
    (fun s ->
      match Reg.of_string s with
      | Some r -> checks s s (Reg.to_string r)
      | None -> Alcotest.failf "could not parse %s" s)
    [ "x0"; "x30"; "w0"; "w30"; "xzr"; "wzr"; "sp"; "wsp"; "x21" ]

let test_reg_invalid () =
  List.iter
    (fun s -> checkb s true (Reg.of_string s = None))
    [ "x31"; "w31"; "x-1"; "y0"; "x"; ""; "x300"; "d0" ]

let test_reg_lr_alias () =
  checkb "lr" true (Reg.of_string "lr" = Some (Reg.x 30))

let test_reserved () =
  List.iter
    (fun n -> checkb (Printf.sprintf "x%d" n) true (Reg.is_reserved (Reg.x n)))
    [ 18; 21; 22; 23; 24 ];
  List.iter
    (fun n -> checkb (Printf.sprintf "x%d" n) false (Reg.is_reserved (Reg.x n)))
    [ 0; 17; 19; 20; 25; 30 ];
  checkb "sp" false (Reg.is_reserved Reg.sp);
  checkb "xzr" false (Reg.is_reserved Reg.xzr)

let test_fp_reg () =
  List.iter
    (fun s ->
      match Reg.Fp.of_string s with
      | Some r -> checks s s (Reg.Fp.to_string r)
      | None -> Alcotest.failf "could not parse %s" s)
    [ "d0"; "d31"; "s5"; "q17" ];
  checki "d bytes" 8 (Reg.Fp.bytes (Reg.Fp.v Reg.Fp.D 0));
  checki "q bytes" 16 (Reg.Fp.bytes (Reg.Fp.v Reg.Fp.Q 3))

(* ---------------- instruction helpers ---------------- *)

let parse s =
  match Parser.parse_insn s with
  | Ok i -> i
  | Error e -> Alcotest.failf "parse %S: %s" s e

let test_writes () =
  let w s expect =
    let i = parse s in
    let got =
      Insn.writes i
      |> List.filter_map (function `R (_, n) -> Some n | `Sp -> None)
      |> List.sort compare
    in
    check Alcotest.(list int) s (List.sort compare expect) got
  in
  w "add x0, x1, #4" [ 0 ];
  w "ldp x4, x5, [sp, #16]" [ 4; 5 ];
  w "ldr x3, [x7, #8]!" [ 3; 7 ];
  w "str x3, [x7], #8" [ 7 ];
  w "bl somewhere" [ 30 ];
  w "blr x9" [ 30 ];
  w "cmp x1, x2" [];
  w "stxr w5, x6, [x7]" [ 5 ];
  w "mul x2, x3, x4" [ 2 ]

let test_writes_sp () =
  checkb "mov sp" true (Insn.writes_sp (parse "mov sp, x1"));
  checkb "sub sp" true (Insn.writes_sp (parse "sub sp, sp, #16"));
  checkb "pre-index" true (Insn.writes_sp (parse "str x0, [sp, #-16]!"));
  checkb "plain store" false (Insn.writes_sp (parse "str x0, [sp, #8]"))

(* the register-write queries are folds over the written registers
   that allocate nothing *)
let test_write_queries_allocate_nothing () =
  let insns =
    List.map parse
      [ "ldp x4, x5, [sp, #16]"; "str x0, [sp, #-16]!"; "bl f";
        "add x0, x1, #4"; "cmp x1, x2" ]
  in
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    List.iter
      (fun i ->
        ignore
          (Sys.opaque_identity
             (Insn.writes_sp i || Insn.writes_reg_number i 5)))
      insns
  done;
  let words = Gc.minor_words () -. before in
  checkb (Printf.sprintf "%.0f words for 10000 queries" words) true
    (words < 100.)

(* the non-allocating register-write queries answer as the writes list
   does, for every general register *)
let prop_writes_queries =
  QCheck.Test.make ~count:5000 ~name:"writes_reg_number, writes_sp = writes"
    Gen.arbitrary_insn (fun i ->
      let ws = Insn.writes i in
      Insn.writes_sp i = List.mem `Sp ws
      && List.for_all
           (fun n ->
             Insn.writes_reg_number i n
             = List.exists (function `R (_, m) -> m = n | `Sp -> false) ws)
           (List.init 31 Fun.id))

let test_branch_classes () =
  checkb "b" true (Insn.is_branch (parse "b lbl"));
  checkb "ret" true (Insn.is_indirect_branch (parse "ret"));
  checkb "br" true (Insn.is_indirect_branch (parse "br x0"));
  checkb "bl" false (Insn.is_indirect_branch (parse "bl f"));
  checkb "falls" false (Insn.falls_through (parse "b lbl"));
  checkb "bl falls" true (Insn.falls_through (parse "bl f"));
  checkb "bcond falls" true (Insn.falls_through (parse "b.eq lbl"))

let test_access_bytes () =
  List.iter
    (fun (s, n) -> checki s n (Insn.access_bytes (parse s)))
    [
      ("ldr x0, [x1]", 8); ("ldr w0, [x1]", 4); ("ldrb w0, [x1]", 1);
      ("ldrh w0, [x1]", 2); ("ldp x0, x1, [x2]", 16); ("ldp w0, w1, [x2]", 8);
      ("ldr d0, [x1]", 8); ("ldr q0, [x1]", 16); ("str s0, [x1]", 4);
    ]

(* ---------------- parser / printer ---------------- *)

let corpus =
  [
    (* canonical form on the left; aliases map onto it *)
    ("add x0, x1, #4", "add x0, x1, #4");
    ("mov x0, x1", "mov x0, x1");
    ("orr x0, xzr, x1", "mov x0, x1");
    ("neg x2, x3", "neg x2, x3");
    ("sub x2, xzr, x3", "neg x2, x3");
    ("cmp w1, #7", "cmp w1, #7");
    ("subs wzr, w1, #7", "cmp w1, #7");
    ("mov x0, #42", "movz x0, #42");
    ("mov x0, #-3", "movn x0, #2");
    ("lsl x1, x2, #4", "ubfm x1, x2, #60, #59");
    ("lsr w1, w2, #4", "ubfm w1, w2, #4, #31");
    ("asr x1, x2, #63", "sbfm x1, x2, #63, #63");
    ("uxtb w0, w1", "ubfm w0, w1, #0, #7");
    ("sxtw x0, w1", "sbfm x0, x1, #0, #31");
    ("ubfx x1, x2, #8, #8", "ubfm x1, x2, #8, #15");
    ("mul x0, x1, x2", "mul x0, x1, x2");
    ("cset x0, gt", "csinc x0, xzr, xzr, le");
    ("cinc x1, x2, lt", "csinc x1, x2, x2, ge");
    ("mov sp, x9", "mov sp, x9");
    ("mov w22, wsp", "mov w22, wsp");
    ("add sp, x21, x22", "add sp, x21, x22, uxtx");
    ("ldr x0, [x1, #0]", "ldr x0, [x1]");
    ("ret x30", "ret");
    ("b.hs target", "b.cs target");
    ("dmb sy", "dmb ish");
    ("smull x0, w1, w2", "smull x0, w1, w2");
    ("ccmp x1, x2, #4, ne", "ccmp x1, x2, #4, ne");
    ("ccmn w1, #5, #0, eq", "ccmn w1, #5, #0, eq");
  ]

let test_parse_aliases () =
  List.iter
    (fun (input, canonical) ->
      checks input canonical (Printer.to_string (parse input)))
    corpus

let test_parse_errors () =
  List.iter
    (fun s ->
      match Parser.parse_insn s with
      | Ok i -> Alcotest.failf "%S should not parse (got %s)" s (Printer.to_string i)
      | Error _ -> ())
    [
      "frobnicate x0"; "add x0"; "ldr x0, [w1]"; "add x0, x1, x2, x3";
      "ldrb x0, [x1]"; "strh x3, [x1]"; "ldp x0, w1, [x2]";
      "tbz x0, lbl"; "svc"; "ldr x0, [x1, #8]!!";
    ]

let test_parse_file () =
  let text =
    "// comment\nfoo:\n\tadd x0, x1, #1\n.data\nbar: .quad 1, 2\n\t.asciz \
     \"hi\"\n"
  in
  let src = Parser.parse_string_exn text in
  checki "items" 6 (List.length src);
  checki "insns" 1 (Source.insn_count src)

let prop_print_parse =
  QCheck.Test.make ~count:2000 ~name:"parse (print i) = i" Gen.arbitrary_insn
    (fun i ->
      let printed = Printer.to_string i in
      match Parser.parse_insn printed with
      | Ok i2 ->
          if Insn.equal i i2 then true
          else
            QCheck.Test.fail_reportf "%s -> reparsed as %s" printed
              (Printer.to_string i2)
      | Error e -> QCheck.Test.fail_reportf "%s -> parse error: %s" printed e)

(* ---------------- encoder / decoder ---------------- *)

(* Golden encodings cross-checked against GNU binutils output. *)
let golden =
  [
    ("ret", 0xD65F03C0);
    ("nop", 0xD503201F);
    ("add x0, x1, #4", 0x91001020);
    ("sub sp, sp, #32", 0xD10083FF);
    ("mov x0, x1", 0xAA0103E0);
    ("ldr x0, [x1]", 0xF9400020);
    ("ldr x0, [x1, #8]", 0xF9400420);
    ("str w2, [sp, #12]", 0xB9000FE2);
    ("ldp x29, x30, [sp], #16", 0xA8C17BFD);
    ("stp x29, x30, [sp, #-16]!", 0xA9BF7BFD);
    ("blr x9", 0xD63F0120);
    ("br x16", 0xD61F0200);
    ("svc #0", 0xD4000001);
    ("movz x5, #512", 0xD2804005);
    ("add x18, x21, w0, uxtw", 0x8B2042B2);
    ("ldr x3, [x21, w4, uxtw]", 0xF8644AA3);
    ("mul x0, x1, x2", 0x9B027C20);
    ("sdiv x3, x4, x5", 0x9AC50C83);
    ("cbz x0, .+8", 0xB4000040);
    ("b .+16", 0x14000004);
    ("bl .-4", 0x97FFFFFF);
    ("fadd d0, d1, d2", 0x1E622820);
    ("scvtf d1, x2", 0x9E620041);
    ("ldxr x0, [x1]", 0xC85F7C20);
    ("stxr w2, x3, [x4]", 0xC8027C83);
    ("and x0, x1, #255", 0x92401C20);
    ("smull x0, w1, w2", 0x9B227C20);
    ("umull x3, w4, w5", 0x9BA57C83);
    ("smaddl x0, w1, w2, x3", 0x9B220C20);
    ("umsubl x6, w7, w8, x9", 0x9BA8A4E6);
    ("ccmp x1, x2, #4, ne", 0xFA421024);
    ("ccmp w1, #5, #0, eq", 0x7A450820);
    ("ccmn x3, x4, #8, lt", 0xBA44B068);
  ]

let test_golden_encodings () =
  List.iter
    (fun (asm, word) ->
      match Isa.encode (parse asm) with
      | Ok w ->
          if w <> word then
            Alcotest.failf "%s: got %08X, want %08X" asm w word
      | Error e -> Alcotest.failf "%s: encode error %s" asm e)
    golden

let test_golden_decodings () =
  List.iter
    (fun (asm, word) ->
      let i = Isa.decode word in
      checks asm (Printer.to_string (parse asm)) (Printer.to_string i))
    golden

let test_encode_rejects () =
  List.iter
    (fun s ->
      match Isa.encode (parse s) with
      | Ok w -> Alcotest.failf "%S should not encode (got %08X)" s w
      | Error _ -> ())
    [
      "add x0, x1, #4096" (* imm12 overflow *);
      "and x0, x1, #77" (* not a bitmask immediate *);
      "ldr x0, [x1, #32768]" (* offset beyond scaled imm12 *);
      "ldp x0, x1, [x2, #4]" (* unaligned pair offset *);
      "b .+2" (* misaligned branch *);
      "movz x0, #65536";
      "tbz x0, #64, .+8";
      (* operands of mixed width set the shared sf or type bits twice *)
      "mul x0, w1, w2";
      "fmadd d0, s1, d2, d3";
      "madd x0, x1, w2, x3";
      "sdiv x0, w1, x2";
      "lsl x0, x1, w2";
      "csel x0, w1, x2, eq";
      "clz x0, w1";
      "rbit w0, x1";
      "rev x0, w1";
      "smulh x0, w1, x2";
      "extr x0, x1, w2, #3";
      "fmsub s0, s1, d2, s3";
      "fcmp d0, s1";
    ]

let test_decode_unknown () =
  (* SVE and other unsupported encodings must decode to Udf *)
  List.iter
    (fun w ->
      match Isa.decode w with
      | Insn.Udf _ -> ()
      | i -> Alcotest.failf "%08X decoded to %s" w (Printer.to_string i))
    [ 0xE5804000 (* SVE st1w *); 0x00000012; 0xFFFFFFFF;
      0x53281C20 (* ubfm w0, w1, #40, #7: 32-bit immr above 31 *);
      0x1E706240 (* fcmp d18, d16 with bit 14 set *) ]

let prop_encode_decode =
  QCheck.Test.make ~count:3000 ~name:"decode (encode i) = i"
    Gen.arbitrary_insn (fun i ->
      match Isa.encode i with
      | Error e ->
          QCheck.Test.fail_reportf "%s: encode error %s" (Printer.to_string i) e
      | Ok w -> (
          match Isa.decode w with
          | i2 when Insn.equal i i2 -> true
          | i2 ->
              QCheck.Test.fail_reportf "%s -> %08X -> %s"
                (Printer.to_string i) w (Printer.to_string i2)))

(* [f] and [g] applied to every general and FP register operand *)
let map_regs g f (i : Insn.t) : Insn.t =
  let open Insn in
  let addr = function
    | Imm_off (b, o) -> Imm_off (g b, o)
    | Pre (b, o) -> Pre (g b, o)
    | Post (b, o) -> Post (g b, o)
    | Reg_off (b, m, e, a) -> Reg_off (g b, g m, e, a)
  in
  match i with
  | Alu r ->
      let op2 =
        match r.op2 with
        | Imm _ as x -> x
        | Sh (m, k, a) -> Sh (g m, k, a)
        | Ext (m, e, a) -> Ext (g m, e, a)
      in
      Alu { r with dst = g r.dst; src = g r.src; op2 }
  | Shiftv r ->
      Shiftv { r with dst = g r.dst; src = g r.src; amount = g r.amount }
  | Mov r -> Mov { r with dst = g r.dst }
  | Bitfield r -> Bitfield { r with dst = g r.dst; src = g r.src }
  | Extr r -> Extr { r with dst = g r.dst; src1 = g r.src1; src2 = g r.src2 }
  | Madd r ->
      Madd { r with dst = g r.dst; src1 = g r.src1; src2 = g r.src2;
                    acc = g r.acc }
  | Smulh r -> Smulh { r with dst = g r.dst; src1 = g r.src1; src2 = g r.src2 }
  | Maddl r ->
      Maddl { r with dst = g r.dst; src1 = g r.src1; src2 = g r.src2;
                     acc = g r.acc }
  | Div r -> Div { r with dst = g r.dst; src1 = g r.src1; src2 = g r.src2 }
  | Csel r -> Csel { r with dst = g r.dst; src1 = g r.src1; src2 = g r.src2 }
  | Ccmp r ->
      let op2 = match r.op2 with CReg m -> CReg (g m) | c -> c in
      Ccmp { r with src = g r.src; op2 }
  | Cls r -> Cls { r with dst = g r.dst; src = g r.src }
  | Rbit r -> Rbit { dst = g r.dst; src = g r.src }
  | Rev r -> Rev { r with dst = g r.dst; src = g r.src }
  | Adr r -> Adr { r with dst = g r.dst }
  | Ldr r -> Ldr { r with dst = g r.dst; addr = addr r.addr }
  | Str r -> Str { r with src = g r.src; addr = addr r.addr }
  | Ldp r -> Ldp { r with r1 = g r.r1; r2 = g r.r2; addr = addr r.addr }
  | Stp r -> Stp { r with r1 = g r.r1; r2 = g r.r2; addr = addr r.addr }
  | Fldr r -> Fldr { dst = f r.dst; addr = addr r.addr }
  | Fstr r -> Fstr { src = f r.src; addr = addr r.addr }
  | Fldp r -> Fldp { r1 = f r.r1; r2 = f r.r2; addr = addr r.addr }
  | Fstp r -> Fstp { r1 = f r.r1; r2 = f r.r2; addr = addr r.addr }
  | Ldxr r -> Ldxr { r with dst = g r.dst; base = g r.base }
  | Stxr r ->
      Stxr { r with status = g r.status; src = g r.src; base = g r.base }
  | Ldar r -> Ldar { r with dst = g r.dst; base = g r.base }
  | Stlr r -> Stlr { r with src = g r.src; base = g r.base }
  | Cbz r -> Cbz { r with reg = g r.reg }
  | Tbz r -> Tbz { r with reg = g r.reg }
  | Br r -> Br (g r)
  | Blr r -> Blr (g r)
  | Ret r -> Ret (g r)
  | Fop2 r -> Fop2 { r with dst = f r.dst; src1 = f r.src1; src2 = f r.src2 }
  | Fop1 r -> Fop1 { r with dst = f r.dst; src = f r.src }
  | Fmadd r ->
      Fmadd { r with dst = f r.dst; src1 = f r.src1; src2 = f r.src2;
                     acc = f r.acc }
  | Fcmp r -> Fcmp { src1 = f r.src1; src2 = Option.map f r.src2 }
  | Fcvt r -> Fcvt { dst = f r.dst; src = f r.src }
  | Scvtf r -> Scvtf { r with dst = f r.dst; src = g r.src }
  | Fcvtzs r -> Fcvtzs { r with dst = g r.dst; src = f r.src }
  | Fmov_to_fp r -> Fmov_to_fp { dst = f r.dst; src = g r.src }
  | Fmov_from_fp r -> Fmov_from_fp { dst = g r.dst; src = f r.src }
  | Mrs r -> Mrs { r with dst = g r.dst }
  | Msr r -> Msr { r with src = g r.src }
  | (B _ | Bl _ | Bcond _ | Nop | Svc _ | Dmb | Udf _) as i -> i

(* An encodable instruction whose operands then each get an
   independently drawn width (or FP size), and now and then zr or sp in
   place of a numbered register. *)
let mixed_insn =
  QCheck.Gen.(
    pair Gen.insn int >|= fun (i, seed) ->
    let st = Random.State.make [| seed |] in
    let pick l = List.nth l (Random.State.int st (List.length l)) in
    let g r =
      let w = pick [ Reg.W32; Reg.W64 ] in
      match (Random.State.int st 8, r) with
      | 0, _ -> Reg.ZR w
      | 1, _ -> Reg.SP w
      | _, Reg.R (_, n) -> Reg.R (w, n)
      | _, r -> Reg.with_width w r
    in
    let f (x : Reg.Fp.t) =
      Reg.Fp.v (pick [ Reg.Fp.S; Reg.Fp.D; Reg.Fp.Q ]) x.Reg.Fp.n
    in
    map_regs g f i)

let prop_encode_total =
  QCheck.Test.make ~count:5000 ~name:"encode i = Ok w => decode w = i"
    (QCheck.make ~print:Printer.to_string mixed_insn) (fun i ->
      match Isa.encode i with
      | Error _ -> true
      | Ok w ->
          let i2 = Isa.decode w in
          Insn.equal i i2
          || QCheck.Test.fail_reportf "%s -> %08X -> %s" (Printer.to_string i)
               w (Printer.to_string i2))

(* The Arm pseudocode's DecodeBitMasks in 64 bits: bit j of the value
   is set iff (j mod esize + r) mod esize <= s.  None when reserved. *)
let bitmask_reference ~datasize ~n ~immr ~imms =
  let e = ref 32 in
  while !e > 0 && imms land !e <> 0 do e := !e / 2 done;
  let esize = if n = 1 then 64 else !e in
  let s = imms land (esize - 1) and r = immr land (esize - 1) in
  if esize < 2 || esize > datasize || s = esize - 1 then None
  else
    Some
      (List.fold_left
         (fun x j ->
           if (j mod esize + r) mod esize <= s then
             Int64.logor x (Int64.shift_left 1L j)
           else x)
         0L (List.init datasize Fun.id))

(* Every N:immr:imms at both widths: decode gives the reference value
   when it fits in 0..2^62-1 and fails otherwise, and what decodes
   re-encodes to fields that decode to it again. *)
let test_bitmask_exhaustive () =
  let fields = ref 0 in
  List.iter
    (fun (datasize, ns) ->
      List.iter
        (fun n ->
          for field = 0 to 4095 do
            incr fields;
            let immr = field lsr 6 and imms = field land 63 in
            let expect =
              match bitmask_reference ~datasize ~n ~immr ~imms with
              | Some x when Int64.shift_right_logical x 62 = 0L ->
                  Some (Int64.to_int x)
              | _ -> None
            in
            let got = Isa.decode_bitmask ~datasize ~n ~immr ~imms in
            let what = Printf.sprintf "%d-bit %d:%d:%d" datasize n immr imms in
            if got <> expect then Alcotest.failf "%s: wrong decoding" what;
            Option.iter
              (fun v ->
                match Isa.encode_bitmask ~datasize v with
                | Ok (n, immr, imms)
                  when Isa.decode_bitmask ~datasize ~n ~immr ~imms = got -> ()
                | _ -> Alcotest.failf "%s: %x does not re-encode" what v)
              got
          done)
        ns)
    [ (64, [ 0; 1 ]); (32, [ 0 ]) ];
  checki "fields" (2 * 64 * 64 + 64 * 64) !fields

(* ---------------- encoding golden ---------------- *)

(* test/encode_golden.txt pins the ISA as bytes, in three parts:
   - a fixed-seed draw from [Gen.insn] plus [golden_extra] (forms the
     generator does not draw), one line each: hex word and printed asm;
   - [golden_unencodable], each marked [error] (only Ok or Error is
     recorded, never the message);
   - one decode digest per op0 value (bits 28:25): the accepted count
     and an MD5 of the printed decodings of 2^16 seeded words of that
     op0 plus every single-bit flip of every golden word that lands
     there.  The flips probe the should-be-zero/one bits that the
     verifier's whitelist depends on.

   Regenerate (only deliberately: this redefines the ISA) with
   `make goldens`, which runs this executable with
   LFI_GOLDEN_OUT=$PWD/test/encode_golden.txt, and review
   `git diff test/`. *)

let golden_draws = 2500

let golden_extra =
  [
    "nop"; "dmb ish"; "svc #0"; "svc #65535"; "udf #0"; "udf #4660";
    "mrs x0, tpidr_el0"; "msr tpidr_el0, x1"; "mrs x2, scxtnum_el0";
    "msr fpcr, x3"; "add sp, sp, #16"; "sub sp, sp, #1, lsl #12"; "mov sp, x9";
    "mov x29, sp"; "mov w22, wsp"; "add sp, x21, x22";
    "add x0, sp, x1, uxtx #3"; "adds x0, sp, #1"; "cmp sp, #0";
    "and sp, x0, #255"; "orr x0, xzr, #1"; "tst x1, #3"; "tst w1, w2";
    "mvn x0, x1"; "neg w0, w1"; "negs x0, x1"; "add x0, x1, w2, sxtb #1";
    "sub x0, x1, x2, sxtx #4"; "adds w0, w1, w2, uxth #2";
    "str xzr, [sp, #8]"; "ldr x0, [sp, x1, lsl #3]"; "ldrsw x0, [x1, #-4]";
    "ldrb w0, [x1, x2]"; "ldr q0, [sp, #-16]!"; "stp q0, q1, [sp, #-32]!";
    "ret"; "ret x1"; "br x16"; "blr x9"; "b.al .+8"; "tbnz x1, #63, .-4";
    "tbz w0, #0, .+8"; "cset w0, eq"; "csetm x0, ne"; "cneg x0, x1, mi";
    "adr x0, .+0"; "adrp x1, .-4096"; "adrp x1, .+4294963200";
    "movk x0, #65535, lsl #48"; "movn w0, #0"; "smull x0, w1, w2";
    "umull x3, w4, w5"; "mneg x0, x1, x2"; "fcmp s0, #0.0";
    "fmov d0, d1"; "scvtf d0, w1"; "ucvtf s2, w3"; "fcvtzs w0, d1";
    "fcvtzu w4, s5"; "mul w0, w1, w2"; "fmadd s0, s1, s2, s3";
    "madd w0, w1, w2, w3"; "sdiv w3, w4, w5"; "lsl w0, w1, w2";
    "csel w0, w1, w2, eq"; "clz w0, w1"; "rbit w0, w1"; "rev w0, w1";
    "smulh x0, x1, x2"; "extr w0, w1, w2, #3"; "fmsub d0, d1, d2, d3";
    "fcmp d0, d1";
  ]

let golden_unencodable : Insn.t list =
  let r n = Reg.x n and w n = Reg.w n in
  List.map parse
    [
      "add x0, x1, #4096"; "and x0, x1, #77"; "ldr x0, [x1, #32768]";
      "ldp x0, x1, [x2, #4]"; "b .+2"; "movz x0, #65536";
      "tbz x0, #64, .+8"; "add x0, x1, #1, lsl #4"; "orr x0, x1, #0";
      "eor w0, w1, #-1"; "bic x0, x1, #1"; "movz w0, #1, lsl #32";
      "ubfm w0, w1, #32, #0"; "sbfm x0, x1, #0, #64";
      "extr w0, w1, w2, #32"; "ldr x0, [x1, #-257]"; "ldr x0, [x1, #256]!";
      "str w0, [x1], #-257"; "ldp x0, x1, [x2, #512]";
      "ldp w0, w1, [x2], #-260"; "ldr x0, [x1, x2, lsl #2]";
      "ldr w0, [x1, w2, sxtb]"; "ldr x0, [x1, w2, uxtw #1]";
      "strb w0, [x1, #4096]"; "b .+134217728"; "bl .-134217732";
      "b.eq .+1048576"; "cbz x0, .+1048576"; "tbz w0, #3, .+32768";
      "adr x0, .+1048576"; "adrp x0, .+4097"; "svc #65536"; "svc #-1";
      "udf #65536"; "mrs x0, nzcv"; "msr daif, x0"; "fadd q0, q1, q2";
      "fcvt d0, d1"; "fmov d0, w1"; "fmov s0, x1"; "ccmp x0, #32, #0, eq";
      "ccmp x0, x1, #16, eq"; "add x0, x1, x2, lsl #64";
      "add w0, w1, w2, lsl #32"; "add x0, x1, x2, ror #3";
      "add x0, x1, w2, uxtw #5"; "orr x0, x1, w2, uxtw";
      "smulh w0, w1, w2"; "smull w0, w1, w2"; "ldr x0, [xzr]";
      "add xzr, x1, #1"; "adds sp, x1, #1"; "orr sp, x1, x2";
      "ands sp, x1, #1"; "adr x0, label"; "b label"; "scvtf q0, x1";
      "fcmp q0, q1"; "ldr q0, [x1, #4097]"; "ldp q0, q1, [x0, #8]";
      "ldp s0, d1, [x0]";
    ]
  @ Insn.
      [
        Ldr { sz = X; signed = true; dst = r 0; addr = Imm_off (r 1, 0) };
        Str { sz = B; src = r 0; addr = Imm_off (r 1, 0) };
        Rev { bytes = 8; dst = w 0; src = w 1 };
        Rev { bytes = 3; dst = r 0; src = r 1 };
        Alu { op = ORR; flags = true; dst = r 0; src = r 1;
              op2 = Imm (1, 0) };
        Alu { op = EOR; flags = true; dst = r 0; src = r 1;
              op2 = Sh (r 2, Lsl, 0) };
        Fcvt { dst = Reg.Fp.v Reg.Fp.Q 0; src = Reg.Fp.v Reg.Fp.S 0 };
        Ldp { w = Reg.W64; r1 = r 0; r2 = r 1;
              addr = Reg_off (r 2, r 3, Uxtx, 0) };
      ]

let golden_population () =
  let rand = Random.State.make [| 0xE7C0; 21 |] in
  QCheck.Gen.generate ~rand ~n:golden_draws Gen.insn
  @ List.map parse golden_extra

(* xorshift32: a seeded word stream that does not depend on the
   standard library's generator *)
let xorshift32 x =
  let x = x lxor ((x lsl 13) land 0xFFFFFFFF) in
  let x = x lxor (x lsr 17) in
  x lxor ((x lsl 5) land 0xFFFFFFFF)

let decode_digest golden_words op0 =
  let buf = Buffer.create (1 lsl 22) in
  let n = ref 0 and accepted = ref 0 in
  let visit w =
    incr n;
    let i = Isa.decode w in
    (match i with Insn.Udf _ -> () | _ -> incr accepted);
    Buffer.add_string buf (Printer.to_string i);
    Buffer.add_char buf '\n'
  in
  let x = ref (0x2545F491 + op0) in
  for _ = 1 to 1 lsl 16 do
    x := xorshift32 !x;
    visit (!x land lnot (0xF lsl 25) lor (op0 lsl 25))
  done;
  List.iter
    (fun w ->
      for b = 0 to 31 do
        let f = w lxor (1 lsl b) in
        if (f lsr 25) land 0xF = op0 then visit f
      done)
    golden_words;
  Printf.sprintf "op0 %X: %d words, %d accepted, md5 %s" op0 !n !accepted
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let golden_line i =
  match Isa.encode i with
  | Ok w -> Printf.sprintf "%08X  %s" w (Printer.to_string i)
  | Error _ -> Printf.sprintf "error     %s" (Printer.to_string i)

let golden_lines () =
  let population = golden_population () in
  let words =
    List.map
      (fun i ->
        match Isa.encode i with
        | Ok w -> w
        | Error e -> failwith (Printer.to_string i ^ ": " ^ e))
      population
  in
  List.map golden_line (population @ golden_unencodable)
  @ List.init 16 (decode_digest words)

let write_encode_golden path =
  let oc = open_out path in
  List.iter (fun l -> output_string oc (l ^ "\n")) (golden_lines ());
  close_out oc;
  Printf.printf "wrote the encoding golden to %s\n%!" path


(* The first row of [w]'s bucket that decodes it. *)
let decoded_by w =
  List.concat_map
    (fun (op0s, rows) ->
      if List.mem ((w lsr 25) land 0xF) op0s then rows else [])
    Isa.table
  |> List.find_opt (fun (r : Isa.row) ->
         w land r.mask = r.fixed
         && match r.dec w with _ -> true | exception Isa.Reserved -> false)

(* the rows that decode the encodings of [insns] *)
let rows_hit insns =
  List.filter_map (fun i -> Result.to_option (Isa.encode i)) insns
  |> List.filter_map decoded_by

(* Every row's fixed mask and field masks are pairwise disjoint and
   cover all 32 bits, and every row decodes some golden word (no row is
   shadowed by an earlier one in its bucket). *)
let test_table_self_check () =
  let hit = rows_hit (golden_population ()) in
  List.iter
    (fun (_, rows) ->
      List.iter
        (fun (r : Isa.row) ->
          let cover =
            List.fold_left
              (fun acc (Isa.F f) ->
                let m = f.Isa.mask in
                if acc land m <> 0 then
                  Alcotest.failf "%s: field %08X overlaps" r.name m;
                acc lor m)
              r.mask r.fields
          in
          checki (r.name ^ " covers all 32 bits") 0xFFFFFFFF cover;
          checki (r.name ^ " fixed bits inside the mask") 0
            (r.fixed land lnot r.mask);
          checkb (r.name ^ " decodes a golden word") true (List.memq r hit))
        rows)
    Isa.table

(* Every row of the table decodes one of [row_draws] seeded draws of
   [Gen.insn], so a row the generator cannot fill fails here. *)
let row_draws = 10_000

let test_generator_rows () =
  let rand = Random.State.make [| 0x60E5; 30 |] in
  let hit = rows_hit (QCheck.Gen.generate ~rand ~n:row_draws Gen.insn) in
  List.iter
    (fun (_, rows) ->
      List.iter
        (fun (r : Isa.row) -> checkb (r.name ^ " drawn") true (List.memq r hit))
        rows)
    Isa.table

let test_encode_golden () =
  let expected = Golden.read_lines "encode_golden.txt" in
  let got = golden_lines () in
  checki "golden lines" (List.length expected) (List.length got);
  List.iteri
    (fun k (e, g) -> checks (Printf.sprintf "line %d" (k + 1)) e g)
    (List.combine expected got)

(* The population reaches every constructor and every addressing and
   operand form. *)
let test_golden_coverage () =
  let population = golden_population () in
  let ctor (i : Insn.t) =
    let r = Obj.repr i in
    if Obj.is_int r then -1 - (Obj.obj r : int) else Obj.tag r
  in
  let ctors = List.sort_uniq compare (List.map ctor population) in
  checki "constructors" 50 (List.length ctors);
  let open Insn in
  let forms =
    [
      ("imm", function Alu { op2 = Imm _; _ } -> true | _ -> false);
      ("ext", function Alu { op2 = Ext _; _ } -> true | _ -> false);
      ("ccmp reg", function Ccmp { op2 = CReg _; _ } -> true | _ -> false);
      ("ccmp imm", function Ccmp { op2 = CImm _; _ } -> true | _ -> false);
      ("fcmp zero", function Fcmp { src2 = None; _ } -> true | _ -> false);
    ]
    @ List.map
        (fun (name, k) ->
          ( name,
            function Alu { op2 = Sh (_, k', _); _ } -> k = k' | _ -> false ))
        [ ("lsl", Lsl); ("lsr", Lsr); ("asr", Asr); ("ror", Ror) ]
    @ List.concat_map
        (fun (name, ctor_of) ->
          List.map
            (fun (mode, p) ->
              ( name ^ " " ^ mode,
                fun i ->
                  match Insn.addr_of i with
                  | Some a -> ctor_of i && p a
                  | None -> false ))
            [
              ("offset", function Imm_off _ -> true | _ -> false);
              ("pre", function Pre _ -> true | _ -> false);
              ("post", function Post _ -> true | _ -> false);
              ("reg", function Reg_off _ -> true | _ -> false);
            ])
        [
          ("ldr", function Ldr _ -> true | _ -> false);
          ("str", function Str _ -> true | _ -> false);
          ("fldr", function Fldr _ -> true | _ -> false);
          ("fstr", function Fstr _ -> true | _ -> false);
        ]
  in
  List.iter
    (fun (name, p) -> checkb name true (List.exists p population))
    forms

(* ---------------- assembler ---------------- *)

let test_assemble_branches () =
  let img =
    Assemble.assemble_string
      "_start:\n\tb end\nmid:\n\tnop\n\tb mid\nend:\n\tret\n"
  in
  (* b end = +12, b mid = -4 *)
  let w0 = Int32.to_int (Bytes.get_int32_le img.Assemble.text 0) land 0xFFFFFFFF in
  let w2 = Int32.to_int (Bytes.get_int32_le img.Assemble.text 8) land 0xFFFFFFFF in
  checki "b end" 0x14000003 w0;
  checki "b mid" 0x17FFFFFF w2

let test_assemble_data () =
  let img =
    Assemble.assemble_string
      "_start:\n\tret\n.data\nvals:\n\t.quad 7\n\t.word 5\n\t.byte 1, 2\n\
       \t.asciz \"ab\"\nafter:\n\t.zero 4\n"
  in
  checki "text" 4 (Bytes.length img.Assemble.text);
  let q = Bytes.get_int64_le img.Assemble.data 0 in
  checkb "quad" true (Int64.equal q 7L);
  checki "word" 5 (Int32.to_int (Bytes.get_int32_le img.Assemble.data 8));
  checki "byte" 1 (Bytes.get_uint8 img.Assemble.data 12);
  checki "ascii" (Char.code 'a') (Bytes.get_uint8 img.Assemble.data 14);
  match Assemble.symbol_address img "after" with
  | Some a -> checki "after addr" (img.Assemble.data_origin + 17) a
  | None -> Alcotest.fail "no symbol 'after'"

let test_assemble_symbol_data () =
  (* .quad of a symbol stores its sandbox-relative address *)
  let img =
    Assemble.assemble_string
      "_start:\n\tret\n.data\nptr:\n\t.quad target\ntarget:\n\t.quad 0\n"
  in
  let stored = Int64.to_int (Bytes.get_int64_le img.Assemble.data 0) in
  checki "ptr value" (img.Assemble.data_origin + 8) stored

let test_assemble_adr () =
  let img =
    Assemble.assemble_string "_start:\n\tadr x0, msg\n\tret\n.data\nmsg:\n\t.byte 65\n"
  in
  (* adr offset = data_origin - origin *)
  match Assemble.symbol_address img "msg" with
  | Some a -> checkb "adr target" true (a = img.Assemble.data_origin)
  | None -> Alcotest.fail "no msg"

let test_assemble_errors () =
  let fails text =
    match Assemble.assemble_string text with
    | exception Assemble.Error _ -> ()
    | _ -> Alcotest.failf "should not assemble: %s" text
  in
  fails "_start:\n\tb missing\n";
  fails "dup:\ndup:\n\tret\n";
  fails "_start:\n\tadd x0, x1, #99999\n"

(* Malformed directive arguments fail closed: [Assemble.Error] naming
   the directive's item, never an escaped [Failure]. *)
let fails_at index text =
  match Assemble.assemble_string text with
  | exception Assemble.Error e -> checki "error index" index e.Assemble.index
  | _ -> Alcotest.failf "should not assemble: %s" text

(* items: _start, ret, .data, d, the directive *)
let test_bad_symbol_offset () =
  fails_at 4 "_start:\n\tret\n.data\nd:\n\t.quad d+bar\n"

let test_bad_double () = fails_at 4 "_start:\n\tret\n.data\nd:\n\t.double xyz\n"
let test_bad_float () = fails_at 4 "_start:\n\tret\n.data\nd:\n\t.float 1.0.0\n"

(* a parse error is an [Assemble.Error] too, carrying the source line *)
let test_parse_error () = fails_at 2 "_start:\n\tfrobnicate x0\n"

(* ---------------- layout ---------------- *)

let test_label_after_data () =
  let img =
    Assemble.assemble_string
      "_start:\n\tret\n.data\nd:\n\t.quad 1\n.text\nlate:\n\tret\n"
  in
  checki "text" 8 (Bytes.length img.Assemble.text);
  checkb "late" true
    (Assemble.symbol_address img "late" = Some (img.Assemble.origin + 4));
  checkb "d" true
    (Assemble.symbol_address img "d" = Some img.Assemble.data_origin)

(* the writable segment of [data], as ELF packaging lays it out:
   (file bytes, memory size) *)
let data_segment data =
  let img = Assemble.assemble_string ("_start:\n\tret\n.data\n" ^ data) in
  match
    List.find_opt
      (fun (s : Lfi_elf.Elf.segment) -> s.Lfi_elf.Elf.flags land Lfi_elf.Elf.pf_w <> 0)
      (Lfi_elf.Elf.of_image img).Lfi_elf.Elf.segments
  with
  | Some s -> (s.Lfi_elf.Elf.data, s.Lfi_elf.Elf.memsz)
  | None -> Alcotest.fail "no data segment"

let test_explicit_zero_tail () =
  (* the file keeps up to the last nonzero byte: the 5 *)
  let data, memsz = data_segment "\t.quad 5\n\t.quad 0\n\t.zero 4096\n" in
  checki "file bytes" 1 (Bytes.length data);
  checki "value" 5 (Bytes.get_uint8 data 0);
  checki "memsz" 4112 memsz

(* -1 also pins the sign byte: every byte of the quad is 0xff *)
let test_value_after_zero () =
  let data, memsz = data_segment "\t.quad 1\n\t.zero 8192\n\t.quad -1\n" in
  checki "file bytes" 8208 (Bytes.length data);
  checkb "last" true (Int64.equal (Bytes.get_int64_le data 8200) (-1L));
  checki "memsz" 8208 memsz

let test_align_after_init () =
  let data, memsz = data_segment "\t.byte 1\n\t.align 4\n" in
  checki "file bytes" 1 (Bytes.length data);
  checki "memsz" 16 memsz

(* BSS is a size, not bytes: a megabyte of trailing .zero allocates
   nothing, and the ELF file is the one the zero-filling assembler
   wrote (its MD5 was recorded from that assembler) *)
let test_bss_is_a_size () =
  let src =
    Lfi_arm64.Parser.parse_string_exn
      "_start:\n\tret\n.data\n\t.quad 1\n\t.zero 1048576\n"
  in
  let before = Gc.allocated_bytes () in
  let img = Assemble.assemble src in
  let allocated = Gc.allocated_bytes () -. before in
  checki "data bytes" 8 (Bytes.length img.Assemble.data);
  checki "data size" 1048584 img.Assemble.data_size;
  checkb (Printf.sprintf "allocated %.0f bytes" allocated) true
    (allocated < 65536.0);
  let elf = Lfi_elf.Elf.of_image img in
  (match List.rev elf.Lfi_elf.Elf.segments with
  | d :: _ ->
      checki "file bytes" 1 (Bytes.length d.Lfi_elf.Elf.data);
      checki "memsz" 1048584 d.Lfi_elf.Elf.memsz
  | [] -> Alcotest.fail "no segments");
  Alcotest.(check string) "elf md5" "61b6b9341ecce5dd07391e1d18d19f7b"
    (Digest.to_hex (Digest.bytes (Lfi_elf.Elf.write elf)))

(* data directives take full-width 64-bit constants *)
let test_full_width_constants () =
  let d text =
    (Assemble.assemble_string ("_start:\n\tret\n.data\n" ^ text)).Assemble.data
  in
  Alcotest.(check string) "quad all ones" (String.make 8 '\xff')
    (Bytes.to_string (d "\t.quad 0xFFFFFFFFFFFFFFFF\n"));
  Alcotest.(check string) "word all ones" (String.make 4 '\xff')
    (Bytes.to_string (d "\t.word 0xFFFFFFFF\n"))

(* a token that starts like a number must be one, not a symbol *)
let test_bad_integer () =
  match Assemble.assemble_string "_start:\n\tret\n.data\nd:\n\t.quad 12abc\n" with
  | exception Assemble.Error e ->
      checki "error index" 4 e.Assemble.index;
      Alcotest.(check string) "message" "bad integer \"12abc\"" e.Assemble.msg
  | _ -> Alcotest.fail ".quad 12abc should not assemble"

(* [insn_addresses] is the layout walk of [assemble]: each address holds
   the instruction's own encoding, across text-section data and
   alignment *)
let test_insn_addresses () =
  let text =
    "_start:\n\tnop\n\t.balign 16\n\tret\n\t.quad 3\n\t.byte 1\n\t.align 2\n\
     \tmovz x1, #9\n.data\n\t.quad 4\n.text\n\tb _start\n"
  in
  let src = Lfi_arm64.Parser.parse_string_exn text in
  let img = Assemble.assemble src in
  let pcs = Assemble.insn_addresses src in
  checkb "pcs" true
    (Array.to_list pcs = List.map (( + ) img.Assemble.origin) [ 0; 16; 32; 36 ]);
  List.iteri
    (fun k i ->
      let w =
        Int32.to_int (Bytes.get_int32_le img.Assemble.text (pcs.(k) - img.Assemble.origin))
        land 0xFFFFFFFF
      in
      match i with
      | Insn.B _ -> checki "b _start" 0x17FFFFF7 w
      | i -> checkb (Printer.to_string i) true (Isa.encode i = Ok w))
    (Lfi_arm64.Source.insns src)

let test_elf_roundtrip () =
  let img = Assemble.assemble_string "_start:\n\tret\n.data\nd:\n\t.quad 9\n" in
  let elf = Lfi_elf.Elf.of_image img in
  let written = Lfi_elf.Elf.write elf in
  let back = Lfi_elf.Elf.read written in
  checki "entry" elf.Lfi_elf.Elf.entry back.Lfi_elf.Elf.entry;
  checki "segments" 2 (List.length back.Lfi_elf.Elf.segments);
  (match Lfi_elf.Elf.text_segment back with
  | Some seg -> checkb "text" true (Bytes.equal seg.Lfi_elf.Elf.data img.Assemble.text)
  | None -> Alcotest.fail "no text segment");
  (* corrupt magic *)
  Bytes.set written 0 'X';
  match Lfi_elf.Elf.read written with
  | exception Lfi_elf.Elf.Bad_elf _ -> ()
  | _ -> Alcotest.fail "bad magic accepted"

let () =
  match Sys.getenv_opt "LFI_GOLDEN_OUT" with
  | Some path -> write_encode_golden path
  | None ->
  Alcotest.run "arm64"
    [
      ( "reg",
        [
          Alcotest.test_case "roundtrip" `Quick test_reg_roundtrip;
          Alcotest.test_case "invalid" `Quick test_reg_invalid;
          Alcotest.test_case "lr alias" `Quick test_reg_lr_alias;
          Alcotest.test_case "reserved" `Quick test_reserved;
          Alcotest.test_case "fp" `Quick test_fp_reg;
        ] );
      ( "insn",
        [
          Alcotest.test_case "writes" `Quick test_writes;
          Alcotest.test_case "writes sp" `Quick test_writes_sp;
          Alcotest.test_case "write queries allocate nothing" `Quick
            test_write_queries_allocate_nothing;
          QCheck_alcotest.to_alcotest prop_writes_queries;
          Alcotest.test_case "branch classes" `Quick test_branch_classes;
          Alcotest.test_case "access bytes" `Quick test_access_bytes;
        ] );
      ( "parser",
        [
          Alcotest.test_case "aliases" `Quick test_parse_aliases;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "file" `Quick test_parse_file;
          QCheck_alcotest.to_alcotest prop_print_parse;
        ] );
      ( "encode",
        [
          Alcotest.test_case "golden encodings" `Quick test_golden_encodings;
          Alcotest.test_case "golden decodings" `Quick test_golden_decodings;
          Alcotest.test_case "rejects" `Quick test_encode_rejects;
          Alcotest.test_case "golden" `Quick test_encode_golden;
          Alcotest.test_case "golden coverage" `Quick test_golden_coverage;
          Alcotest.test_case "table self-check" `Quick test_table_self_check;
          Alcotest.test_case "generator draws every row" `Quick
            test_generator_rows;
          QCheck_alcotest.to_alcotest prop_encode_total;
          Alcotest.test_case "unknown decodes to udf" `Quick test_decode_unknown;
          QCheck_alcotest.to_alcotest prop_encode_decode;
          Alcotest.test_case "bitmask exhaustive" `Quick test_bitmask_exhaustive;
        ] );
      ( "assemble",
        [
          Alcotest.test_case "branches" `Quick test_assemble_branches;
          Alcotest.test_case "data" `Quick test_assemble_data;
          Alcotest.test_case "symbol data" `Quick test_assemble_symbol_data;
          Alcotest.test_case "adr" `Quick test_assemble_adr;
          Alcotest.test_case "errors" `Quick test_assemble_errors;
          Alcotest.test_case "elf roundtrip" `Quick test_elf_roundtrip;
          Alcotest.test_case "bad symbol offset" `Quick test_bad_symbol_offset;
          Alcotest.test_case "bad double" `Quick test_bad_double;
          Alcotest.test_case "bad float" `Quick test_bad_float;
          Alcotest.test_case "parse error" `Quick test_parse_error;
          Alcotest.test_case "full-width constants" `Quick test_full_width_constants;
          Alcotest.test_case "bad integer" `Quick test_bad_integer;
        ] );
      ( "layout",
        [
          Alcotest.test_case "label after data" `Quick test_label_after_data;
          Alcotest.test_case "explicit zero tail" `Quick test_explicit_zero_tail;
          Alcotest.test_case "value after zero fill" `Quick test_value_after_zero;
          Alcotest.test_case "align after init" `Quick test_align_after_init;
          Alcotest.test_case "bss is a size" `Quick test_bss_is_a_size;
          Alcotest.test_case "insn addresses" `Quick test_insn_addresses;
        ] );
    ]
