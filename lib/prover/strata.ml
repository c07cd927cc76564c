(** Enumeration strata: deterministic candidate-word generators, one
    per instruction family the verifier reasons about
    (DESIGN.md §5i).

    Unlike the fuzzer, which samples mutations at random, each stratum
    sweeps the encoding fields that the verifier's rules actually
    branch on — register numbers (reserved vs. scratch), addressing
    modes, extend options, immediate buckets including every boundary
    value — so the accepted set of each instruction class is covered
    by construction.  The memory families are generated as raw words
    (covering mis-encodings and reserved patterns that no [Insn.t]
    value round-trips through); everything else is built with
    {!Lfi_arm64.Isa.encode} from instruction templates.

    [Smoke] keeps each grid small enough for a per-push CI gate;
    [Full] widens every register and immediate axis for the nightly
    run.  Both are fully deterministic: same tier, same word list. *)

open Lfi_arm64

type tier = Smoke | Full

let tier_name = function Smoke -> "smoke" | Full -> "full"

type stratum = { name : string; desc : string; words : tier -> int list }

(* ---- helpers ---- *)

let enc (i : Insn.t) : int list =
  match Isa.encode i with Ok w -> [ w ] | Error _ -> []

let cross (xs : 'a list) (f : 'a -> int list) : int list = List.concat_map f xs

let range_regs = function
  | Smoke -> [ 0; 2; 18; 21; 22; 24; 30; 31 ]
  | Full -> List.init 32 Fun.id

(* ---- raw load/store families ---- *)

(* register-offset: size(31:30) 111(29:27) V(26) 00(25:24) opc(23:22)
   1(21) Rm(20:16) option(15:13) S(12) 10(11:10) Rn(9:5) Rt(4:0) *)
let mem_guarded_words tier =
  let sizes, opcs, options, rms, rns, rts =
    match tier with
    | Smoke ->
        ( [ 2; 3 ], [ 0; 1 ], [ 0; 2; 3; 6; 7 ],
          [ 0; 18; 22; 30; 31 ], [ 0; 21; 28; 31 ], [ 0; 22; 31 ] )
    | Full ->
        ( [ 0; 1; 2; 3 ], [ 0; 1; 2; 3 ], [ 0; 1; 2; 3; 4; 5; 6; 7 ],
          List.init 32 Fun.id, List.init 32 Fun.id,
          [ 0; 1; 18; 21; 22; 23; 24; 29; 30; 31 ] )
  in
  cross sizes (fun size ->
      cross [ 0; 1 ] (fun v ->
          cross opcs (fun opc ->
              cross rms (fun rm ->
                  cross options (fun opt ->
                      cross [ 0; 1 ] (fun s ->
                          cross rns (fun rn ->
                              cross rts (fun rt ->
                                  [ (size lsl 30) lor (0b111 lsl 27)
                                    lor (v lsl 26) lor (opc lsl 22)
                                    lor (1 lsl 21) lor (rm lsl 16)
                                    lor (opt lsl 13) lor (s lsl 12)
                                    lor (0b10 lsl 10) lor (rn lsl 5)
                                    lor rt ]))))))))

(* scaled unsigned immediate: size 111 V 01 opc imm12(21:10) Rn Rt.
   imm12 = 4095 on a q register reaches 65520 bytes — past the guard
   margin, the overrun the verifier's imm_off_in_guard bound exists
   for. *)
let mem_imm_words tier =
  let sizes, opcs, imms, rns, rts =
    match tier with
    | Smoke ->
        ( [ 0; 2; 3 ], [ 0; 1; 2; 3 ], [ 0; 1; 8; 255; 2047; 4032; 4095 ],
          [ 0; 18; 21; 28; 31 ], [ 0; 30; 31 ] )
    | Full ->
        ( [ 0; 1; 2; 3 ], [ 0; 1; 2; 3 ],
          [ 0; 1; 2; 3; 7; 8; 63; 255; 511; 1023; 2047; 4032; 4094; 4095 ],
          [ 0; 1; 18; 21; 22; 23; 24; 28; 29; 30; 31 ],
          [ 0; 1; 22; 29; 30; 31 ] )
  in
  cross sizes (fun size ->
      cross [ 0; 1 ] (fun v ->
          cross opcs (fun opc ->
              cross imms (fun imm ->
                  cross rns (fun rn ->
                      cross rts (fun rt ->
                          [ (size lsl 30) lor (0b111 lsl 27) lor (v lsl 26)
                            lor (0b01 lsl 24) lor (opc lsl 22)
                            lor (imm lsl 10) lor (rn lsl 5) lor rt ]))))))


(* unscaled / pre / post: size 111 V 00 opc 0(21) imm9(20:12)
   mode(11:10) Rn Rt; mode 00=ldur/stur 01=post 11=pre *)
let mem_unscaled_words tier =
  let sizes, opcs, imms, rns, rts =
    match tier with
    | Smoke ->
        ( [ 0; 3 ], [ 0; 1; 2 ], [ 0; 8; 255; 256; 511 ],
          [ 0; 21; 28; 31 ], [ 0; 30; 31 ] )
    | Full ->
        ( [ 0; 1; 2; 3 ], [ 0; 1; 2; 3 ],
          [ 0; 1; 8; 16; 127; 255; 256; 384; 511 ],
          [ 0; 18; 21; 22; 23; 24; 28; 31 ], [ 0; 22; 29; 30; 31 ] )
  in
  cross sizes (fun size ->
      cross [ 0; 1 ] (fun v ->
          cross opcs (fun opc ->
              cross imms (fun imm ->
                  cross [ 0; 1; 2; 3 ] (fun mode ->
                      cross rns (fun rn ->
                          cross rts (fun rt ->
                              [ (size lsl 30) lor (0b111 lsl 27)
                                lor (v lsl 26) lor (opc lsl 22)
                                lor (imm lsl 12) lor (mode lsl 10)
                                lor (rn lsl 5) lor rt ])))))))

(* ---- Encode-built families ---- *)

let pair_words tier =
  let bases =
    match tier with
    | Smoke -> [ Reg.sp; Reg.x 21; Reg.x 18; Reg.x 0 ]
    | Full -> [ Reg.sp; Reg.x 21; Reg.x 18; Reg.x 23; Reg.x 24; Reg.x 0;
                Reg.x 28 ]
  in
  let imm7s = [ -64; -2; 0; 2; 63 ] in
  let gp =
    cross [ Reg.W64; Reg.W32 ] (fun w ->
        let scale = if w = Reg.W64 then 8 else 4 in
        let r1, r2 =
          if w = Reg.W64 then (Reg.x 0, Reg.x 1) else (Reg.w 0, Reg.w 1)
        in
        let pairs =
          [ (r1, r2); (Reg.with_width w (Reg.x 29), Reg.with_width w (Reg.x 30));
            (Reg.with_width w (Reg.x 22), r2) ]
        in
        cross bases (fun b ->
            cross imm7s (fun k ->
                cross pairs (fun (r1, r2) ->
                    cross
                      [ Insn.Imm_off (b, k * scale); Insn.Pre (b, k * scale);
                        Insn.Post (b, k * scale) ]
                      (fun addr ->
                        enc (Insn.Ldp { w; r1; r2; addr })
                        @ enc (Insn.Stp { w; r1; r2; addr }))))))
  in
  let fp =
    cross bases (fun b ->
        cross [ -64; 0; 63 ] (fun k ->
            cross [ Reg.Fp.v Reg.Fp.Q 0, Reg.Fp.v Reg.Fp.Q 1 ]
              (fun (r1, r2) ->
                cross
                  [ Insn.Imm_off (b, k * 16); Insn.Pre (b, k * 16);
                    Insn.Post (b, k * 16) ]
                  (fun addr ->
                    enc (Insn.Fldp { r1; r2; addr })
                    @ enc (Insn.Fstp { r1; r2; addr })))))
  in
  gp @ fp

let excl_words tier =
  let bases =
    match tier with
    | Smoke -> [ Reg.sp; Reg.x 21; Reg.x 18; Reg.x 0; Reg.x 28 ]
    | Full -> [ Reg.sp; Reg.x 21; Reg.x 18; Reg.x 23; Reg.x 24; Reg.x 0;
                Reg.x 22; Reg.x 28; Reg.x 30 ]
  in
  cross [ Insn.W, Reg.w 0; Insn.X, Reg.x 0; Insn.W, Reg.w 22;
          Insn.X, Reg.x 22 ]
    (fun (sz, r) ->
      cross bases (fun base ->
          enc (Insn.Ldxr { sz; dst = r; base })
          @ enc (Insn.Stxr { sz; status = Reg.w 5; src = r; base })
          @ enc (Insn.Ldar { sz; dst = r; base })
          @ enc (Insn.Stlr { sz; src = r; base })))

let alu_retag_words tier =
  let dsts =
    [ Reg.x 18; Reg.x 21; Reg.x 22; Reg.w 22; Reg.x 23; Reg.x 24;
      Reg.x 30; Reg.sp; Reg.x 0 ]
  in
  let srcs =
    match tier with
    | Smoke -> [ Reg.x 21; Reg.x 0; Reg.sp; Reg.x 18 ]
    | Full -> [ Reg.x 21; Reg.x 0; Reg.sp; Reg.x 18; Reg.x 22; Reg.x 30 ]
  in
  let op2s =
    [ Insn.Ext (Reg.w 0, Insn.Uxtw, 0); Insn.Ext (Reg.w 0, Insn.Uxtw, 2);
      Insn.Ext (Reg.w 30, Insn.Uxtw, 0); Insn.Ext (Reg.w 22, Insn.Uxtw, 0);
      Insn.Ext (Reg.x 22, Insn.Uxtx, 0); Insn.Ext (Reg.x 0, Insn.Uxtx, 0);
      Insn.Ext (Reg.w 0, Insn.Sxtw, 0); Insn.Imm (0, 0); Insn.Imm (8, 0);
      Insn.Imm (1023, 0); Insn.Imm (1024, 0); Insn.Imm (4095, 0);
      Insn.Imm (5, 12); Insn.Sh (Reg.x 1, Insn.Lsl, 0);
      Insn.Sh (Reg.x 1, Insn.Lsl, 3) ]
  in
  cross [ Insn.ADD; Insn.SUB ] (fun op ->
      cross [ false; true ] (fun flags ->
          cross dsts (fun dst ->
              cross srcs (fun src ->
                  cross op2s (fun op2 ->
                      enc (Insn.Alu { op; flags; dst; src; op2 }))))))

let branch_words tier =
  let offs = [ -4; 0; 4; 8; 12 ] in
  let direct =
    cross offs (fun d ->
        enc (Insn.B (Insn.Off d)) @ enc (Insn.Bl (Insn.Off d)))
    @ cross [ Insn.EQ; Insn.NE; Insn.LT; Insn.HI; Insn.AL ] (fun c ->
          cross [ 0; 8 ] (fun d -> enc (Insn.Bcond (c, Insn.Off d))))
    @ cross [ false; true ] (fun nz ->
          cross [ Reg.x 0; Reg.w 5; Reg.x 30 ] (fun reg ->
              cross [ 0; 8 ] (fun d ->
                  enc (Insn.Cbz { nz; reg; target = Insn.Off d })
                  @ enc
                      (Insn.Tbz
                         (* a bit below 32 tests the register's w form *)
                         { nz; reg = Reg.with_width Reg.W32 reg; bit = 3;
                           target = Insn.Off d }))))
  in
  (* br/blr/ret over every Rn, as raw words so Rn=31 (xzr) is covered *)
  let indirect =
    cross (range_regs tier) (fun n ->
        [ 0xD61F0000 lor (n lsl 5); 0xD63F0000 lor (n lsl 5);
          0xD65F0000 lor (n lsl 5) ])
  in
  direct @ indirect

let x30_words _tier =
  cross [ 0; 1; 3 ] (fun hw ->
      cross [ 0; 0xdead; 0xffff ] (fun imm ->
          enc (Insn.Mov { op = Insn.MOVZ; dst = Reg.x 30; imm; hw })
          @ enc (Insn.Mov { op = Insn.MOVK; dst = Reg.x 30; imm; hw })))
  @ cross [ 0; 8; 12; 16376; 16384; 32760 ] (fun k ->
        enc
          (Insn.Ldr
             { sz = Insn.X; signed = false; dst = Reg.x 30;
               addr = Insn.Imm_off (Reg.x 21, k) }))
  @ enc
      (Insn.Ldr
         { sz = Insn.X; signed = false; dst = Reg.x 30;
           addr = Insn.Imm_off (Reg.sp, 8) })
  @ enc
      (Insn.Alu
         { op = Insn.ADD; flags = false; dst = Reg.x 30; src = Reg.x 0;
           op2 = Insn.Imm (8, 0) })
  @ enc (Insn.Extr { dst = Reg.x 30; src1 = Reg.x 0; src2 = Reg.x 1; lsb = 4 })
  @ enc (Insn.Adr { page = false; dst = Reg.x 30; target = Insn.Off 0 })

let sp_words _tier =
  cross [ Insn.ADD; Insn.SUB ] (fun op ->
      cross [ (0, 0); (8, 0); (512, 0); (1023, 0); (1024, 0); (4095, 0);
              (1, 12); (5, 12); (4095, 12) ]
        (fun (v, sh) ->
          enc
            (Insn.Alu
               { op; flags = false; dst = Reg.sp; src = Reg.sp;
                 op2 = Insn.Imm (v, sh) })))
  @ enc
      (Insn.Alu
         { op = Insn.ADD; flags = false; dst = Reg.sp; src = Reg.x 21;
           op2 = Insn.Ext (Reg.x 22, Insn.Uxtx, 0) })
  @ enc
      (Insn.Alu
         { op = Insn.ADD; flags = false; dst = Reg.sp; src = Reg.x 21;
           op2 = Insn.Ext (Reg.x 0, Insn.Uxtx, 0) })
  @ enc
      (Insn.Alu
         { op = Insn.ADD; flags = false; dst = Reg.sp; src = Reg.sp;
           op2 = Insn.Ext (Reg.w 0, Insn.Uxtw, 0) })

let dp_misc_words tier =
  let dsts =
    match tier with
    | Smoke -> [ Reg.x 0; Reg.w 0; Reg.w 22; Reg.x 22; Reg.x 24 ]
    | Full ->
        [ Reg.x 0; Reg.w 0; Reg.w 22; Reg.x 22; Reg.x 18; Reg.x 21;
          Reg.x 23; Reg.x 24; Reg.x 30; Reg.w 30 ]
  in
  cross dsts (fun dst ->
      let w = Reg.width dst in
      let src = Reg.with_width w (Reg.x 1) in
      let src2 = Reg.with_width w (Reg.x 2) in
      cross [ Insn.MOVZ; Insn.MOVN; Insn.MOVK ] (fun op ->
          cross [ 0; 1 ] (fun hw ->
              enc (Insn.Mov { op; dst; imm = 0xbeef; hw })))
      @ enc (Insn.Bitfield { op = Insn.UBFM; dst; src; immr = 3; imms = 7 })
      @ enc
          (Insn.Csel
             { op = Insn.CSEL; dst; src1 = src; src2; cond = Insn.NE })
      @ enc (Insn.Shiftv { op = Insn.Lsl; dst; src; amount = src2 })
      @ enc (Insn.Madd { sub = false; dst; src1 = src; src2; acc = src })
      @ enc (Insn.Div { signed = true; dst; src1 = src; src2 })
      @ enc (Insn.Cls { count_zero = true; dst; src })
      @ enc (Insn.Rbit { dst; src })
      @ enc (Insn.Rev { bytes = 8; dst; src })
      @ enc (Insn.Fmov_from_fp { dst; src = Reg.Fp.v Reg.Fp.D 0 })
      @ enc (Insn.Fcvtzs { signed = true; dst; src = Reg.Fp.v Reg.Fp.D 0 })
      @ enc (Insn.Adr { page = false; dst; target = Insn.Off 16 }))
  @ enc
      (Insn.Fop2
         { op = Insn.FADD; dst = Reg.Fp.v Reg.Fp.D 0;
           src1 = Reg.Fp.v Reg.Fp.D 1; src2 = Reg.Fp.v Reg.Fp.D 2 })
  @ enc
      (Insn.Scvtf
         { signed = true; dst = Reg.Fp.v Reg.Fp.D 0; src = Reg.x 1 })
  @ enc (Insn.Ccmp
           { cmn = false; src = Reg.x 1; op2 = Insn.CImm 3; nzcv = 0;
             cond = Insn.NE })

let system_words _tier =
  enc (Insn.Svc 0) @ enc (Insn.Svc 1) @ enc Insn.Nop @ enc Insn.Dmb
  @ [ 0xD53B4200 (* mrs x0, nzcv *); 0xD51B4200 (* msr nzcv, x0 *);
      0x00000000; 0x0000DEAD; 0xFFFFFFFF; 0x1234ABCD ]

let all : stratum list =
  [ { name = "mem-guarded"; desc = "register-offset loads/stores";
      words = mem_guarded_words };
    { name = "mem-imm"; desc = "scaled unsigned-immediate loads/stores";
      words = mem_imm_words };
    { name = "mem-unscaled"; desc = "unscaled / pre / post indexed";
      words = mem_unscaled_words };
    { name = "mem-pair"; desc = "register pairs"; words = pair_words };
    { name = "mem-excl"; desc = "exclusives and acquire/release";
      words = excl_words };
    { name = "alu-retag"; desc = "guard forms and near-misses";
      words = alu_retag_words };
    { name = "branch"; desc = "direct and indirect branches";
      words = branch_words };
    { name = "x30-window"; desc = "x30 writes and their guard window";
      words = x30_words };
    { name = "sp-window"; desc = "sp drift, guard and anchors";
      words = sp_words };
    { name = "dp-misc"; desc = "data processing and FP moves";
      words = dp_misc_words };
    { name = "system"; desc = "system instructions and junk words";
      words = system_words } ]

let find name = List.find_opt (fun s -> s.name = name) all
