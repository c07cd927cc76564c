(** QCheck generators for the ARM64 instruction subset.

    [insn] generates only *encodable* instructions (operand widths and
    immediate ranges within what {!Lfi_arm64.Isa.encode} accepts), so the
    round-trip properties [decode (encode i) = i] and
    [parse (print i) = i] can require success rather than skip.

    Promoted from [test/gen.ml] so that the fuzzing subsystem
    ({!Equiv}, {!Soundness}, {!Complete}) can draw from the same
    distribution as the unit tests.  This version also covers the
    instruction forms the original skipped: FP loads/stores and pairs
    (including [q] registers), store-exclusive / load-acquire /
    store-release, [extr], [rev]/[rev16]/[rev32], [adr]/[adrp],
    [smulh]/[umulh], [clz], the [fmov] register moves, [fcvt]
    precision conversion, and the [sxtx] register-offset addressing
    mode. *)

open Lfi_arm64
module G = QCheck.Gen

let reg_num = G.int_range 0 30
let width = G.oneofl [ Reg.W32; Reg.W64 ]

let greg w = G.map (fun n -> Reg.R (w, n)) reg_num

let greg_or_zr w =
  G.frequency [ (8, greg w); (1, G.return (Reg.ZR w)) ]

let xreg = greg Reg.W64

let fp_size = G.oneofl [ Reg.Fp.S; Reg.Fp.D ]

(** All three FP sizes; [q] registers are only encodable in FP
    loads/stores and pairs. *)
let fp_size3 = G.oneofl [ Reg.Fp.S; Reg.Fp.D; Reg.Fp.Q ]

let fpreg size = G.map (fun n -> Reg.Fp.v size n) (G.int_range 0 31)

let fp_size_bytes = function Reg.Fp.S -> 4 | Reg.Fp.D -> 8 | Reg.Fp.Q -> 16

let cond =
  G.oneofl
    Insn.[ EQ; NE; CS; CC; MI; PL; VS; VC; HI; LS; GE; LT; GT; LE ]

let target = G.map (fun n -> Insn.Off (n * 4)) (G.int_range (-1000) 1000)

(* Valid logical immediate: generate from (esize, run length, rotation)
   and decode the value; restrict to patterns representable in an OCaml
   int (bit 62 clear). *)
let bitmask_imm datasize =
  let open G in
  oneofl [ 2; 4; 8; 16; 32 ] >>= fun esize ->
  if esize > datasize then return 1
  else
    int_range 1 (esize - 1) >>= fun ones ->
    int_range 0 (esize - 1) >>= fun rot ->
    let run = (1 lsl ones) - 1 in
    let elt = Isa.ror_e esize run rot in
    let rec replicate acc i =
      if i >= datasize then acc else replicate (acc lor (elt lsl i)) (i + esize)
    in
    let v = replicate 0 0 in
    if v > 0 && v < 1 lsl 62 then return v else return 1

let alu_op = G.oneofl Insn.[ ADD; SUB; AND; ORR; EOR; BIC; ORN; EON ]

let alu =
  let open G in
  width >>= fun w ->
  let bits = match w with Reg.W64 -> 64 | Reg.W32 -> 32 in
  alu_op >>= fun op ->
  bool >>= fun flags ->
  let flags =
    (* flags only encodable for add/sub/and/bic *)
    match op with
    | Insn.ADD | Insn.SUB | Insn.AND | Insn.BIC -> flags
    | _ -> false
  in
  frequency
    [
      ( 3,
        (* immediate *)
        match op with
        | Insn.ADD | Insn.SUB ->
            pair (int_range 0 4095) (oneofl [ 0; 12 ]) >>= fun (v, sh) ->
            return (Insn.Imm (v, sh))
        | Insn.AND | Insn.ORR | Insn.EOR when not flags ->
            map (fun v -> Insn.Imm (v, 0)) (bitmask_imm bits)
        | Insn.AND ->
            map (fun v -> Insn.Imm (v, 0)) (bitmask_imm bits)
        | _ ->
            (* no immediate form: fall back to register *)
            map (fun r -> Insn.Sh (r, Insn.Lsl, 0)) (greg w) );
      ( 4,
        pair (greg_or_zr w)
          (pair
             (match op with
             | Insn.ADD | Insn.SUB -> oneofl Insn.[ Lsl; Lsr; Asr ]
             | _ -> oneofl Insn.[ Lsl; Lsr; Asr; Ror ])
             (int_range 0 (bits - 1)))
        >>= fun (r, (k, a)) -> return (Insn.Sh (r, k, a)) );
      ( 2,
        match op with
        | Insn.ADD | Insn.SUB ->
            (match w with
            | Reg.W64 ->
                pair (greg_or_zr Reg.W32)
                  (oneofl Insn.[ Uxtw; Sxtw; Uxtb; Uxth; Sxtb; Sxth ])
            | Reg.W32 ->
                pair (greg_or_zr Reg.W32)
                  (oneofl Insn.[ Uxtw; Sxtw; Uxtb; Uxth; Sxtb; Sxth ]))
            >>= fun (r, e) ->
            int_range 0 4 >>= fun a -> return (Insn.Ext (r, e, a))
        | _ -> map (fun r -> Insn.Sh (r, Insn.Lsl, 0)) (greg w) );
    ]
  >>= fun op2 ->
  (* zr-only positions for register forms; sp positions depend on the
     form — keep it simple and use numbered registers everywhere *)
  pair (greg w) (greg w) >>= fun (dst, src) ->
  let dst =
    (* flags=false imm/ext forms could use SP, but numbered is always
       valid *)
    dst
  in
  return (Insn.Alu { op; flags; dst; src; op2 })

let mem_sizes : Insn.mem_size list = [ B; H; W; X ]
let mem_size = G.oneofl mem_sizes

let addr_mode =
  let open G in
  frequency
    [
      (3, map (fun b -> Insn.Imm_off (b, 0)) xreg);
      ( 4,
        pair xreg (int_range 0 510) >>= fun (b, o) ->
        return (Insn.Imm_off (b, o * 8)) );
      ( 2,
        pair xreg (int_range (-255) 255) >>= fun (b, o) ->
        return (Insn.Imm_off (b, o)) );
      (2, pair xreg (int_range (-255) 255) >>= fun (b, o) -> return (Insn.Pre (b, o)));
      (2, pair xreg (int_range (-255) 255) >>= fun (b, o) -> return (Insn.Post (b, o)));
    ]

let reg_off_addr scale =
  let open G in
  pair xreg (greg Reg.W64) >>= fun (b, m) ->
  oneofl [ 0; scale ] >>= fun a ->
  frequency
    [
      (2, return (Insn.Reg_off (b, m, Insn.Uxtx, a)));
      (1, return (Insn.Reg_off (b, m, Insn.Sxtx, a)));
      ( 2,
        map
          (fun m32 -> Insn.Reg_off (b, m32, Insn.Uxtw, a))
          (greg Reg.W32) );
      ( 1,
        map
          (fun m32 -> Insn.Reg_off (b, m32, Insn.Sxtw, a))
          (greg Reg.W32) );
    ]

let load =
  let open G in
  mem_size >>= fun sz ->
  bool >>= fun signed ->
  let scale = match sz with Insn.B -> 0 | Insn.H -> 1 | Insn.W -> 2 | Insn.X -> 3 in
  frequency [ (3, addr_mode); (2, reg_off_addr scale) ] >>= fun addr ->
  (* align scaled immediates to the access size *)
  let addr =
    match addr with
    | Insn.Imm_off (b, o) when o > 255 -> Insn.Imm_off (b, o / (1 lsl scale) * (1 lsl scale))
    | a -> a
  in
  match (sz, signed) with
  | Insn.X, _ -> return (Insn.Ldr { sz; signed = false; dst = Reg.R (Reg.W64, 0); addr })
  | Insn.W, true ->
      map (fun n -> Insn.Ldr { sz; signed = true; dst = Reg.R (Reg.W64, n); addr }) reg_num
  | Insn.W, false ->
      map (fun n -> Insn.Ldr { sz; signed = false; dst = Reg.R (Reg.W32, n); addr }) reg_num
  | (Insn.B | Insn.H), true ->
      pair reg_num width >>= fun (n, w) ->
      return (Insn.Ldr { sz; signed = true; dst = Reg.R (w, n); addr })
  | (Insn.B | Insn.H), false ->
      map (fun n -> Insn.Ldr { sz; signed = false; dst = Reg.R (Reg.W32, n); addr }) reg_num

let store =
  let open G in
  mem_size >>= fun sz ->
  let scale = match sz with Insn.B -> 0 | Insn.H -> 1 | Insn.W -> 2 | Insn.X -> 3 in
  frequency [ (3, addr_mode); (2, reg_off_addr scale) ] >>= fun addr ->
  let addr =
    match addr with
    | Insn.Imm_off (b, o) when o > 255 -> Insn.Imm_off (b, o / (1 lsl scale) * (1 lsl scale))
    | a -> a
  in
  let w = match sz with Insn.X -> Reg.W64 | _ -> Reg.W32 in
  map (fun n -> Insn.Str { sz; src = Reg.R (w, n); addr }) reg_num

let pair_insn =
  let open G in
  width >>= fun w ->
  let unit = match w with Reg.W64 -> 8 | Reg.W32 -> 4 in
  pair (greg w) (greg w) >>= fun (r1, r2) ->
  pair xreg (int_range (-60) 60) >>= fun (b, o) ->
  oneofl
    [ Insn.Imm_off (b, o * unit); Insn.Pre (b, o * unit); Insn.Post (b, o * unit) ]
  >>= fun addr ->
  bool >>= fun ld ->
  if ld then return (Insn.Ldp { w; r1; r2; addr })
  else return (Insn.Stp { w; r1; r2; addr })

(** FP load/store of one register: scaled immediates, unscaled
    immediates, pre/post indexing and all four register-offset
    extensions, for [s]/[d]/[q] registers. *)
let fp_mem =
  let open G in
  fp_size3 >>= fun sz ->
  let unit = fp_size_bytes sz in
  let scale = match sz with Reg.Fp.S -> 2 | Reg.Fp.D -> 3 | Reg.Fp.Q -> 4 in
  frequency
    [
      (3, map (fun b -> Insn.Imm_off (b, 0)) xreg);
      ( 3,
        pair xreg (int_range 0 255) >>= fun (b, o) ->
        return (Insn.Imm_off (b, o * unit)) );
      ( 2,
        pair xreg (int_range (-255) 255) >>= fun (b, o) ->
        return (Insn.Imm_off (b, o)) );
      (1, pair xreg (int_range (-255) 255) >>= fun (b, o) -> return (Insn.Pre (b, o)));
      (1, pair xreg (int_range (-255) 255) >>= fun (b, o) -> return (Insn.Post (b, o)));
      (2, reg_off_addr scale);
    ]
  >>= fun addr ->
  pair (fpreg sz) bool >>= fun (r, ld) ->
  if ld then return (Insn.Fldr { dst = r; addr })
  else return (Insn.Fstr { src = r; addr })

(** FP load/store pair for [s]/[d]/[q] registers (7-bit signed scaled
    immediate). *)
let fp_pair =
  let open G in
  fp_size3 >>= fun sz ->
  let unit = fp_size_bytes sz in
  pair (fpreg sz) (fpreg sz) >>= fun (r1, r2) ->
  pair xreg (int_range (-60) 60) >>= fun (b, o) ->
  oneofl
    [ Insn.Imm_off (b, o * unit); Insn.Pre (b, o * unit); Insn.Post (b, o * unit) ]
  >>= fun addr ->
  bool >>= fun ld ->
  if ld then return (Insn.Fldp { r1; r2; addr })
  else return (Insn.Fstp { r1; r2; addr })

(** LL/SC and acquire/release: ldxr/stxr/ldar/stlr.  The transfer
    register width follows the access size; stxr's status register is
    always 32-bit. *)
let excl =
  let open G in
  mem_size >>= fun sz ->
  let w = if sz = Insn.X then Reg.W64 else Reg.W32 in
  pair (greg w) xreg >>= fun (r, base) ->
  oneof
    [
      return (Insn.Ldxr { sz; dst = r; base });
      map
        (fun status -> Insn.Stxr { sz; status; src = r; base })
        (greg Reg.W32);
      return (Insn.Ldar { sz; dst = r; base });
      return (Insn.Stlr { sz; src = r; base });
    ]

let misc =
  let open G in
  oneof
    [
      (width >>= fun w ->
       pair (greg w) (pair (int_range 0 65535) (int_range 0 (match w with Reg.W64 -> 3 | _ -> 1)))
       >>= fun (dst, (imm, hw)) ->
       oneofl Insn.[ MOVZ; MOVN; MOVK ] >>= fun op ->
       return (Insn.Mov { op; dst; imm; hw }));
      (width >>= fun w ->
       let bits = match w with Reg.W64 -> 64 | _ -> 32 in
       pair (greg w) (greg w) >>= fun (dst, src) ->
       pair (int_range 0 (bits - 1)) (int_range 0 (bits - 1))
       >>= fun (immr, imms) ->
       oneofl Insn.[ UBFM; SBFM; BFM ] >>= fun op ->
       return (Insn.Bitfield { op; dst; src; immr; imms }));
      (width >>= fun w ->
       G.quad (greg w) (greg w) (greg w) (greg_or_zr w)
       >>= fun (dst, src1, src2, acc) ->
       bool >>= fun sub -> return (Insn.Madd { sub; dst; src1; src2; acc }));
      (width >>= fun w ->
       G.triple (greg w) (greg w) (greg w) >>= fun (dst, src1, src2) ->
       bool >>= fun signed -> return (Insn.Div { signed; dst; src1; src2 }));
      (width >>= fun w ->
       G.quad (greg w) (greg w) (greg w) cond
       >>= fun (dst, src1, src2, c) ->
       oneofl Insn.[ CSEL; CSINC; CSINV; CSNEG ] >>= fun op ->
       return (Insn.Csel { op; dst; src1; src2; cond = c }));
      (width >>= fun w ->
       G.quad (greg w) bool (int_range 0 15) cond
       >>= fun (src, cmn, nzcv, c) ->
       frequency
         [ (1, map (fun r -> Insn.CReg r) (greg w));
           (1, map (fun v -> Insn.CImm v) (int_range 0 31)) ]
       >>= fun op2 -> return (Insn.Ccmp { cmn; src; op2; nzcv; cond = c }));
      (G.quad bool bool (pair reg_num reg_num) (pair reg_num reg_num)
       >>= fun (signed, sub, (d, a), (s1, s2)) ->
       return
         (Insn.Maddl
            { signed; sub; dst = Reg.R (Reg.W64, d);
              src1 = Reg.R (Reg.W32, s1); src2 = Reg.R (Reg.W32, s2);
              acc = Reg.R (Reg.W64, a) }));
      (width >>= fun w ->
       G.triple (greg w) (greg w) (oneofl Insn.[ Lsl; Lsr; Asr; Ror ])
       >>= fun (dst, src, op) ->
       map (fun amount -> Insn.Shiftv { op; dst; src; amount }) (greg w));
      (width >>= fun w ->
       pair (greg w) (greg w) >>= fun (dst, src) ->
       bool >>= fun count_zero ->
       return (Insn.Cls { count_zero; dst; src }));
      map (fun (dst, src) -> Insn.Rbit { dst; src })
        (width >>= fun w -> G.pair (greg w) (greg w));
    ]

(** The instruction forms the original generator skipped: extr, the
    byte-reverses, pc-relative addresses, high multiplies, fmov
    register moves and fcvt. *)
let misc2 =
  let open G in
  oneof
    [
      (width >>= fun w ->
       let bits = match w with Reg.W64 -> 64 | _ -> 32 in
       G.triple (greg w) (greg w) (greg w) >>= fun (dst, src1, src2) ->
       map (fun lsb -> Insn.Extr { dst; src1; src2; lsb })
         (int_range 0 (bits - 1)));
      (width >>= fun w ->
       pair (greg w) (greg w) >>= fun (dst, src) ->
       (match w with
       | Reg.W64 -> oneofl [ 2; 4; 8 ]
       | Reg.W32 -> oneofl [ 2; 4 ])
       >>= fun bytes -> return (Insn.Rev { bytes; dst; src }));
      (pair xreg bool >>= fun (dst, page) ->
       (* adr reaches +-1MiB; adrp +-4GiB in whole pages *)
       (if page then map (fun n -> n * 4096) (int_range (-100_000) 100_000)
        else int_range (-(1 lsl 20) + 1) ((1 lsl 20) - 1))
       >>= fun off -> return (Insn.Adr { page; dst; target = Insn.Off off }));
      (G.triple (greg Reg.W64) (greg Reg.W64) (greg Reg.W64)
       >>= fun (dst, src1, src2) ->
       bool >>= fun signed ->
       return (Insn.Smulh { signed; dst; src1; src2 }));
      (pair (fpreg Reg.Fp.D) xreg >>= fun (d, s) ->
       return (Insn.Fmov_to_fp { dst = d; src = s }));
      (pair (fpreg Reg.Fp.S) (greg Reg.W32) >>= fun (d, s) ->
       return (Insn.Fmov_to_fp { dst = d; src = s }));
      (pair xreg (fpreg Reg.Fp.D) >>= fun (d, s) ->
       return (Insn.Fmov_from_fp { dst = d; src = s }));
      (pair (greg Reg.W32) (fpreg Reg.Fp.S) >>= fun (d, s) ->
       return (Insn.Fmov_from_fp { dst = d; src = s }));
      (pair (fpreg Reg.Fp.S) (fpreg Reg.Fp.D) >>= fun (s32, d64) ->
       bool >>= fun up ->
       return
         (if up then Insn.Fcvt { dst = d64; src = s32 }
          else Insn.Fcvt { dst = s32; src = d64 }));
    ]

let branch =
  let open G in
  oneof
    [
      map (fun t -> Insn.B t) target;
      map (fun t -> Insn.Bl t) target;
      (pair cond target >>= fun (c, t) -> return (Insn.Bcond (c, t)));
      (G.triple bool xreg target >>= fun (nz, r, t) ->
       return (Insn.Cbz { nz; reg = r; target = t }));
      (G.quad bool reg_num (int_range 0 63) target >>= fun (nz, rn, b, t) ->
       let w = if b >= 32 then Reg.W64 else Reg.W32 in
       return (Insn.Tbz { nz; reg = Reg.R (w, rn); bit = b; target = t }));
      map (fun r -> Insn.Br r) xreg;
      map (fun r -> Insn.Blr r) xreg;
      map (fun r -> Insn.Ret r) xreg;
    ]

let fp =
  let open G in
  fp_size >>= fun sz ->
  oneof
    [
      (G.triple (fpreg sz) (fpreg sz) (fpreg sz) >>= fun (d, a, b) ->
       oneofl Insn.[ FADD; FSUB; FMUL; FDIV; FMIN; FMAX ] >>= fun op ->
       return (Insn.Fop2 { op; dst = d; src1 = a; src2 = b }));
      (pair (fpreg sz) (fpreg sz) >>= fun (d, a) ->
       oneofl Insn.[ FNEG; FABS; FSQRT; FMOV ] >>= fun op ->
       return (Insn.Fop1 { op; dst = d; src = a }));
      (G.quad (fpreg sz) (fpreg sz) (fpreg sz) (fpreg sz)
       >>= fun (d, a, b, c) ->
       bool >>= fun sub ->
       return (Insn.Fmadd { sub; dst = d; src1 = a; src2 = b; acc = c }));
      (pair (fpreg sz) (fpreg sz) >>= fun (a, b) ->
       bool >>= fun zero ->
       return (Insn.Fcmp { src1 = a; src2 = (if zero then None else Some b) }));
      (pair (fpreg sz) xreg >>= fun (d, s) ->
       bool >>= fun signed -> return (Insn.Scvtf { signed; dst = d; src = s }));
      (pair xreg (fpreg sz) >>= fun (d, s) ->
       bool >>= fun signed -> return (Insn.Fcvtzs { signed; dst = d; src = s }));
    ]

(** The main generator: any encodable instruction of the subset. *)
let insn : Insn.t G.t =
  G.frequency
    [
      (5, alu);
      (4, load);
      (3, store);
      (2, pair_insn);
      (2, fp_mem);
      (1, fp_pair);
      (3, misc);
      (2, misc2);
      (2, branch);
      (2, fp);
      (1, G.return Insn.Nop);
      (1, excl);
    ]

let arbitrary_insn =
  QCheck.make ~print:Printer.to_string insn

(* ------------------------------------------------------------------ *)
(* Straight-line streams for differential execution (DESIGN.md §5d)   *)
(* ------------------------------------------------------------------ *)

(* The equivalence engine runs the same stream natively and rewritten,
   at a different sandbox base, and compares architectural state — so
   a stream instruction must never produce a value that legitimately
   depends on the load address.  Data registers are drawn from a pool
   that excludes the scheme's reserved registers (x18, x21-x24), the
   link register, and the two address registers the stream's memory
   accesses go through: x19 (always holds a pointer into the data
   section) and x20 (a small index).  pc-relative [adr] and branches
   are excluded. *)

let stream_pool = [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12; 13; 14; 15; 16; 17; 25; 26; 27; 28; 29 ]

let in_stream_pool (i : Insn.t) =
  (match i with
  | Insn.Adr _ -> false (* value depends on the load address *)
  | _ -> true)
  && (not (Insn.is_branch i))
  && (not (Insn.writes_sp i))
  && List.for_all
       (fun r ->
         match Reg.number_of r with
         | Some n -> List.mem n stream_pool
         | None -> (match r with Reg.ZR _ -> true | _ -> false))
       (Insn.regs_mentioned i)

(** Rejection-sample [g] until [pred] holds (the generators above hit
    a 23-of-31 register pool within a few tries). *)
let rec such_that pred g : 'a G.t =
 fun rand ->
  let v = g rand in
  if pred v then v else such_that pred g rand

let x19 = Reg.R (Reg.W64, 19)
let w20 = Reg.R (Reg.W32, 20)
let x20 = Reg.R (Reg.W64, 20)

(** Addressing through the stream's pointer register x19 (optionally
    indexed by x20, which holds a small constant).  Offsets are kept
    small enough that x19's pre/post drift over a whole stream stays
    well inside the data section. *)
let stream_addr scale =
  let open G in
  let unit = 1 lsl scale in
  frequency
    [
      (2, return (Insn.Imm_off (x19, 0)));
      (3, map (fun o -> Insn.Imm_off (x19, o * unit)) (int_range 0 120));
      (2, map (fun o -> Insn.Imm_off (x19, o)) (int_range (-255) 255));
      (1, map (fun o -> Insn.Pre (x19, o)) (int_range (-128) 128));
      (1, map (fun o -> Insn.Post (x19, o)) (int_range (-128) 128));
      ( 2,
        oneofl [ 0; scale ] >>= fun a ->
        oneofl
          [
            Insn.Reg_off (x19, x20, Insn.Uxtx, a);
            Insn.Reg_off (x19, x20, Insn.Sxtx, a);
            Insn.Reg_off (x19, w20, Insn.Uxtw, a);
            Insn.Reg_off (x19, w20, Insn.Sxtw, a);
          ] );
    ]

let stream_dreg w = G.map (fun n -> Reg.R (w, n)) (G.oneofl stream_pool)

let stream_mem =
  let open G in
  let scale_of (sz : Insn.mem_size) =
    match sz with Insn.B -> 0 | Insn.H -> 1 | Insn.W -> 2 | Insn.X -> 3
  in
  oneof
    [
      (* scalar load *)
      ( mem_size >>= fun sz ->
        stream_addr (scale_of sz) >>= fun addr ->
        bool >>= fun signed ->
        match (sz, signed) with
        | Insn.X, _ ->
            map (fun d -> Insn.Ldr { sz; signed = false; dst = d; addr })
              (stream_dreg Reg.W64)
        | Insn.W, true ->
            map (fun d -> Insn.Ldr { sz; signed = true; dst = d; addr })
              (stream_dreg Reg.W64)
        | _, true ->
            pair (stream_dreg Reg.W32) (stream_dreg Reg.W64) >>= fun (d32, d64) ->
            oneofl [ Insn.Ldr { sz; signed = true; dst = d32; addr };
                     Insn.Ldr { sz; signed = true; dst = d64; addr } ]
        | _, false ->
            map (fun d -> Insn.Ldr { sz; signed = false; dst = d; addr })
              (stream_dreg Reg.W32) );
      (* scalar store *)
      ( mem_size >>= fun sz ->
        stream_addr (scale_of sz) >>= fun addr ->
        let w = if sz = Insn.X then Reg.W64 else Reg.W32 in
        map (fun s -> Insn.Str { sz; src = s; addr }) (stream_dreg w) );
      (* integer pair *)
      ( width >>= fun w ->
        let unit = match w with Reg.W64 -> 8 | Reg.W32 -> 4 in
        pair (stream_dreg w) (stream_dreg w) >>= fun (r1, r2) ->
        pair (int_range (-16) 16) bool >>= fun (o, ld) ->
        oneofl
          [ Insn.Imm_off (x19, o * unit); Insn.Pre (x19, o * unit);
            Insn.Post (x19, o * unit) ]
        >>= fun addr ->
        if ld then return (Insn.Ldp { w; r1; r2; addr })
        else return (Insn.Stp { w; r1; r2; addr }) );
      (* fp load/store *)
      ( fp_size3 >>= fun sz ->
        let scale =
          match sz with Reg.Fp.S -> 2 | Reg.Fp.D -> 3 | Reg.Fp.Q -> 4
        in
        stream_addr scale >>= fun addr ->
        pair (fpreg sz) bool >>= fun (r, ld) ->
        if ld then return (Insn.Fldr { dst = r; addr })
        else return (Insn.Fstr { src = r; addr }) );
      (* fp pair *)
      ( fp_size3 >>= fun sz ->
        let unit = fp_size_bytes sz in
        pair (fpreg sz) (fpreg sz) >>= fun (r1, r2) ->
        pair (int_range (-16) 16) bool >>= fun (o, ld) ->
        oneofl
          [ Insn.Imm_off (x19, o * unit); Insn.Pre (x19, o * unit);
            Insn.Post (x19, o * unit) ]
        >>= fun addr ->
        if ld then return (Insn.Fldp { r1; r2; addr })
        else return (Insn.Fstp { r1; r2; addr }) );
      (* exclusives through x19 *)
      ( mem_size >>= fun sz ->
        let w = if sz = Insn.X then Reg.W64 else Reg.W32 in
        stream_dreg w >>= fun r ->
        oneof
          [
            return (Insn.Ldxr { sz; dst = r; base = x19 });
            map
              (fun status -> Insn.Stxr { sz; status; src = r; base = x19 })
              (stream_dreg Reg.W32);
            return (Insn.Ldar { sz; dst = r; base = x19 });
            return (Insn.Stlr { sz; src = r; base = x19 });
          ] );
    ]

(** One instruction of a differential stream: data processing over the
    pool registers, or a memory access through x19/x20. *)
let stream_insn : Insn.t G.t =
  G.frequency
    [
      (4, such_that in_stream_pool alu);
      (2, such_that in_stream_pool misc);
      (1, such_that in_stream_pool misc2);
      (2, such_that in_stream_pool fp);
      (4, stream_mem);
    ]

(** A whole straight-line stream (no branches, no pc-relative values,
    no sp) of 5-40 instructions. *)
let stream : Insn.t list G.t =
  G.(int_range 5 40 >>= fun n -> list_repeat n stream_insn)

(** {!stream} without the forms the rewriter refuses ([ldp] into one
    register twice), from the same draws: the input of the engines that
    sandbox what they generate. *)
let sandbox_stream : Insn.t list G.t =
  G.map (List.filter (fun i -> not (Insn.ldp_overlap i))) stream
