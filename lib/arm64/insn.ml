(** The ARM64 instruction subset shared by every component of the system.

    One ADT is used by the assembly parser and printer, the binary
    encoder and decoder, the LFI rewriter, the static verifier and the
    emulator, so the round-trip properties [parse (print i) = i] and
    [decode (encode i) = i] are meaningful and property-tested.

    The subset covers the base ARMv8.0-A instructions that C/C++
    compilers emit for integer and scalar floating-point code: ALU
    operations (shifted-register, extended-register and immediate
    forms), moves, bitfields, multiplies/divides, conditional selects,
    the full set of load/store addressing modes of Table 1 of the paper,
    register pairs, acquire/release and exclusive accesses, direct and
    indirect branches (Table 2), and scalar FP arithmetic. *)

type cond =
  | EQ | NE | CS | CC | MI | PL | VS | VC | HI | LS | GE | LT | GT | LE | AL

(* Each operand enum is listed once, as (value, assembler name,
   encoding); the printer and the parser derive every conversion from
   these lists with [name] and [of_name], and {!Isa} its fields. *)

let name l v = match List.find (fun (x, _, _) -> x = v) l with _, n, _ -> n

let of_name l s =
  List.find_map (fun (x, n, _) -> if n = s then Some x else None) l

let conds =
  [ (EQ, "eq", 0); (NE, "ne", 1); (CS, "cs", 2); (CC, "cc", 3);
    (MI, "mi", 4); (PL, "pl", 5); (VS, "vs", 6); (VC, "vc", 7);
    (HI, "hi", 8); (LS, "ls", 9); (GE, "ge", 10); (LT, "lt", 11);
    (GT, "gt", 12); (LE, "le", 13); (AL, "al", 14) ]

(** [hs] and [lo] are the assembler's aliases of [cs] and [cc]. *)
let cond_of_string = function
  | "hs" -> Some CS
  | "lo" -> Some CC
  | s -> of_name conds s

let invert_cond = function
  | EQ -> NE | NE -> EQ | CS -> CC | CC -> CS | MI -> PL | PL -> MI
  | VS -> VC | VC -> VS | HI -> LS | LS -> HI | GE -> LT | LT -> GE
  | GT -> LE | LE -> GT | AL -> AL

type shift = Lsl | Lsr | Asr | Ror

let shifts =
  [ (Lsl, "lsl", 0); (Lsr, "lsr", 1); (Asr, "asr", 2); (Ror, "ror", 3) ]

type extend = Uxtb | Uxth | Uxtw | Uxtx | Sxtb | Sxth | Sxtw | Sxtx

let extends =
  [ (Uxtb, "uxtb", 0); (Uxth, "uxth", 1); (Uxtw, "uxtw", 2);
    (Uxtx, "uxtx", 3); (Sxtb, "sxtb", 4); (Sxth, "sxth", 5);
    (Sxtw, "sxtw", 6); (Sxtx, "sxtx", 7) ]

(** Second operand of an ALU instruction. *)
type operand2 =
  | Imm of int * int
      (** [Imm (v, sh)]: 12-bit immediate, [sh] is 0 or 12 (add/sub);
          logical instructions use [Imm (v, 0)] with a bitmask value. *)
  | Sh of Reg.t * shift * int  (** shifted register *)
  | Ext of Reg.t * extend * int
      (** extended register — the form the LFI guard uses
          ([add xA, xB, wC, uxtw]) *)

(** Addressing modes of Table 1. *)
type addr =
  | Imm_off of Reg.t * int               (** [\[xN, #i\]]; i = 0 is plain [\[xN\]] *)
  | Pre of Reg.t * int                   (** [\[xN, #i\]!] *)
  | Post of Reg.t * int                  (** [\[xN\], #i] *)
  | Reg_off of Reg.t * Reg.t * extend * int
      (** [\[xN, xM, lsl/sxtx #i\]] (with [Uxtx] standing for lsl) or
          [\[xN, wM, uxtw/sxtw #i\]] *)

let addr_base = function
  | Imm_off (r, _) | Pre (r, _) | Post (r, _) | Reg_off (r, _, _, _) -> r

(** Branch target: symbolic before assembly, a byte offset relative to
    the instruction's own address after assembly / decoding. *)
type target = Sym of string | Off of int

type mem_size = B | H | W | X

(** The code is the size field, log2 of the access's bytes. *)
let mem_sizes = [ (B, "b", 0); (H, "h", 1); (W, "w", 2); (X, "x", 3) ]

let mem_bytes = function B -> 1 | H -> 2 | W -> 4 | X -> 8

type alu_op = ADD | SUB | AND | ORR | EOR | BIC | ORN | EON

let alu_op_to_string = function
  | ADD -> "add" | SUB -> "sub" | AND -> "and" | ORR -> "orr"
  | EOR -> "eor" | BIC -> "bic" | ORN -> "orn" | EON -> "eon"

type csel_op = CSEL | CSINC | CSINV | CSNEG

(** The code is op:o2 (bits 30 and 10). *)
let csel_ops =
  [ (CSEL, "csel", 0); (CSINC, "csinc", 1); (CSINV, "csinv", 2);
    (CSNEG, "csneg", 3) ]

type fop2 = FADD | FSUB | FMUL | FDIV | FMIN | FMAX

let fop2s =
  [ (FMUL, "fmul", 0); (FDIV, "fdiv", 1); (FADD, "fadd", 2);
    (FSUB, "fsub", 3); (FMAX, "fmax", 4); (FMIN, "fmin", 5) ]

type fop1 = FNEG | FABS | FSQRT | FMOV

let fop1s =
  [ (FMOV, "fmov", 0); (FABS, "fabs", 1); (FNEG, "fneg", 2);
    (FSQRT, "fsqrt", 3) ]

type movk = MOVZ | MOVN | MOVK

let movs = [ (MOVN, "movn", 0); (MOVZ, "movz", 2); (MOVK, "movk", 3) ]

type bf_op = UBFM | SBFM | BFM

let bf_ops = [ (SBFM, "sbfm", 0); (BFM, "bfm", 1); (UBFM, "ubfm", 2) ]

(** Second operand of a conditional compare: a register or a 5-bit
    unsigned immediate. *)
type ccmp_op2 = CReg of Reg.t | CImm of int

type t =
  (* Data processing *)
  | Alu of { op : alu_op; flags : bool; dst : Reg.t; src : Reg.t;
             op2 : operand2 }
  | Shiftv of { op : shift; dst : Reg.t; src : Reg.t; amount : Reg.t }
      (** lslv/lsrv/asrv/rorv *)
  | Mov of { op : movk; dst : Reg.t; imm : int; hw : int }
      (** movz/movn/movk; [hw] is the 16-bit chunk index *)
  | Bitfield of { op : bf_op; dst : Reg.t; src : Reg.t; immr : int;
                  imms : int }
  | Extr of { dst : Reg.t; src1 : Reg.t; src2 : Reg.t; lsb : int }
  | Madd of { sub : bool; dst : Reg.t; src1 : Reg.t; src2 : Reg.t;
              acc : Reg.t }  (** madd / msub *)
  | Smulh of { signed : bool; dst : Reg.t; src1 : Reg.t; src2 : Reg.t }
  | Maddl of { signed : bool; sub : bool; dst : Reg.t; src1 : Reg.t;
               src2 : Reg.t; acc : Reg.t }
      (** smaddl/smsubl/umaddl/umsubl (and the smull/umull aliases):
          64-bit accumulate of a widened 32x32 product *)
  | Div of { signed : bool; dst : Reg.t; src1 : Reg.t; src2 : Reg.t }
  | Csel of { op : csel_op; dst : Reg.t; src1 : Reg.t; src2 : Reg.t;
              cond : cond }
  | Ccmp of { cmn : bool; src : Reg.t; op2 : ccmp_op2; nzcv : int;
              cond : cond }
      (** conditional compare: flags := cmp/cmn result if [cond] holds,
          else the [nzcv] literal *)
  | Cls of { count_zero : bool; dst : Reg.t; src : Reg.t } (** clz / cls *)
  | Rbit of { dst : Reg.t; src : Reg.t }
  | Rev of { bytes : int; dst : Reg.t; src : Reg.t } (** rev16/rev32/rev *)
  | Adr of { page : bool; dst : Reg.t; target : target } (** adr / adrp *)
  (* Loads and stores *)
  | Ldr of { sz : mem_size; signed : bool; dst : Reg.t; addr : addr }
  | Str of { sz : mem_size; src : Reg.t; addr : addr }
  | Ldp of { w : Reg.width; r1 : Reg.t; r2 : Reg.t; addr : addr }
  | Stp of { w : Reg.width; r1 : Reg.t; r2 : Reg.t; addr : addr }
  | Fldr of { dst : Reg.Fp.t; addr : addr }
  | Fstr of { src : Reg.Fp.t; addr : addr }
  | Fldp of { r1 : Reg.Fp.t; r2 : Reg.Fp.t; addr : addr }
  | Fstp of { r1 : Reg.Fp.t; r2 : Reg.Fp.t; addr : addr }
  | Ldxr of { sz : mem_size; dst : Reg.t; base : Reg.t }
  | Stxr of { sz : mem_size; status : Reg.t; src : Reg.t; base : Reg.t }
  | Ldar of { sz : mem_size; dst : Reg.t; base : Reg.t }
  | Stlr of { sz : mem_size; src : Reg.t; base : Reg.t }
  (* Branches *)
  | B of target
  | Bl of target
  | Bcond of cond * target
  | Cbz of { nz : bool; reg : Reg.t; target : target }
  | Tbz of { nz : bool; reg : Reg.t; bit : int; target : target }
  | Br of Reg.t
  | Blr of Reg.t
  | Ret of Reg.t
  (* Scalar floating point *)
  | Fop2 of { op : fop2; dst : Reg.Fp.t; src1 : Reg.Fp.t; src2 : Reg.Fp.t }
  | Fop1 of { op : fop1; dst : Reg.Fp.t; src : Reg.Fp.t }
  | Fmadd of { sub : bool; dst : Reg.Fp.t; src1 : Reg.Fp.t;
               src2 : Reg.Fp.t; acc : Reg.Fp.t }
  | Fcmp of { src1 : Reg.Fp.t; src2 : Reg.Fp.t option }
      (** [None] compares against +0.0 *)
  | Fcvt of { dst : Reg.Fp.t; src : Reg.Fp.t }  (** precision conversion *)
  | Scvtf of { signed : bool; dst : Reg.Fp.t; src : Reg.t }
  | Fcvtzs of { signed : bool; dst : Reg.t; src : Reg.Fp.t }
  | Fmov_to_fp of { dst : Reg.Fp.t; src : Reg.t }
  | Fmov_from_fp of { dst : Reg.t; src : Reg.Fp.t }
  (* System *)
  | Nop
  | Svc of int
  | Mrs of { dst : Reg.t; sysreg : string }
  | Msr of { sysreg : string; src : Reg.t }
  | Dmb
  | Udf of int
      (** permanently-undefined / unrecognized encoding; always rejected
          by the verifier *)

let equal (a : t) (b : t) = a = b

(* ------------------------------------------------------------------ *)
(* Structural queries used by the rewriter and verifier.               *)
(* ------------------------------------------------------------------ *)

(** The addressing mode of a memory instruction, if any. *)
let addr_of = function
  | Ldr { addr; _ } | Str { addr; _ } | Ldp { addr; _ } | Stp { addr; _ }
  | Fldr { addr; _ } | Fstr { addr; _ } | Fldp { addr; _ }
  | Fstp { addr; _ } ->
      Some addr
  | Ldxr { base; _ } | Stxr { base; _ } | Ldar { base; _ }
  | Stlr { base; _ } ->
      Some (Imm_off (base, 0))
  | _ -> None

(** Replace the addressing mode of a memory instruction. *)
let with_addr insn addr =
  match insn with
  | Ldr r -> Ldr { r with addr }
  | Str r -> Str { r with addr }
  | Ldp r -> Ldp { r with addr }
  | Stp r -> Stp { r with addr }
  | Fldr r -> Fldr { r with addr }
  | Fstr r -> Fstr { r with addr }
  | Fldp r -> Fldp { r with addr }
  | Fstp r -> Fstp { r with addr }
  | Ldxr r -> (
      match addr with
      | Imm_off (b, 0) -> Ldxr { r with base = b }
      | _ -> invalid_arg "with_addr: exclusive")
  | Stxr r -> (
      match addr with
      | Imm_off (b, 0) -> Stxr { r with base = b }
      | _ -> invalid_arg "with_addr: exclusive")
  | Ldar r -> (
      match addr with
      | Imm_off (b, 0) -> Ldar { r with base = b }
      | _ -> invalid_arg "with_addr: acquire")
  | Stlr r -> (
      match addr with
      | Imm_off (b, 0) -> Stlr { r with base = b }
      | _ -> invalid_arg "with_addr: release")
  | _ -> invalid_arg "with_addr: not a memory instruction"

let is_load = function
  | Ldr _ | Ldp _ | Fldr _ | Fldp _ | Ldxr _ | Ldar _ -> true
  | _ -> false

let is_store = function
  | Str _ | Stp _ | Fstr _ | Fstp _ | Stxr _ | Stlr _ -> true
  | _ -> false

let is_memory i = is_load i || is_store i

(** Number of bytes touched by a memory instruction (the width of the
    access, used for trap checks). *)
let access_bytes = function
  | Ldr { sz; _ } | Str { sz; _ } | Ldxr { sz; _ } | Stxr { sz; _ }
  | Ldar { sz; _ } | Stlr { sz; _ } ->
      mem_bytes sz
  | Ldp { w = W64; _ } | Stp { w = W64; _ } -> 16
  | Ldp { w = W32; _ } | Stp { w = W32; _ } -> 8
  | Fldr { dst = f; _ } -> Reg.Fp.bytes f
  | Fstr { src = f; _ } -> Reg.Fp.bytes f
  | Fldp { r1; _ } | Fstp { r1; _ } -> 2 * Reg.Fp.bytes r1
  | _ -> 0

(** Value range an extended-register operand can contribute, as a
    closed interval of byte offsets, independent of the register's
    contents — the symbolic interface the soundness prover
    (lib/prover) evaluates addressing and guard arithmetic with.
    [None] for the identity extends [uxtx]/[sxtx], whose result spans
    the full 64-bit range of the source register. *)
let extend_bounds (e : extend) ~(amount : int) : (int * int) option =
  match e with
  | Uxtb -> Some (0, 0xFF lsl amount)
  | Uxth -> Some (0, 0xFFFF lsl amount)
  | Uxtw -> Some (0, 0xFFFFFFFF lsl amount)
  | Sxtb -> Some (-(0x80 lsl amount), 0x7F lsl amount)
  | Sxth -> Some (-(0x8000 lsl amount), 0x7FFF lsl amount)
  | Sxtw -> Some (-(0x8000_0000 lsl amount), 0x7FFF_FFFF lsl amount)
  | Uxtx | Sxtx -> None

let is_branch = function
  | B _ | Bl _ | Bcond _ | Cbz _ | Tbz _ | Br _ | Blr _ | Ret _ -> true
  | _ -> false

let is_indirect_branch = function Br _ | Blr _ | Ret _ -> true | _ -> false

(** The rewriter's guard, an x21-based add: the fundamental
    [add xD, x21, wN, uxtw] or the sp re-anchor [add sp, x21, x22, uxtx].
    The metrics' guard count and the overhead report both classify by
    it, so the two reconcile. *)
let is_guard = function
  | Alu
      { op = ADD; flags = false; src = Reg.R (Reg.W64, 21);
        op2 = Ext (_, (Uxtw | Uxtx), 0); _ } ->
      true
  | _ -> false

let fold_write f acc = function Reg.ZR _ -> acc | r -> f acc r

let fold_writeback f acc = function
  | Pre (b, _) | Post (b, _) -> fold_write f acc b
  | Imm_off _ | Reg_off _ -> acc

(** [fold_writes f acc insn] folds [f] over the general registers the
    instruction writes, in operand order: the destinations, then the
    base register of a pre/post-indexed mode, x30 for [bl]/[blr], the
    status register of [stxr].  Writes to zr are skipped.  The walk
    allocates nothing, so a closed [f] makes a query that allocates
    nothing either. *)
let fold_writes f acc insn =
  match insn with
  | Alu { dst; _ } | Shiftv { dst; _ } | Mov { dst; _ } | Bitfield { dst; _ }
  | Extr { dst; _ } | Madd { dst; _ } | Smulh { dst; _ } | Maddl { dst; _ }
  | Div { dst; _ } | Csel { dst; _ } | Cls { dst; _ } | Rbit { dst; _ }
  | Rev { dst; _ } | Adr { dst; _ } | Ldxr { dst; _ } | Ldar { dst; _ }
  | Fcvtzs { dst; _ } | Fmov_from_fp { dst; _ } | Mrs { dst; _ } ->
      fold_write f acc dst
  | Ldr { dst; addr; _ } -> fold_writeback f (fold_write f acc dst) addr
  | Ldp { r1; r2; addr; _ } ->
      fold_writeback f (fold_write f (fold_write f acc r1) r2) addr
  | Str { addr; _ } | Stp { addr; _ } | Fldr { addr; _ } | Fstr { addr; _ }
  | Fldp { addr; _ } | Fstp { addr; _ } ->
      fold_writeback f acc addr
  | Stxr { status; _ } -> fold_write f acc status
  | Bl _ | Blr _ -> f acc Reg.lr
  | Ccmp _ | Stlr _ | B _ | Bcond _ | Cbz _ | Tbz _ | Br _ | Ret _ | Fop2 _
  | Fop1 _ | Fmadd _ | Fcmp _ | Fcvt _ | Scvtf _ | Fmov_to_fp _ | Nop | Svc _
  | Msr _ | Dmb | Udf _ ->
      acc

(** General registers written by the instruction, as architectural
    register numbers (0-30; writes to zr are dropped, writes to sp are
    reported as [`Sp]): the members of {!fold_writes}, in its order. *)
let writes insn : [ `R of Reg.width * int | `Sp ] list =
  List.rev
    (fold_writes
       (fun acc r ->
         match r with
         | Reg.R (w, n) -> `R (w, n) :: acc
         | Reg.SP _ | Reg.ZR _ (* never passed *) -> `Sp :: acc)
       [] insn)

(* Does the instruction write register number [n], with 31 standing
   for sp?  The fold carries [n] and turns it into -1 once a written
   register matches, so its function is closed and nothing is
   allocated. *)
let writes_number insn n =
  let matched m r = if m = Reg.encoding_number r then -1 else m in
  n >= 0 && fold_writes matched n insn < 0

(** True if the instruction writes architectural register number [n]
    (0-30) through any name or side effect: a member of {!writes}, found
    without allocating. *)
let writes_reg_number insn n = n <> 31 && writes_number insn n

(** True if the instruction writes sp (a [`Sp] member of {!writes}). *)
let writes_sp insn = writes_number insn 31

(** Every general register that appears as an operand (read or written,
    explicitly).  Used by the rewriter to reject input that touches the
    LFI reserved registers. *)
let regs_mentioned (i : t) : Reg.t list =
  let addr_regs = function
    | Imm_off (b, _) | Pre (b, _) | Post (b, _) -> [ b ]
    | Reg_off (b, m, _, _) -> [ b; m ]
  in
  let op2_regs = function
    | Imm _ -> []
    | Sh (r, _, _) | Ext (r, _, _) -> [ r ]
  in
  match i with
  | Alu { dst; src; op2; _ } -> dst :: src :: op2_regs op2
  | Shiftv { dst; src; amount; _ } -> [ dst; src; amount ]
  | Mov { dst; _ } -> [ dst ]
  | Bitfield { dst; src; _ } | Cls { dst; src; _ } | Rbit { dst; src }
  | Rev { dst; src; _ } ->
      [ dst; src ]
  | Extr { dst; src1; src2; _ } -> [ dst; src1; src2 ]
  | Madd { dst; src1; src2; acc; _ } -> [ dst; src1; src2; acc ]
  | Smulh { dst; src1; src2; _ } | Div { dst; src1; src2; _ } ->
      [ dst; src1; src2 ]
  | Maddl { dst; src1; src2; acc; _ } -> [ dst; src1; src2; acc ]
  | Ccmp { src; op2 = CReg r; _ } -> [ src; r ]
  | Ccmp { src; op2 = CImm _; _ } -> [ src ]
  | Csel { dst; src1; src2; _ } -> [ dst; src1; src2 ]
  | Adr { dst; _ } -> [ dst ]
  | Ldr { dst; addr; _ } -> dst :: addr_regs addr
  | Str { src; addr; _ } -> src :: addr_regs addr
  | Ldp { r1; r2; addr; _ } | Stp { r1; r2; addr; _ } ->
      r1 :: r2 :: addr_regs addr
  | Fldr { addr; _ } | Fstr { addr; _ } | Fldp { addr; _ } | Fstp { addr; _ }
    ->
      addr_regs addr
  | Ldxr { dst; base; _ } -> [ dst; base ]
  | Stxr { status; src; base; _ } -> [ status; src; base ]
  | Ldar { dst; base; _ } -> [ dst; base ]
  | Stlr { src; base; _ } -> [ src; base ]
  | Cbz { reg; _ } | Tbz { reg; _ } -> [ reg ]
  | Br r | Blr r | Ret r -> [ r ]
  | Scvtf { src; _ } -> [ src ]
  | Fcvtzs { dst; _ } -> [ dst ]
  | Fmov_to_fp { src; _ } -> [ src ]
  | Fmov_from_fp { dst; _ } -> [ dst ]
  | Mrs { dst; _ } -> [ dst ]
  | Msr { src; _ } -> [ src ]
  | B _ | Bl _ | Bcond _ | Fop2 _ | Fop1 _ | Fmadd _ | Fcmp _ | Fcvt _
  | Nop | Svc _ | Dmb | Udf _ ->
      []

let targets = function
  | B t | Bl t | Bcond (_, t) -> [ t ]
  | Cbz { target; _ } | Tbz { target; _ } -> [ target ]
  | _ -> []

let map_target f = function
  | B t -> B (f t)
  | Bl t -> Bl (f t)
  | Bcond (c, t) -> Bcond (c, f t)
  | Cbz r -> Cbz { r with target = f r.target }
  | Tbz r -> Tbz { r with target = f r.target }
  | Adr r -> Adr { r with target = f r.target }
  | i -> i

(** Does control fall through to the next instruction? *)
let falls_through = function
  | B _ | Br _ | Ret _ -> false
  | Udf _ -> false
  | _ -> true
