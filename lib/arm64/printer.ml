(** GNU-syntax printer for the instruction subset.

    The printed form is canonical: for every [Insn.t] value there is
    exactly one printed representation, and [Parser.parse_insn] maps it
    back to the same value (property-tested).  Common aliases ([mov],
    [cmp], [tst], [neg], [mul], [ret]) are printed where GNU tools would,
    and the parser also accepts the many aliases compilers emit. *)

open Insn

let buf_reg = Reg.to_string
let fp = Reg.Fp.to_string

let target_to_string = function
  | Sym s -> s
  | Off n -> if n >= 0 then Printf.sprintf ".+%d" n else Printf.sprintf ".%d" n

let operand2_to_string = function
  | Imm (v, 0) -> Printf.sprintf "#%d" v
  | Imm (v, sh) -> Printf.sprintf "#%d, lsl #%d" v sh
  | Sh (r, Lsl, 0) -> buf_reg r
  | Sh (r, k, a) -> Printf.sprintf "%s, %s #%d" (buf_reg r) (name shifts k) a
  | Ext (r, e, 0) -> Printf.sprintf "%s, %s" (buf_reg r) (name extends e)
  | Ext (r, e, a) ->
      Printf.sprintf "%s, %s #%d" (buf_reg r) (name extends e) a

let addr_to_string = function
  | Imm_off (r, 0) -> Printf.sprintf "[%s]" (buf_reg r)
  | Imm_off (r, i) -> Printf.sprintf "[%s, #%d]" (buf_reg r) i
  | Pre (r, i) -> Printf.sprintf "[%s, #%d]!" (buf_reg r) i
  | Post (r, i) -> Printf.sprintf "[%s], #%d" (buf_reg r) i
  | Reg_off (r, m, Uxtx, 0) -> Printf.sprintf "[%s, %s]" (buf_reg r) (buf_reg m)
  | Reg_off (r, m, Uxtx, a) ->
      Printf.sprintf "[%s, %s, lsl #%d]" (buf_reg r) (buf_reg m) a
  | Reg_off (r, m, e, 0) ->
      Printf.sprintf "[%s, %s, %s]" (buf_reg r) (buf_reg m) (name extends e)
  | Reg_off (r, m, e, a) ->
      Printf.sprintf "[%s, %s, %s #%d]" (buf_reg r) (buf_reg m)
        (name extends e) a

let ld_mnemonic (sz : mem_size) signed (dstw : Reg.width) =
  match (sz, signed, dstw) with
  | X, false, _ -> "ldr"
  | W, false, _ -> "ldr"
  | W, true, _ -> "ldrsw"
  | B, false, _ -> "ldrb"
  | H, false, _ -> "ldrh"
  | B, true, W64 -> "ldrsb"
  | B, true, W32 -> "ldrsb"
  | H, true, W64 -> "ldrsh"
  | H, true, W32 -> "ldrsh"
  | X, true, _ -> "ldr" (* not a real form; normalized away by parser *)

let st_mnemonic (sz : mem_size) =
  match sz with X | W -> "str" | B -> "strb" | H -> "strh"

let sz_suffix (sz : mem_size) =
  match sz with B -> "b" | H -> "h" | W | X -> ""

(** Print one instruction (mnemonic and operands, no leading tab). *)
let to_string (i : t) : string =
  let s = Printf.sprintf in
  match i with
  | Alu { op = SUB; flags = true; dst = Reg.ZR _; src; op2 } ->
      s "cmp %s, %s" (buf_reg src) (operand2_to_string op2)
  | Alu { op = ADD; flags = true; dst = Reg.ZR _; src; op2 } ->
      s "cmn %s, %s" (buf_reg src) (operand2_to_string op2)
  | Alu { op = AND; flags = true; dst = Reg.ZR _; src; op2 } ->
      s "tst %s, %s" (buf_reg src) (operand2_to_string op2)
  | Alu { op = ORR; flags = false; dst; src = Reg.ZR _; op2 = Sh (r, Lsl, 0) }
    ->
      s "mov %s, %s" (buf_reg dst) (buf_reg r)
  | Alu { op = SUB; flags; dst; src = Reg.ZR _; op2 = Sh (r, Lsl, 0) } ->
      s "neg%s %s, %s" (if flags then "s" else "") (buf_reg dst) (buf_reg r)
  | Alu { op = ORN; flags = false; dst; src = Reg.ZR _; op2 = Sh (r, Lsl, 0) }
    ->
      s "mvn %s, %s" (buf_reg dst) (buf_reg r)
  | Alu { op = ADD; flags = false; dst; src; op2 = Imm (0, 0) }
    when Reg.is_sp dst || Reg.is_sp src ->
      s "mov %s, %s" (buf_reg dst) (buf_reg src)
  | Alu { op; flags; dst; src; op2 } ->
      s "%s%s %s, %s, %s" (alu_op_to_string op)
        (if flags then "s" else "")
        (buf_reg dst) (buf_reg src) (operand2_to_string op2)
  | Shiftv { op; dst; src; amount } ->
      s "%s %s, %s, %s" (name shifts op) (buf_reg dst) (buf_reg src)
        (buf_reg amount)
  | Mov { op; dst; imm; hw = 0 } ->
      s "%s %s, #%d" (name movs op) (buf_reg dst) imm
  | Mov { op; dst; imm; hw } ->
      s "%s %s, #%d, lsl #%d" (name movs op) (buf_reg dst) imm (hw * 16)
  | Bitfield { op; dst; src; immr; imms } ->
      s "%s %s, %s, #%d, #%d" (name bf_ops op) (buf_reg dst) (buf_reg src)
        immr imms
  | Extr { dst; src1; src2; lsb } ->
      s "extr %s, %s, %s, #%d" (buf_reg dst) (buf_reg src1) (buf_reg src2) lsb
  | Madd { sub = false; dst; src1; src2; acc = Reg.ZR _ } ->
      s "mul %s, %s, %s" (buf_reg dst) (buf_reg src1) (buf_reg src2)
  | Madd { sub; dst; src1; src2; acc } ->
      s "%s %s, %s, %s, %s"
        (if sub then "msub" else "madd")
        (buf_reg dst) (buf_reg src1) (buf_reg src2) (buf_reg acc)
  | Maddl { signed; sub = false; dst; src1; src2; acc = Reg.ZR _ } ->
      s "%s %s, %s, %s"
        (if signed then "smull" else "umull")
        (buf_reg dst) (buf_reg src1) (buf_reg src2)
  | Maddl { signed; sub; dst; src1; src2; acc } ->
      s "%s%s %s, %s, %s, %s"
        (if signed then "s" else "u")
        (if sub then "msubl" else "maddl")
        (buf_reg dst) (buf_reg src1) (buf_reg src2) (buf_reg acc)
  | Ccmp { cmn; src; op2; nzcv; cond } ->
      s "%s %s, %s, #%d, %s"
        (if cmn then "ccmn" else "ccmp")
        (buf_reg src)
        (match op2 with CReg r -> buf_reg r | CImm v -> Printf.sprintf "#%d" v)
        nzcv (name conds cond)
  | Smulh { signed; dst; src1; src2 } ->
      s "%s %s, %s, %s"
        (if signed then "smulh" else "umulh")
        (buf_reg dst) (buf_reg src1) (buf_reg src2)
  | Div { signed; dst; src1; src2 } ->
      s "%s %s, %s, %s"
        (if signed then "sdiv" else "udiv")
        (buf_reg dst) (buf_reg src1) (buf_reg src2)
  | Csel { op; dst; src1; src2; cond } ->
      s "%s %s, %s, %s, %s" (name csel_ops op) (buf_reg dst)
        (buf_reg src1) (buf_reg src2) (name conds cond)
  | Cls { count_zero; dst; src } ->
      s "%s %s, %s" (if count_zero then "clz" else "cls") (buf_reg dst)
        (buf_reg src)
  | Rbit { dst; src } -> s "rbit %s, %s" (buf_reg dst) (buf_reg src)
  | Rev { bytes; dst; src } ->
      let full = match Reg.width dst with Reg.W64 -> 8 | Reg.W32 -> 4 in
      let m =
        if bytes = full then "rev" else if bytes = 2 then "rev16" else "rev32"
      in
      s "%s %s, %s" m (buf_reg dst) (buf_reg src)
  | Adr { page; dst; target } ->
      s "%s %s, %s" (if page then "adrp" else "adr") (buf_reg dst)
        (target_to_string target)
  | Ldr { sz; signed; dst; addr } ->
      s "%s %s, %s" (ld_mnemonic sz signed (Reg.width dst)) (buf_reg dst)
        (addr_to_string addr)
  | Str { sz; src; addr } ->
      s "%s %s, %s" (st_mnemonic sz) (buf_reg src) (addr_to_string addr)
  | Ldp { w = _; r1; r2; addr } ->
      s "ldp %s, %s, %s" (buf_reg r1) (buf_reg r2) (addr_to_string addr)
  | Stp { w = _; r1; r2; addr } ->
      s "stp %s, %s, %s" (buf_reg r1) (buf_reg r2) (addr_to_string addr)
  | Fldr { dst; addr } -> s "ldr %s, %s" (fp dst) (addr_to_string addr)
  | Fstr { src; addr } -> s "str %s, %s" (fp src) (addr_to_string addr)
  | Fldp { r1; r2; addr } ->
      s "ldp %s, %s, %s" (fp r1) (fp r2) (addr_to_string addr)
  | Fstp { r1; r2; addr } ->
      s "stp %s, %s, %s" (fp r1) (fp r2) (addr_to_string addr)
  | Ldxr { sz; dst; base } ->
      s "ldxr%s %s, [%s]" (sz_suffix sz) (buf_reg dst) (buf_reg base)
  | Stxr { sz; status; src; base } ->
      s "stxr%s %s, %s, [%s]" (sz_suffix sz) (buf_reg status) (buf_reg src)
        (buf_reg base)
  | Ldar { sz; dst; base } ->
      s "ldar%s %s, [%s]" (sz_suffix sz) (buf_reg dst) (buf_reg base)
  | Stlr { sz; src; base } ->
      s "stlr%s %s, [%s]" (sz_suffix sz) (buf_reg src) (buf_reg base)
  | B t -> s "b %s" (target_to_string t)
  | Bl t -> s "bl %s" (target_to_string t)
  | Bcond (c, t) -> s "b.%s %s" (name conds c) (target_to_string t)
  | Cbz { nz; reg; target } ->
      s "%s %s, %s" (if nz then "cbnz" else "cbz") (buf_reg reg)
        (target_to_string target)
  | Tbz { nz; reg; bit; target } ->
      s "%s %s, #%d, %s" (if nz then "tbnz" else "tbz") (buf_reg reg) bit
        (target_to_string target)
  | Br r -> s "br %s" (buf_reg r)
  | Blr r -> s "blr %s" (buf_reg r)
  | Ret (Reg.R (Reg.W64, 30)) -> "ret"
  | Ret r -> s "ret %s" (buf_reg r)
  | Fop2 { op; dst; src1; src2 } ->
      s "%s %s, %s, %s" (name fop2s op) (fp dst) (fp src1) (fp src2)
  | Fop1 { op; dst; src } -> s "%s %s, %s" (name fop1s op) (fp dst) (fp src)
  | Fmadd { sub; dst; src1; src2; acc } ->
      s "%s %s, %s, %s, %s"
        (if sub then "fmsub" else "fmadd")
        (fp dst) (fp src1) (fp src2) (fp acc)
  | Fcmp { src1; src2 = Some r } -> s "fcmp %s, %s" (fp src1) (fp r)
  | Fcmp { src1; src2 = None } -> s "fcmp %s, #0.0" (fp src1)
  | Fcvt { dst; src } -> s "fcvt %s, %s" (fp dst) (fp src)
  | Scvtf { signed; dst; src } ->
      s "%s %s, %s" (if signed then "scvtf" else "ucvtf") (fp dst) (buf_reg src)
  | Fcvtzs { signed; dst; src } ->
      s "%s %s, %s"
        (if signed then "fcvtzs" else "fcvtzu")
        (buf_reg dst) (fp src)
  | Fmov_to_fp { dst; src } -> s "fmov %s, %s" (fp dst) (buf_reg src)
  | Fmov_from_fp { dst; src } -> s "fmov %s, %s" (buf_reg dst) (fp src)
  | Nop -> "nop"
  | Svc n -> s "svc #%d" n
  | Mrs { dst; sysreg } -> s "mrs %s, %s" (buf_reg dst) sysreg
  | Msr { sysreg; src } -> s "msr %s, %s" sysreg (buf_reg src)
  | Dmb -> "dmb ish"
  | Udf n -> s "udf #%d" n
