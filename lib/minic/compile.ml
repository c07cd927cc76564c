(** MiniC → ARM64 assembly backend (the "Clang" of the pipeline).

    Produces GNU assembly text in the subset of {!Lfi_arm64}.  The
    backend deliberately mirrors what an optimizing C compiler does
    where it matters to the SFI experiments:

    - locals live in callee-saved registers where possible;
    - address arithmetic is fused into the Table 1 addressing modes
      ([\[xN, #i\]], [\[xN, xM, lsl #s\]]), which is exactly the code
      shape whose guarding cost Figure 3 measures;
    - the reserved registers x18/x21-x24 are never used, like a
      compiler invoked with the paper's [-ffixed-reg] flags;
    - system calls are emitted as [svc #n]; the LFI rewriter lowers
      them to runtime-call-table sequences (§4.4). *)

open Lfi_arm64
open Ast

exception Error of string

let errorf fmt = Printf.ksprintf (fun m -> raise (Error m)) fmt

(* Register conventions (AAPCS64 minus the LFI reserved registers). *)
let int_arg_regs = [| 0; 1; 2; 3; 4; 5; 6; 7 |]
let int_scratch = [ 9; 10; 11; 12; 13; 14; 15 ]
let int_homes = [ 19; 20; 25; 26; 27; 28 ]
let fp_scratch = [ 16; 17; 18; 19; 20; 21; 22; 23 ]
let fp_homes = [ 8; 9; 10; 11; 12; 13; 14; 15 ]

type loc =
  | LReg of int  (** integer home register xN *)
  | LFreg of int  (** float home register dN *)
  | LStack of int  (** frame offset (from sp) *)
  | LStackF of int

type value = VInt of int  (** scratch xN *) | VFlt of int  (** scratch dN *)

type fctx = {
  prog : program;
  fenv : (string * ty) list;
  fname : string;
  env : (string * ty) list ref;  (** variable types *)
  locs : (string, loc) Hashtbl.t;
  mutable scratch : int list;
  mutable fscratch : int list;
  temp_base : int;  (** frame offset of the spill-temp area *)
  mutable temp_used : int;
  mutable label_counter : int;
  mutable out : Source.item list;  (** reversed *)
  mutable loop_stack : (string * string) list;  (** break, continue *)
  float_pool : (string, string) Hashtbl.t;  (** bits-string -> label *)
  mutable float_pool_order : (string * float) list;
  epilogue : string;
}

let emit ctx i = ctx.out <- Source.Insn i :: ctx.out
let emit_label ctx l = ctx.out <- Source.Label l :: ctx.out
let emit_directive ctx d arg = ctx.out <- Source.Directive (d, arg) :: ctx.out

let fresh_label ctx prefix =
  ctx.label_counter <- ctx.label_counter + 1;
  Printf.sprintf ".L%s_%s%d" ctx.fname prefix ctx.label_counter

(* scratch management *)
let alloc_int ctx =
  match ctx.scratch with
  | r :: tl ->
      ctx.scratch <- tl;
      r
  | [] -> errorf "%s: integer expression too deep" ctx.fname

let alloc_fp ctx =
  match ctx.fscratch with
  | r :: tl ->
      ctx.fscratch <- tl;
      r
  | [] -> errorf "%s: float expression too deep" ctx.fname

let free ctx = function
  | VInt r -> if List.mem r int_scratch then ctx.scratch <- r :: ctx.scratch
  | VFlt r -> if List.mem r fp_scratch then ctx.fscratch <- r :: ctx.fscratch

let x r = Reg.x r
let w r = Reg.w r
let d r = Reg.Fp.v Reg.Fp.D r

let mov_reg dst src =
  Insn.Alu
    { op = Insn.ORR; flags = false; dst = x dst; src = Reg.xzr;
      op2 = Insn.Sh (x src, Insn.Lsl, 0) }

let fmov_reg dst src = Insn.Fop1 { op = Insn.FMOV; dst = d dst; src = d src }

(** Materialize an arbitrary integer constant with movz/movn/movk.
    Chunks are computed through Int64 so negative values keep their
    full two's-complement bit pattern. *)
let emit_const ctx (dst : int) (v : int) =
  if v >= 0 && v < 65536 then
    emit ctx (Insn.Mov { op = Insn.MOVZ; dst = x dst; imm = v; hw = 0 })
  else if v < 0 && lnot v < 65536 then
    emit ctx (Insn.Mov { op = Insn.MOVN; dst = x dst; imm = lnot v; hw = 0 })
  else begin
    let v64 = Int64.of_int v in
    let chunk k =
      Int64.to_int
        (Int64.logand (Int64.shift_right_logical v64 (16 * k)) 0xFFFFL)
    in
    let first = ref true in
    for k = 0 to 3 do
      let c = chunk k in
      if c <> 0 || (k = 3 && !first) then begin
        emit ctx
          (Insn.Mov { op = (if !first then Insn.MOVZ else Insn.MOVK);
                      dst = x dst; imm = c; hw = k });
        first := false
      end
    done;
    if !first then
      emit ctx (Insn.Mov { op = Insn.MOVZ; dst = x dst; imm = 0; hw = 0 })
  end

let float_label ctx (v : float) : string =
  let key = Int64.to_string (Int64.bits_of_float v) in
  match Hashtbl.find_opt ctx.float_pool key with
  | Some l -> l
  | None ->
      let l = Printf.sprintf ".Lfp_%s_%d" ctx.fname (Hashtbl.length ctx.float_pool) in
      Hashtbl.replace ctx.float_pool key l;
      ctx.float_pool_order <- (l, v) :: ctx.float_pool_order;
      l

(* frame offsets are always within add/sub immediate range by
   construction (frames are small) *)
let str_frame ctx reg off =
  emit ctx
    (Insn.Str { sz = Insn.X; src = x reg; addr = Insn.Imm_off (Reg.sp, off) })

let ldr_frame ctx reg off =
  emit ctx
    (Insn.Ldr { sz = Insn.X; signed = false; dst = x reg;
                addr = Insn.Imm_off (Reg.sp, off) })

let fstr_frame ctx reg off =
  emit ctx (Insn.Fstr { src = d reg; addr = Insn.Imm_off (Reg.sp, off) })

let fldr_frame ctx reg off =
  emit ctx (Insn.Fldr { dst = d reg; addr = Insn.Imm_off (Reg.sp, off) })

let alloc_temp ctx =
  let slot = ctx.temp_base + (8 * ctx.temp_used) in
  ctx.temp_used <- ctx.temp_used + 1;
  if ctx.temp_used > 32 then errorf "%s: out of spill temps" ctx.fname;
  slot

let free_temp ctx = ctx.temp_used <- ctx.temp_used - 1

let rec contains_call = function
  | Call _ | Call_indirect _ | Syscall _ -> true
  | Bin (_, a, b) -> contains_call a || contains_call b
  | Un (_, a) | Cvt (_, a) | Load (_, a) -> contains_call a
  | Int _ | Flt _ | Var _ | Addr _ -> false

let typeof ctx e = Ast.typeof ~fenv:ctx.fenv ~env:!(ctx.env) e

(* ------------------------------------------------------------------ *)
(* Expression compilation                                              *)
(* ------------------------------------------------------------------ *)

let cond_of_binop = function
  | Eq -> Some Insn.EQ
  | Ne -> Some Insn.NE
  | Lt -> Some Insn.LT
  | Le -> Some Insn.LE
  | Gt -> Some Insn.GT
  | Ge -> Some Insn.GE
  | Ult -> Some Insn.CC
  | _ -> None

let fcond_of_binop = function
  | FEq -> Some Insn.EQ
  | FLt -> Some Insn.MI
  | FLe -> Some Insn.LS
  | _ -> None

let log2_opt n =
  let rec go i = if 1 lsl i = n then Some i else if i > 62 then None else go (i + 1) in
  if n <= 0 then None else go 0

(** Compile [e] into a freshly allocated integer scratch register. *)
let rec compile_int ctx (e : expr) : int =
  match e with
  | Int v ->
      let r = alloc_int ctx in
      emit_const ctx r v;
      r
  | Var name -> (
      match Hashtbl.find_opt ctx.locs name with
      | Some (LReg home) ->
          let r = alloc_int ctx in
          emit ctx (mov_reg r home);
          r
      | Some (LStack off) ->
          let r = alloc_int ctx in
          ldr_frame ctx r off;
          r
      | Some (LFreg _ | LStackF _) -> errorf "%s is a float" name
      | None -> errorf "unbound variable %s" name)
  | Addr sym ->
      let r = alloc_int ctx in
      emit ctx (Insn.Adr { page = false; dst = x r; target = Insn.Sym sym });
      r
  | Load (elt, a) -> compile_load ctx elt a
  | Bin (op, a, b) -> compile_int_bin ctx op a b
  | Un (Neg, a) ->
      let ra = compile_int ctx a in
      let r = alloc_int ctx in
      emit ctx
        (Insn.Alu { op = Insn.SUB; flags = false; dst = x r; src = Reg.xzr;
                    op2 = Insn.Sh (x ra, Insn.Lsl, 0) });
      free ctx (VInt ra);
      r
  | Un (Not, a) ->
      let ra = compile_int ctx a in
      let r = alloc_int ctx in
      emit ctx
        (Insn.Alu { op = Insn.ORN; flags = false; dst = x r; src = Reg.xzr;
                    op2 = Insn.Sh (x ra, Insn.Lsl, 0) });
      free ctx (VInt ra);
      r
  | Un ((FNeg | FSqrt | FAbs), _) -> errorf "float expression in int context"
  | Cvt (FtoI, a) ->
      let fa = compile_float ctx a in
      let r = alloc_int ctx in
      emit ctx (Insn.Fcvtzs { signed = true; dst = x r; src = d fa });
      free ctx (VFlt fa);
      r
  | Cvt (ItoF, _) -> errorf "float expression in int context"
  | Flt _ -> errorf "float literal in int context"
  | Call (name, args) ->
      compile_call ctx (`Direct name) args;
      let r = alloc_int ctx in
      emit ctx (mov_reg r 0);
      r
  | Call_indirect (fp, args, _) ->
      compile_call ctx (`Indirect fp) args;
      let r = alloc_int ctx in
      emit ctx (mov_reg r 0);
      r
  | Syscall (k, args) ->
      compile_call ctx (`Sys k) args;
      let r = alloc_int ctx in
      emit ctx (mov_reg r 0);
      r

and compile_int_bin ctx op a b : int =
  match op with
  | FAdd | FSub | FMul | FDiv -> errorf "float expression in int context"
  | Eq | Ne | Lt | Le | Gt | Ge | Ult ->
      (* comparison as a value: cmp ; cset *)
      let cond = Option.get (cond_of_binop op) in
      compile_compare ctx a b;
      let r = alloc_int ctx in
      emit ctx
        (Insn.Csel
           { op = Insn.CSINC; dst = x r; src1 = Reg.xzr; src2 = Reg.xzr;
             cond = Insn.invert_cond cond });
      r
  | FEq | FLt | FLe ->
      let cond = Option.get (fcond_of_binop op) in
      compile_fcompare ctx a b;
      let r = alloc_int ctx in
      emit ctx
        (Insn.Csel
           { op = Insn.CSINC; dst = x r; src1 = Reg.xzr; src2 = Reg.xzr;
             cond = Insn.invert_cond cond });
      r
  | Add | Sub | And | Or | Xor -> (
      let alu_op =
        match op with
        | Add -> Insn.ADD
        | Sub -> Insn.SUB
        | And -> Insn.AND
        | Or -> Insn.ORR
        | Xor -> Insn.EOR
        | _ -> assert false
      in
      (* immediate forms *)
      match (op, b) with
      | (Add | Sub), Int v when v >= 0 && v < 4096 ->
          let ra = compile_int ctx a in
          let r = alloc_int ctx in
          emit ctx
            (Insn.Alu { op = alu_op; flags = false; dst = x r; src = x ra;
                        op2 = Insn.Imm (v, 0) });
          free ctx (VInt ra);
          r
      | _ ->
          let ra, rb = compile_pair ctx a b in
          free ctx (VInt ra);
          free ctx (VInt rb);
          let r = alloc_int ctx in
          emit ctx
            (Insn.Alu { op = alu_op; flags = false; dst = x r; src = x ra;
                        op2 = Insn.Sh (x rb, Insn.Lsl, 0) });
          r)
  | Shl | Shr | Lshr -> (
      let k =
        match op with Shl -> Insn.Lsl | Shr -> Insn.Asr | _ -> Insn.Lsr
      in
      match b with
      | Int v when v >= 0 && v < 64 ->
          let ra = compile_int ctx a in
          let r = alloc_int ctx in
          (match k with
          | Insn.Lsl ->
              emit ctx
                (Insn.Bitfield { op = Insn.UBFM; dst = x r; src = x ra;
                                 immr = (64 - v) mod 64; imms = 63 - v })
          | Insn.Lsr ->
              emit ctx
                (Insn.Bitfield { op = Insn.UBFM; dst = x r; src = x ra;
                                 immr = v; imms = 63 })
          | _ ->
              emit ctx
                (Insn.Bitfield { op = Insn.SBFM; dst = x r; src = x ra;
                                 immr = v; imms = 63 }));
          free ctx (VInt ra);
          r
      | _ ->
          let ra, rb = compile_pair ctx a b in
          free ctx (VInt ra);
          free ctx (VInt rb);
          let r = alloc_int ctx in
          emit ctx (Insn.Shiftv { op = k; dst = x r; src = x ra; amount = x rb });
          r)
  | Mul -> (
      match b with
      | Int v when log2_opt v <> None ->
          let s = Option.get (log2_opt v) in
          compile_int_bin ctx Shl a (Int s)
      | _ ->
          let ra, rb = compile_pair ctx a b in
          free ctx (VInt ra);
          free ctx (VInt rb);
          let r = alloc_int ctx in
          emit ctx
            (Insn.Madd { sub = false; dst = x r; src1 = x ra; src2 = x rb;
                         acc = Reg.xzr });
          r)
  | Div ->
      let ra, rb = compile_pair ctx a b in
      free ctx (VInt ra);
      free ctx (VInt rb);
      let r = alloc_int ctx in
      emit ctx (Insn.Div { signed = true; dst = x r; src1 = x ra; src2 = x rb });
      r
  | Rem ->
      (* q = a / b ; result = a - q*b, computed in place over q *)
      let ra, rb = compile_pair ctx a b in
      let q = alloc_int ctx in
      emit ctx (Insn.Div { signed = true; dst = x q; src1 = x ra; src2 = x rb });
      emit ctx
        (Insn.Madd { sub = true; dst = x q; src1 = x q; src2 = x rb;
                     acc = x ra });
      free ctx (VInt ra);
      free ctx (VInt rb);
      q

(** Compile two operands.  The first is spilled to a frame slot while
    the second is evaluated when (a) the second contains a call (calls
    clobber the scratch registers) or (b) scratch pressure is high
    (deep right-leaning expressions would otherwise exhaust the pool —
    this is the register allocator's spilling, done eagerly). *)
and compile_pair ctx a b : int * int =
  if contains_call b || List.length ctx.scratch <= 2 then begin
    let ra = compile_int ctx a in
    let slot = alloc_temp ctx in
    str_frame ctx ra slot;
    free ctx (VInt ra);
    let rb = compile_int ctx b in
    let ra' = alloc_int ctx in
    ldr_frame ctx ra' slot;
    free_temp ctx;
    (ra', rb)
  end
  else begin
    let ra = compile_int ctx a in
    let rb = compile_int ctx b in
    (ra, rb)
  end

and compile_fpair ctx a b : int * int =
  if contains_call b || List.length ctx.fscratch <= 2 then begin
    let ra = compile_float ctx a in
    let slot = alloc_temp ctx in
    fstr_frame ctx ra slot;
    free ctx (VFlt ra);
    let rb = compile_float ctx b in
    let ra' = alloc_fp ctx in
    fldr_frame ctx ra' slot;
    free_temp ctx;
    (ra', rb)
  end
  else begin
    let ra = compile_float ctx a in
    let rb = compile_float ctx b in
    (ra, rb)
  end

(** Produce a register holding [e] for use as an address operand.
    A variable living in a callee-saved home register is used directly
    (no copy) — this is what lets consecutive [\[xN, #i\]] accesses
    share a base register, the pattern §4.3's redundant guard
    elimination hoists. *)
and address_operand ctx (e : expr) : int * value list =
  match e with
  | Var name -> (
      match Hashtbl.find_opt ctx.locs name with
      | Some (LReg home) -> (home, [])
      | _ ->
          let r = compile_int ctx e in
          (r, [ VInt r ]))
  | _ ->
      let r = compile_int ctx e in
      (r, [ VInt r ])

(** Address-mode selection for loads/stores: fuse [base + idx*size]
    and [base + const] into Table 1 addressing modes. *)
and compile_addr ctx (elt : elt) (a : expr) : Insn.addr * value list =
  let size = elt_size elt in
  let reg_pair base idxe shift =
    (* home registers survive calls, so the spill dance is only
       needed when both operands live in scratch *)
    if contains_call idxe && not (is_home_var ctx base) then begin
      let rb, ri = compile_pair ctx base idxe in
      (Insn.Reg_off (x rb, x ri, Insn.Uxtx, shift), [ VInt rb; VInt ri ])
    end
    else begin
      let ri, u2 = address_operand ctx idxe in
      let rb, u1 = address_operand ctx base in
      (Insn.Reg_off (x rb, x ri, Insn.Uxtx, shift), u1 @ u2)
    end
  in
  match a with
  | Bin (Add, base, Int k) when k >= 0 && k mod size = 0 && k / size < 4096 ->
      let rb, used = address_operand ctx base in
      (Insn.Imm_off (x rb, k), used)
  | Bin (Add, base, Bin (Mul, idxe, Int s))
    when s = size && log2_opt s <> None ->
      reg_pair base idxe (Option.get (log2_opt s))
  | Bin (Add, base, idxe) when typeof ctx idxe = Int && elt = U8 ->
      reg_pair base idxe 0
  | _ ->
      let rb, used = address_operand ctx a in
      (Insn.Imm_off (x rb, 0), used)

and is_home_var ctx = function
  | Var name -> (
      match Hashtbl.find_opt ctx.locs name with
      | Some (LReg _) -> true
      | _ -> false)
  | _ -> false

and compile_load ctx (elt : elt) (a : expr) : int =
  let addr, used = compile_addr ctx elt a in
  List.iter (free ctx) used;
  let r = alloc_int ctx in
  (match elt with
  | U8 ->
      emit ctx (Insn.Ldr { sz = Insn.B; signed = false; dst = w r; addr })
  | U16 ->
      emit ctx (Insn.Ldr { sz = Insn.H; signed = false; dst = w r; addr })
  | I32 ->
      emit ctx (Insn.Ldr { sz = Insn.W; signed = true; dst = x r; addr })
  | I64 -> emit ctx (Insn.Ldr { sz = Insn.X; signed = false; dst = x r; addr })
  | F32 | F64 -> errorf "float load in int context");
  r

and compile_fload ctx (elt : elt) (a : expr) : int =
  let addr, used = compile_addr ctx elt a in
  List.iter (free ctx) used;
  let r = alloc_fp ctx in
  (match elt with
  | F64 -> emit ctx (Insn.Fldr { dst = d r; addr })
  | F32 ->
      let s = Reg.Fp.v Reg.Fp.S r in
      emit ctx (Insn.Fldr { dst = s; addr });
      emit ctx (Insn.Fcvt { dst = d r; src = s })
  | _ -> errorf "int load in float context");
  r

(** Compile a float expression into a fresh float scratch register. *)
and compile_float ctx (e : expr) : int =
  match e with
  | Flt v ->
      let r = alloc_fp ctx in
      let lbl = float_label ctx v in
      let ra = alloc_int ctx in
      emit ctx (Insn.Adr { page = false; dst = x ra; target = Insn.Sym lbl });
      emit ctx (Insn.Fldr { dst = d r; addr = Insn.Imm_off (x ra, 0) });
      free ctx (VInt ra);
      r
  | Var name -> (
      match Hashtbl.find_opt ctx.locs name with
      | Some (LFreg home) ->
          let r = alloc_fp ctx in
          emit ctx (fmov_reg r home);
          r
      | Some (LStackF off) ->
          let r = alloc_fp ctx in
          fldr_frame ctx r off;
          r
      | Some (LReg _ | LStack _) -> errorf "%s is an int" name
      | None -> errorf "unbound variable %s" name)
  | Load (elt, a) -> compile_fload ctx elt a
  | Bin ((FAdd | FSub | FMul | FDiv) as op, a, b) ->
      let fop =
        match op with
        | FAdd -> Insn.FADD
        | FSub -> Insn.FSUB
        | FMul -> Insn.FMUL
        | _ -> Insn.FDIV
      in
      let ra, rb = compile_fpair ctx a b in
      free ctx (VFlt ra);
      free ctx (VFlt rb);
      let r = alloc_fp ctx in
      emit ctx (Insn.Fop2 { op = fop; dst = d r; src1 = d ra; src2 = d rb });
      r
  | Un (FNeg, a) ->
      let ra = compile_float ctx a in
      let r = alloc_fp ctx in
      emit ctx (Insn.Fop1 { op = Insn.FNEG; dst = d r; src = d ra });
      free ctx (VFlt ra);
      r
  | Un (FSqrt, a) ->
      let ra = compile_float ctx a in
      let r = alloc_fp ctx in
      emit ctx (Insn.Fop1 { op = Insn.FSQRT; dst = d r; src = d ra });
      free ctx (VFlt ra);
      r
  | Un (FAbs, a) ->
      let ra = compile_float ctx a in
      let r = alloc_fp ctx in
      emit ctx (Insn.Fop1 { op = Insn.FABS; dst = d r; src = d ra });
      free ctx (VFlt ra);
      r
  | Cvt (ItoF, a) ->
      let ra = compile_int ctx a in
      let r = alloc_fp ctx in
      emit ctx (Insn.Scvtf { signed = true; dst = d r; src = x ra });
      free ctx (VInt ra);
      r
  | Call (name, args) ->
      compile_call ctx (`Direct name) args;
      let r = alloc_fp ctx in
      emit ctx (fmov_reg r 0);
      r
  | Call_indirect (fp, args, _) ->
      compile_call ctx (`Indirect fp) args;
      let r = alloc_fp ctx in
      emit ctx (fmov_reg r 0);
      r
  | _ -> errorf "int expression in float context"

(** Evaluate arguments and perform a call; the result is left in x0/d0. *)
and compile_call ctx (target : [ `Direct of string | `Indirect of expr | `Sys of int ])
    (args : expr list) =
  if List.length args > 8 then errorf "too many arguments";
  let any_calls = List.exists contains_call args in
  let fp_slot =
    match target with
    | `Indirect fp when any_calls || contains_call fp ->
        let r = compile_int ctx fp in
        let slot = alloc_temp ctx in
        str_frame ctx r slot;
        free ctx (VInt r);
        `Slot slot
    | `Indirect fp -> `Expr fp
    | _ -> `None
  in
  let arg_tys = List.map (fun a -> typeof ctx a) args in
  if any_calls then begin
    (* evaluate into spill temps first *)
    let slots =
      List.map
        (fun a ->
          match typeof ctx a with
          | Int ->
              let r = compile_int ctx a in
              let s = alloc_temp ctx in
              str_frame ctx r s;
              free ctx (VInt r);
              (s, (Int : ty))
          | Float ->
              let r = compile_float ctx a in
              let s = alloc_temp ctx in
              fstr_frame ctx r s;
              free ctx (VFlt r);
              (s, (Float : ty)))
        args
    in
    let ii = ref 0 and fi = ref 0 in
    List.iter
      (fun ((s : int), (t : ty)) ->
        match t with
        | Int ->
            ldr_frame ctx int_arg_regs.(!ii) s;
            incr ii
        | Float ->
            fldr_frame ctx !fi s;
            incr fi)
      slots;
    List.iter (fun _ -> free_temp ctx) slots
  end
  else begin
    (* direct: arguments cannot clobber x0..x7/d0..d7 because scratch
       evaluation only touches x9-x15 / d16-d23 and homes *)
    let ii = ref 0 and fi = ref 0 in
    List.iter
      (fun a ->
        match typeof ctx a with
        | Int ->
            let r = compile_int ctx a in
            emit ctx (mov_reg int_arg_regs.(!ii) r);
            free ctx (VInt r);
            incr ii
        | Float ->
            let r = compile_float ctx a in
            emit ctx (fmov_reg !fi r);
            free ctx (VFlt r);
            incr fi)
      args
  end;
  ignore arg_tys;
  match target with
  | `Direct name -> emit ctx (Insn.Bl (Insn.Sym name))
  | `Sys k -> emit ctx (Insn.Svc k)
  | `Indirect _ -> (
      match fp_slot with
      | `Slot s ->
          let r = alloc_int ctx in
          ldr_frame ctx r s;
          free_temp ctx;
          emit ctx (Insn.Blr (x r));
          free ctx (VInt r)
      | `Expr fp ->
          let r = compile_int ctx fp in
          emit ctx (Insn.Blr (x r));
          free ctx (VInt r)
      | `None -> assert false)

(** cmp a, b (integer). *)
and compile_compare ctx a b =
  match b with
  | Int v when v >= 0 && v < 4096 ->
      let ra = compile_int ctx a in
      emit ctx
        (Insn.Alu { op = Insn.SUB; flags = true; dst = Reg.xzr; src = x ra;
                    op2 = Insn.Imm (v, 0) });
      free ctx (VInt ra)
  | _ ->
      let ra, rb = compile_pair ctx a b in
      emit ctx
        (Insn.Alu { op = Insn.SUB; flags = true; dst = Reg.xzr; src = x ra;
                    op2 = Insn.Sh (x rb, Insn.Lsl, 0) });
      free ctx (VInt ra);
      free ctx (VInt rb)

and compile_fcompare ctx a b =
  let ra, rb = compile_fpair ctx a b in
  emit ctx (Insn.Fcmp { src1 = d ra; src2 = Some (d rb) });
  free ctx (VFlt ra);
  free ctx (VFlt rb)

(** Compile [e] as a branch condition: jump to [target] when [e] is
    false (if [jump_if_false]) or true. *)
let compile_cond ctx (e : expr) ~(target : string) ~(jump_if_false : bool) =
  let bcond c =
    let c = if jump_if_false then Insn.invert_cond c else c in
    emit ctx (Insn.Bcond (c, Insn.Sym target))
  in
  match e with
  | Bin (op, a, b) when cond_of_binop op <> None ->
      compile_compare ctx a b;
      bcond (Option.get (cond_of_binop op))
  | Bin (op, a, b) when fcond_of_binop op <> None ->
      compile_fcompare ctx a b;
      bcond (Option.get (fcond_of_binop op))
  | _ ->
      let r = compile_int ctx e in
      emit ctx
        (Insn.Cbz { nz = not jump_if_false; reg = x r;
                    target = Insn.Sym target });
      free ctx (VInt r)

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let assign_to ctx name (value : value) =
  match (Hashtbl.find_opt ctx.locs name, value) with
  | Some (LReg home), VInt r -> emit ctx (mov_reg home r)
  | Some (LStack off), VInt r -> str_frame ctx r off
  | Some (LFreg home), VFlt r -> emit ctx (fmov_reg home r)
  | Some (LStackF off), VFlt r -> fstr_frame ctx r off
  | Some _, _ -> errorf "type mismatch assigning %s" name
  | None, _ -> errorf "unbound variable %s" name

let rec compile_store_var ctx name e =
  let t : ty =
    match Hashtbl.find_opt ctx.locs name with
    | Some (LReg _ | LStack _) -> Int
    | Some (LFreg _ | LStackF _) -> Float
    | None -> errorf "unbound variable %s" name
  in
  match t with
  | Int ->
      let r = compile_int ctx e in
      assign_to ctx name (VInt r);
      free ctx (VInt r)
  | Float ->
      let r = compile_float ctx e in
      assign_to ctx name (VFlt r);
      free ctx (VFlt r)

and compile_stmt ctx (s : stmt) =
  match s with
  | Decl (name, ty, e) ->
      ctx.env := (name, ty) :: !(ctx.env);
      compile_store_var ctx name e
  | Assign (name, e) -> compile_store_var ctx name e
  | Store (elt, a, value) ->
      (* The reference interpreter evaluates the address before the
         value, and registers holding one side must survive any calls
         in the other (calls clobber every scratch register).  A pure
         value commutes with the address computation, so only the
         call-carrying shapes need the frame-slot dance of
         compile_pair. *)
      let is_float = match elt with F64 | F32 -> true | _ -> false in
      let emit_store rv addr =
        match elt with
        | F64 -> emit ctx (Insn.Fstr { src = d rv; addr })
        | F32 ->
            let sreg = Reg.Fp.v Reg.Fp.S rv in
            emit ctx (Insn.Fcvt { dst = sreg; src = d rv });
            emit ctx (Insn.Fstr { src = sreg; addr })
        | U8 -> emit ctx (Insn.Str { sz = Insn.B; src = w rv; addr })
        | U16 -> emit ctx (Insn.Str { sz = Insn.H; src = w rv; addr })
        | I32 -> emit ctx (Insn.Str { sz = Insn.W; src = w rv; addr })
        | I64 -> emit ctx (Insn.Str { sz = Insn.X; src = x rv; addr })
      in
      let compile_value () =
        if is_float then
          let r = compile_float ctx value in
          (r, VFlt r)
        else
          let r = compile_int ctx value in
          (r, VInt r)
      in
      if contains_call value then begin
        (* interp order: the address's own calls run first, then the
           value's.  Materialize the address flat and park it in a
           frame slot across the value computation. *)
        let ra = compile_int ctx a in
        let slot = alloc_temp ctx in
        str_frame ctx ra slot;
        free ctx (VInt ra);
        let rv, v = compile_value () in
        let ra' = alloc_int ctx in
        ldr_frame ctx ra' slot;
        free_temp ctx;
        emit_store rv (Insn.Imm_off (x ra', 0));
        free ctx (VInt ra');
        free ctx v
      end
      else if contains_call a then begin
        (* pure value: evaluating it first is unobservable, but it must
           sit in a frame slot across the address's calls *)
        let rv, v = compile_value () in
        let slot = alloc_temp ctx in
        if is_float then fstr_frame ctx rv slot else str_frame ctx rv slot;
        free ctx v;
        let addr, used = compile_addr ctx elt a in
        let rv' = if is_float then alloc_fp ctx else alloc_int ctx in
        if is_float then fldr_frame ctx rv' slot else ldr_frame ctx rv' slot;
        free_temp ctx;
        List.iter (free ctx) used;
        emit_store rv' addr;
        free ctx (if is_float then VFlt rv' else VInt rv')
      end
      else begin
        let rv, v = compile_value () in
        let addr, used = compile_addr ctx elt a in
        List.iter (free ctx) used;
        emit_store rv addr;
        free ctx v
      end
  | If (c, then_s, else_s) ->
      let lelse = fresh_label ctx "else" and lend = fresh_label ctx "endif" in
      compile_cond ctx c ~target:lelse ~jump_if_false:true;
      List.iter (compile_stmt ctx) then_s;
      if else_s <> [] then begin
        emit ctx (Insn.B (Insn.Sym lend));
        emit_label ctx lelse;
        List.iter (compile_stmt ctx) else_s;
        emit_label ctx lend
      end
      else emit_label ctx lelse
  | While (c, body) ->
      let lcond = fresh_label ctx "while" and lend = fresh_label ctx "wend" in
      emit_label ctx lcond;
      compile_cond ctx c ~target:lend ~jump_if_false:true;
      ctx.loop_stack <- (lend, lcond) :: ctx.loop_stack;
      List.iter (compile_stmt ctx) body;
      ctx.loop_stack <- List.tl ctx.loop_stack;
      emit ctx (Insn.B (Insn.Sym lcond));
      emit_label ctx lend
  | Return e ->
      (match typeof ctx e with
      | Int ->
          let r = compile_int ctx e in
          emit ctx (mov_reg 0 r);
          free ctx (VInt r)
      | Float ->
          let r = compile_float ctx e in
          emit ctx (fmov_reg 0 r);
          free ctx (VFlt r));
      emit ctx (Insn.B (Insn.Sym ctx.epilogue))
  | Expr e ->
      (match typeof ctx e with
      | Int ->
          let r = compile_int ctx e in
          free ctx (VInt r)
      | Float ->
          let r = compile_float ctx e in
          free ctx (VFlt r))
  | Break -> (
      match ctx.loop_stack with
      | (lend, _) :: _ -> emit ctx (Insn.B (Insn.Sym lend))
      | [] -> errorf "break outside loop")
  | Continue -> (
      match ctx.loop_stack with
      | (_, lcond) :: _ -> emit ctx (Insn.B (Insn.Sym lcond))
      | [] -> errorf "continue outside loop")


(* ------------------------------------------------------------------ *)
(* Functions and programs                                              *)
(* ------------------------------------------------------------------ *)

let rec collect_decls (acc : (string * ty) list) (stmts : stmt list) =
  List.fold_left
    (fun acc s ->
      match s with
      | Decl (n, t, _) -> if List.mem_assoc n acc then acc else (n, t) :: acc
      | If (_, a, b) -> collect_decls (collect_decls acc a) b
      | While (_, b) -> collect_decls acc b
      | _ -> acc)
    acc stmts

(** Estimated dynamic use count per variable: static occurrences
    weighted by loop depth.  Registers are assigned to the
    highest-scoring variables, the way a graph-coloring allocator ends
    up prioritizing loop-carried values. *)
let variable_scores (f : func) : (string, float) Hashtbl.t =
  let scores = Hashtbl.create 16 in
  let bump name w =
    Hashtbl.replace scores name
      (w +. Option.value (Hashtbl.find_opt scores name) ~default:0.0)
  in
  let rec expr_uses w (e : expr) =
    match e with
    | Var n -> bump n w
    | Bin (_, a, b) -> expr_uses w a; expr_uses w b
    | Un (_, a) | Cvt (_, a) | Load (_, a) -> expr_uses w a
    | Call (_, args) | Syscall (_, args) -> List.iter (expr_uses w) args
    | Call_indirect (fp, args, _) ->
        expr_uses w fp;
        List.iter (expr_uses w) args
    | Int _ | Flt _ | Addr _ -> ()
  in
  let rec stmt_uses w (s : stmt) =
    match s with
    | Decl (n, _, e) | Assign (n, e) ->
        bump n w;
        expr_uses w e
    | Store (_, a, value) -> expr_uses w a; expr_uses w value
    | If (c, t, e) ->
        expr_uses w c;
        List.iter (stmt_uses w) t;
        List.iter (stmt_uses w) e
    | While (c, b) ->
        expr_uses (w *. 8.0) c;
        List.iter (stmt_uses (w *. 8.0)) b
    | Return e | Expr e -> expr_uses w e
    | Break | Continue -> ()
  in
  List.iter (stmt_uses 1.0) f.body;
  (* parameters get a small bonus: keeping them in registers avoids
     the incoming spill *)
  List.iter (fun (n, _) -> bump n 0.5) f.params;
  scores

(** Compile [f] onto [out], the program's items so far in reverse, and
    return them with [f]'s (and its float constant pool's) in front. *)
let compile_func (prog : program) (fenv : (string * ty) list)
    (out : Source.item list) (f : func) : Source.item list =
  (* variable homes, hottest variables first *)
  let scores = variable_scores f in
  let score n = Option.value (Hashtbl.find_opt scores n) ~default:0.0 in
  let all_vars =
    collect_decls (List.rev f.params) f.body
    |> List.rev
    |> List.stable_sort (fun (a, _) (b, _) -> compare (score b) (score a))
  in
  let locs = Hashtbl.create 16 in
  let int_homes_left = ref int_homes and fp_homes_left = ref fp_homes in
  let stack_off = ref 0 in
  let used_int_homes = ref [] and used_fp_homes = ref [] in
  (* stack slot area starts after the saved-register area; computed
     below, so record relative slots first *)
  let stack_slots = ref [] in
  List.iter
    (fun (name, (t : ty)) ->
      match t with
      | Int -> (
          match !int_homes_left with
          | h :: tl ->
              int_homes_left := tl;
              used_int_homes := h :: !used_int_homes;
              Hashtbl.replace locs name (LReg h)
          | [] ->
              stack_slots := (name, t, !stack_off) :: !stack_slots;
              stack_off := !stack_off + 8)
      | Float -> (
          match !fp_homes_left with
          | h :: tl ->
              fp_homes_left := tl;
              used_fp_homes := h :: !used_fp_homes;
              Hashtbl.replace locs name (LFreg h)
          | [] ->
              stack_slots := (name, t, !stack_off) :: !stack_slots;
              stack_off := !stack_off + 8))
    all_vars;
  let n_int_saves = List.length !used_int_homes in
  let n_fp_saves = List.length !used_fp_homes in
  let save_area = 16 + (8 * (n_int_saves + n_fp_saves)) in
  let save_area = (save_area + 15) / 16 * 16 in
  let locals_base = save_area in
  let temp_base = locals_base + !stack_off in
  let frame = (temp_base + (32 * 8) + 15) / 16 * 16 in
  List.iter
    (fun (name, (t : ty), rel) ->
      Hashtbl.replace locs name
        (match t with
        | Int -> LStack (locals_base + rel)
        | Float -> LStackF (locals_base + rel)))
    !stack_slots;
  let ctx =
    {
      prog;
      fenv;
      fname = f.name;
      env = ref (List.map (fun (n, t) -> (n, t)) all_vars);
      locs;
      scratch = int_scratch;
      fscratch = fp_scratch;
      temp_base;
      temp_used = 0;
      label_counter = 0;
      out;
      loop_stack = [];
      float_pool = Hashtbl.create 8;
      float_pool_order = [];
      epilogue = Printf.sprintf ".L%s_ret" f.name;
    }
  in
  emit_label ctx f.name;
  (* prologue *)
  emit ctx
    (Insn.Alu { op = Insn.SUB; flags = false; dst = Reg.sp; src = Reg.sp;
                op2 = Insn.Imm (frame, 0) });
  emit ctx
    (Insn.Stp { w = Reg.W64; r1 = Reg.x 29; r2 = Reg.x 30;
                addr = Insn.Imm_off (Reg.sp, 0) });
  emit ctx
    (Insn.Alu { op = Insn.ADD; flags = false; dst = Reg.x 29; src = Reg.sp;
                op2 = Insn.Imm (0, 0) });
  List.iteri
    (fun k r -> str_frame ctx r (16 + (8 * k)))
    (List.rev !used_int_homes);
  List.iteri
    (fun k r -> fstr_frame ctx r (16 + (8 * (n_int_saves + k))))
    (List.rev !used_fp_homes);
  (* move incoming arguments to their homes *)
  let ii = ref 0 and fi = ref 0 in
  List.iter
    (fun (name, (t : ty)) ->
      (match t with
      | Int ->
          assign_to ctx name (VInt int_arg_regs.(!ii));
          incr ii
      | Float ->
          assign_to ctx name (VFlt !fi);
          incr fi))
    f.params;
  (* body *)
  List.iter (compile_stmt ctx) f.body;
  (* implicit return 0 *)
  emit_const ctx 0 0;
  (* epilogue *)
  emit_label ctx ctx.epilogue;
  List.iteri
    (fun k r -> ldr_frame ctx r (16 + (8 * k)))
    (List.rev !used_int_homes);
  List.iteri
    (fun k r -> fldr_frame ctx r (16 + (8 * (n_int_saves + k))))
    (List.rev !used_fp_homes);
  emit ctx
    (Insn.Ldp { w = Reg.W64; r1 = Reg.x 29; r2 = Reg.x 30;
                addr = Insn.Imm_off (Reg.sp, 0) });
  emit ctx
    (Insn.Alu { op = Insn.ADD; flags = false; dst = Reg.sp; src = Reg.sp;
                op2 = Insn.Imm (frame, 0) });
  emit ctx (Insn.Ret (Reg.x 30));
  (* local float constant pool lives in .data *)
  if ctx.float_pool_order <> [] then begin
    emit_directive ctx ".data" "";
    List.iter
      (fun (lbl, v) ->
        emit_label ctx lbl;
        emit_directive ctx ".double" (Printf.sprintf "%h" v))
      (List.rev ctx.float_pool_order);
    emit_directive ctx ".text" ""
  end;
  ctx.out

(** Compile a whole program to assembly source.  The entry point calls
    [main] and exits with its return value. *)
let compile (prog : program) : Source.t =
  let fenv = List.map (fun f -> (f.name, f.ret)) prog.funcs in
  if not (List.mem_assoc "main" fenv) then raise (Error "no main function");
  let start =
    [ Source.Directive (".text", "");
      Source.Label "_start";
      Source.Insn (Insn.Bl (Insn.Sym "main"));
      Source.Insn (Insn.Svc Lfi_runtime.Sysno.exit);
      Source.Insn (Insn.B (Insn.Sym "_start")) ]
  in
  (* start and the functions, in reverse: one accumulator through every
     function *)
  let out =
    List.fold_left (compile_func prog fenv) (List.rev start) prog.funcs
  in
  let globals =
    if prog.globals = [] then []
    else
      Source.Directive (".data", "")
      :: List.concat_map
           (fun g ->
             match g with
             | Zeroed (name, size) ->
                 [ Source.Directive (".balign", "16");
                   Source.Label name;
                   Source.Directive (".zero", string_of_int size) ]
             | Init64 (name, words) ->
                 Source.Directive (".balign", "16")
                 :: Source.Label name
                 :: List.map
                      (fun wv -> Source.Directive (".quad", string_of_int wv))
                      words
             | InitF64 (name, vals) ->
                 Source.Directive (".balign", "16")
                 :: Source.Label name
                 :: List.map
                      (fun fv ->
                        Source.Directive (".double", Printf.sprintf "%h" fv))
                      vals
             | Str (name, s) ->
                 [ Source.Label name;
                   Source.Directive
                     (".asciz", Printf.sprintf "%S" s) ])
           prog.globals
  in
  List.rev_append out globals
