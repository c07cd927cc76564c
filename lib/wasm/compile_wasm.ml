(** Wasm IR → ARM64 compiler, parameterized by an {!Engine.t}.

    The output is ordinary (unverified) ARM64 that performs its own
    language-based sandboxing, exactly like an AOT Wasm engine: linear
    memory accesses go through the heap base register/struct with the
    guard-page scheme ([add xT, base, wIdx, uxtw] + static offset),
    indirect calls are bounds- and type-checked against the table, and
    traps funnel to an abort stub.  It runs under the LFI runtime with
    the [Native_in_lfi_runtime] personality (the engines in the paper
    are likewise ordinary processes).

    Register conventions: x28 = pinned heap base, x27 = context
    pointer, x26 = cached heap base (non-barrier struct engines),
    x19-x25 = register-allocated locals (LLVM-class codegen only),
    x9-x15 = operand-stack scratch. *)

open Lfi_arm64
module W = Ir

exception Error of string

let errorf fmt = Printf.ksprintf (fun m -> raise (Error m)) fmt

let x = Reg.x
let w = Reg.w
let d n = Reg.Fp.v Reg.Fp.D n

let int_scratch = [ 9; 10; 11; 12; 13; 14; 15 ]
let fp_scratch = [ 16; 17; 18; 19; 20; 21; 22; 23 ]
let int_homes = [ 19; 20; 21; 22; 23; 24; 25 ]
let fp_homes = [ 8; 9; 10; 11; 12; 13; 14; 15 ]
let ctx_reg = 27
let heap_reg = 28
let heap_cache_reg = 26

(** Context-struct field offsets (cf. the Wasm2c sandbox struct). *)
let ctx_stack_limit_off = 8
let ctx_heap_base_off = 16

type vitem =
  | SInt of int  (** scratch register *)
  | SFlt of int
  | SConstI of int
  | SConstF of float
  | SSpillI of int  (** frame temp slot *)
  | SSpillF of int

type local_home = HReg of int | HFreg of int | HSlot of int | HFslot of int

type fctx = {
  eng : Engine.t;
  m : W.module_;
  findex : int;
  f : W.func;
  homes : local_home array;
  mutable vstack : vitem list;
  mutable scratch : int list;
  mutable fscratch : int list;
  temp_base : int;
  mutable temp_used : int;
  mutable label_counter : int;
  mutable labels : (string * [ `Fwd | `Back ]) list;
      (** innermost first: branch target of each enclosing construct *)
  mutable out : Source.item list;
  mutable heap_cached : bool;
  frame : int;
  epilogue : string;
}

let emit ctx i = ctx.out <- Source.Insn i :: ctx.out
(* The heap-base cache (x26) holds a constant value, so labels do not
   invalidate it; only calls (which clobber x26 in the callee) do.
   Structured-control joins are handled conservatively in
   [compile_instr]. *)
let emit_label ctx l = ctx.out <- Source.Label l :: ctx.out

let fresh ctx prefix =
  ctx.label_counter <- ctx.label_counter + 1;
  Printf.sprintf ".Lw%d_%s%d" ctx.findex prefix ctx.label_counter

let alloc_int ctx =
  match ctx.scratch with
  | r :: tl ->
      ctx.scratch <- tl;
      r
  | [] -> errorf "%s: operand stack too deep" ctx.f.W.name

let alloc_fp ctx =
  match ctx.fscratch with
  | r :: tl ->
      ctx.fscratch <- tl;
      r
  | [] -> errorf "%s: float operand stack too deep" ctx.f.W.name

let free_int ctx r = if List.mem r int_scratch then ctx.scratch <- r :: ctx.scratch
let free_fp ctx r = if List.mem r fp_scratch then ctx.fscratch <- r :: ctx.fscratch

let alloc_temp ctx =
  let slot = ctx.temp_base + (8 * ctx.temp_used) in
  ctx.temp_used <- ctx.temp_used + 1;
  if ctx.temp_used > 32 then errorf "%s: out of spill slots" ctx.f.W.name;
  slot

let mov_reg dst src =
  Insn.Alu { op = Insn.ORR; flags = false; dst = x dst; src = Reg.xzr;
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

(** Materialize a full 64-bit pattern (FP constant bits do not fit an
    OCaml int). *)
let emit_const64 ctx dst (v64 : int64) =
  let chunk k =
    Int64.to_int (Int64.logand (Int64.shift_right_logical v64 (16 * k)) 0xFFFFL)
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

let ldr_sp dst off =
  Insn.Ldr { sz = Insn.X; signed = false; dst = x dst;
             addr = Insn.Imm_off (Reg.sp, off) }

let str_sp src off =
  Insn.Str { sz = Insn.X; src = x src; addr = Insn.Imm_off (Reg.sp, off) }

let fldr_sp dst off = Insn.Fldr { dst = d dst; addr = Insn.Imm_off (Reg.sp, off) }
let fstr_sp src off = Insn.Fstr { src = d src; addr = Insn.Imm_off (Reg.sp, off) }

(* ------------------------------------------------------------------ *)
(* Virtual operand stack                                               *)
(* ------------------------------------------------------------------ *)

let push ctx item = ctx.vstack <- item :: ctx.vstack

(** Materialize the top-of-stack into an integer scratch register. *)
let pop_int ctx : int =
  match ctx.vstack with
  | [] -> errorf "%s: operand stack underflow" ctx.f.W.name
  | item :: tl -> (
      ctx.vstack <- tl;
      match item with
      | SInt r -> r
      | SConstI v ->
          let r = alloc_int ctx in
          emit_const ctx r v;
          r
      | SSpillI slot ->
          let r = alloc_int ctx in
          emit ctx (ldr_sp r slot);
          ctx.temp_used <- ctx.temp_used - 1;
          r
      | SFlt _ | SConstF _ | SSpillF _ ->
          errorf "%s: expected i64 operand" ctx.f.W.name)

let pop_fp ctx : int =
  match ctx.vstack with
  | [] -> errorf "%s: operand stack underflow" ctx.f.W.name
  | item :: tl -> (
      ctx.vstack <- tl;
      match item with
      | SFlt r -> r
      | SConstF v ->
          let r = alloc_fp ctx in
          let ri = alloc_int ctx in
          emit_const64 ctx ri (Int64.bits_of_float v);
          emit ctx (Insn.Fmov_to_fp { dst = d r; src = x ri });
          free_int ctx ri;
          r
      | SSpillF slot ->
          let r = alloc_fp ctx in
          emit ctx (fldr_sp r slot);
          ctx.temp_used <- ctx.temp_used - 1;
          r
      | SInt _ | SConstI _ | SSpillI _ ->
          errorf "%s: expected f64 operand" ctx.f.W.name)

(** Pop as either a register or a small immediate (for folding). *)
let pop_int_or_imm ctx : [ `Reg of int | `Imm of int ] =
  match ctx.vstack with
  | SConstI v :: tl when ctx.eng.Engine.codegen = Engine.Llvm && v >= 0 && v < 4096 ->
      ctx.vstack <- tl;
      `Imm v
  | _ -> `Reg (pop_int ctx)

(** Spill every live operand-stack value to frame slots (before a call
    clobbers the scratch registers). *)
let spill_all ctx =
  ctx.vstack <-
    List.rev_map
      (fun item ->
        match item with
        | SInt r ->
            let slot = alloc_temp ctx in
            emit ctx (str_sp r slot);
            free_int ctx r;
            SSpillI slot
        | SFlt r ->
            let slot = alloc_temp ctx in
            emit ctx (fstr_sp r slot);
            free_fp ctx r;
            SSpillF slot
        | item -> item)
      (List.rev ctx.vstack)

(* ------------------------------------------------------------------ *)
(* Heap addressing (the guard-page scheme)                             *)
(* ------------------------------------------------------------------ *)

(** Return a register holding the heap base. *)
let heap_base ctx : int =
  match ctx.eng.Engine.heap_base with
  | Engine.Pinned -> heap_reg
  | Engine.In_struct { barrier } ->
      if (not barrier) && ctx.heap_cached then heap_cache_reg
      else begin
        let dst = if barrier then alloc_int ctx else heap_cache_reg in
        emit ctx
          (Insn.Ldr { sz = Insn.X; signed = false; dst = x dst;
                      addr = Insn.Imm_off (x ctx_reg, ctx_heap_base_off) });
        if not barrier then ctx.heap_cached <- true;
        dst
      end

let release_heap_base ctx r =
  if r <> heap_reg && r <> heap_cache_reg then free_int ctx r

(** Compute the host address [base + zx(idx) + off].  With [off = 0]
    this is a single guarded addressing mode; otherwise the engine
    relies on its reserved guard region after the 4GiB memory. *)
let mem_addr ctx (off : int) : Insn.addr * (unit -> unit) =
  let idx = pop_int ctx in
  let base = heap_base ctx in
  if off = 0 then
    ( Insn.Reg_off (x base, w idx, Insn.Uxtw, 0),
      fun () ->
        free_int ctx idx;
        release_heap_base ctx base )
  else begin
    let t = alloc_int ctx in
    emit ctx
      (Insn.Alu { op = Insn.ADD; flags = false; dst = x t; src = x base;
                  op2 = Insn.Ext (w idx, Insn.Uxtw, 0) });
    free_int ctx idx;
    release_heap_base ctx base;
    ( Insn.Imm_off (x t, off),
      fun () -> free_int ctx t )
  end

(* ------------------------------------------------------------------ *)
(* Instruction compilation                                             *)
(* ------------------------------------------------------------------ *)

let func_label i (m : W.module_) = Printf.sprintf "wf%d_%s" i m.W.funcs.(i).W.name

let trap_label = "__wasm_trap"
let table_label = "__wasm_table"
let sigs_label = "__wasm_sigs"
let memory_label = "__wasm_memory"
let ctx_label = "__wasm_ctx"

let local_get ctx n =
  match ctx.homes.(n) with
  | HReg home ->
      let r = alloc_int ctx in
      emit ctx (mov_reg r home);
      push ctx (SInt r)
  | HFreg home ->
      let r = alloc_fp ctx in
      emit ctx (fmov_reg r home);
      push ctx (SFlt r)
  | HSlot off ->
      let r = alloc_int ctx in
      emit ctx (ldr_sp r off);
      push ctx (SInt r)
  | HFslot off ->
      let r = alloc_fp ctx in
      emit ctx (fldr_sp r off);
      push ctx (SFlt r)

let local_set ctx n =
  match ctx.homes.(n) with
  | HReg home ->
      let r = pop_int ctx in
      emit ctx (mov_reg home r);
      free_int ctx r
  | HFreg home ->
      let r = pop_fp ctx in
      emit ctx (fmov_reg home r);
      free_fp ctx r
  | HSlot off ->
      let r = pop_int ctx in
      emit ctx (str_sp r off);
      free_int ctx r
  | HFslot off ->
      let r = pop_fp ctx in
      emit ctx (fstr_sp r off);
      free_fp ctx r

let compile_ibin ctx (op : W.ibinop) =
  let fold = pop_int_or_imm ctx in
  let ra = pop_int ctx in
  let rr = alloc_int ctx in
  (match (op, fold) with
  | W.Add, `Imm v ->
      emit ctx
        (Insn.Alu { op = Insn.ADD; flags = false; dst = x rr; src = x ra;
                    op2 = Insn.Imm (v, 0) })
  | W.Sub, `Imm v ->
      emit ctx
        (Insn.Alu { op = Insn.SUB; flags = false; dst = x rr; src = x ra;
                    op2 = Insn.Imm (v, 0) })
  | W.Shl, `Imm v when v < 64 ->
      emit ctx
        (Insn.Bitfield { op = Insn.UBFM; dst = x rr; src = x ra;
                         immr = (64 - v) mod 64; imms = 63 - v })
  | W.Shr_s, `Imm v when v < 64 ->
      emit ctx
        (Insn.Bitfield { op = Insn.SBFM; dst = x rr; src = x ra; immr = v;
                         imms = 63 })
  | W.Shr_u, `Imm v when v < 64 ->
      emit ctx
        (Insn.Bitfield { op = Insn.UBFM; dst = x rr; src = x ra; immr = v;
                         imms = 63 })
  | W.Mul, `Imm v when v > 0 && v land (v - 1) = 0 ->
      let rec lg i = if 1 lsl i = v then i else lg (i + 1) in
      let s = lg 0 in
      emit ctx
        (Insn.Bitfield { op = Insn.UBFM; dst = x rr; src = x ra;
                         immr = (64 - s) mod 64; imms = 63 - s })
  | _, fold ->
      let rb =
        match fold with
        | `Reg r -> r
        | `Imm v ->
            let r = alloc_int ctx in
            emit_const ctx r v;
            r
      in
      (match op with
      | W.Add | W.Sub | W.And | W.Or | W.Xor ->
          let aop =
            match op with
            | W.Add -> Insn.ADD
            | W.Sub -> Insn.SUB
            | W.And -> Insn.AND
            | W.Or -> Insn.ORR
            | _ -> Insn.EOR
          in
          emit ctx
            (Insn.Alu { op = aop; flags = false; dst = x rr; src = x ra;
                        op2 = Insn.Sh (x rb, Insn.Lsl, 0) })
      | W.Mul ->
          emit ctx
            (Insn.Madd { sub = false; dst = x rr; src1 = x ra; src2 = x rb;
                         acc = Reg.xzr })
      | W.Div_s ->
          emit ctx
            (Insn.Div { signed = true; dst = x rr; src1 = x ra; src2 = x rb })
      | W.Rem_s ->
          let q = alloc_int ctx in
          emit ctx
            (Insn.Div { signed = true; dst = x q; src1 = x ra; src2 = x rb });
          emit ctx
            (Insn.Madd { sub = true; dst = x rr; src1 = x q; src2 = x rb;
                         acc = x ra });
          free_int ctx q
      | W.Shl ->
          emit ctx (Insn.Shiftv { op = Insn.Lsl; dst = x rr; src = x ra;
                                  amount = x rb })
      | W.Shr_s ->
          emit ctx (Insn.Shiftv { op = Insn.Asr; dst = x rr; src = x ra;
                                  amount = x rb })
      | W.Shr_u ->
          emit ctx (Insn.Shiftv { op = Insn.Lsr; dst = x rr; src = x ra;
                                  amount = x rb }));
      free_int ctx rb);
  free_int ctx ra;
  push ctx (SInt rr)

let cond_of_icmp = function
  | W.Eq -> Insn.EQ
  | W.Ne -> Insn.NE
  | W.Lt_s -> Insn.LT
  | W.Le_s -> Insn.LE
  | W.Gt_s -> Insn.GT
  | W.Ge_s -> Insn.GE
  | W.Lt_u -> Insn.CC

let compile_icmp ctx (op : W.icmp) =
  let fold = pop_int_or_imm ctx in
  let ra = pop_int ctx in
  (match fold with
  | `Imm v ->
      emit ctx
        (Insn.Alu { op = Insn.SUB; flags = true; dst = Reg.xzr; src = x ra;
                    op2 = Insn.Imm (v, 0) })
  | `Reg rb ->
      emit ctx
        (Insn.Alu { op = Insn.SUB; flags = true; dst = Reg.xzr; src = x ra;
                    op2 = Insn.Sh (x rb, Insn.Lsl, 0) });
      free_int ctx rb);
  free_int ctx ra;
  let rr = alloc_int ctx in
  emit ctx
    (Insn.Csel { op = Insn.CSINC; dst = x rr; src1 = Reg.xzr;
                 src2 = Reg.xzr; cond = Insn.invert_cond (cond_of_icmp op) });
  push ctx (SInt rr)

let compile_load ctx (e : W.elt) off =
  let addr, release = mem_addr ctx off in
  (match e with
  | Lfi_minic.Ast.F64 ->
      let r = alloc_fp ctx in
      emit ctx (Insn.Fldr { dst = d r; addr });
      push ctx (SFlt r)
  | Lfi_minic.Ast.F32 ->
      let r = alloc_fp ctx in
      let s = Reg.Fp.v Reg.Fp.S r in
      emit ctx (Insn.Fldr { dst = s; addr });
      emit ctx (Insn.Fcvt { dst = d r; src = s });
      push ctx (SFlt r)
  | e ->
      let r = alloc_int ctx in
      (match e with
      | Lfi_minic.Ast.U8 ->
          emit ctx (Insn.Ldr { sz = Insn.B; signed = false; dst = w r; addr })
      | Lfi_minic.Ast.U16 ->
          emit ctx (Insn.Ldr { sz = Insn.H; signed = false; dst = w r; addr })
      | Lfi_minic.Ast.I32 ->
          emit ctx (Insn.Ldr { sz = Insn.W; signed = true; dst = x r; addr })
      | _ ->
          emit ctx
            (Insn.Ldr { sz = Insn.X; signed = false; dst = x r; addr }));
      push ctx (SInt r));
  release ()

let compile_store ctx (e : W.elt) off =
  match e with
  | Lfi_minic.Ast.F64 | Lfi_minic.Ast.F32 ->
      let rv = pop_fp ctx in
      let addr, release = mem_addr ctx off in
      (match e with
      | Lfi_minic.Ast.F64 -> emit ctx (Insn.Fstr { src = d rv; addr })
      | _ ->
          let s = Reg.Fp.v Reg.Fp.S rv in
          emit ctx (Insn.Fcvt { dst = s; src = d rv });
          emit ctx (Insn.Fstr { src = s; addr }));
      release ();
      free_fp ctx rv
  | e ->
      let rv = pop_int ctx in
      let addr, release = mem_addr ctx off in
      (match e with
      | Lfi_minic.Ast.U8 -> emit ctx (Insn.Str { sz = Insn.B; src = w rv; addr })
      | Lfi_minic.Ast.U16 -> emit ctx (Insn.Str { sz = Insn.H; src = w rv; addr })
      | Lfi_minic.Ast.I32 -> emit ctx (Insn.Str { sz = Insn.W; src = w rv; addr })
      | _ -> emit ctx (Insn.Str { sz = Insn.X; src = x rv; addr }));
      release ();
      free_int ctx rv

(** Move the top [n] operands into the argument registers. *)
let marshal_args ctx (params : W.valtype list) =
  let n = List.length params in
  let args = ref [] in
  for _ = 1 to n do
    match ctx.vstack with
    | item :: tl ->
        ctx.vstack <- tl;
        args := item :: !args
    | [] -> errorf "%s: call underflow" ctx.f.W.name
  done;
  let ii = ref 0 and fi = ref 0 in
  List.iter2
    (fun (t : W.valtype) item ->
      match t with
      | W.I64 ->
          (match item with
          | SInt r ->
              emit ctx (mov_reg !ii r);
              free_int ctx r
          | SConstI v -> emit_const ctx !ii v
          | SSpillI slot ->
              emit ctx (ldr_sp !ii slot);
              ctx.temp_used <- ctx.temp_used - 1
          | _ -> errorf "argument type mismatch");
          incr ii
      | W.F64 ->
          (match item with
          | SFlt r ->
              emit ctx (fmov_reg !fi r);
              free_fp ctx r
          | SConstF v ->
              let ri = alloc_int ctx in
              emit_const64 ctx ri (Int64.bits_of_float v);
              emit ctx (Insn.Fmov_to_fp { dst = d !fi; src = x ri });
              free_int ctx ri
          | SSpillF slot ->
              emit ctx (fldr_sp !fi slot);
              ctx.temp_used <- ctx.temp_used - 1
          | _ -> errorf "argument type mismatch");
          incr fi)
    params !args

let push_result ctx (t : W.valtype) =
  match t with
  | W.I64 ->
      let r = alloc_int ctx in
      emit ctx (mov_reg r 0);
      push ctx (SInt r)
  | W.F64 ->
      let r = alloc_fp ctx in
      emit ctx (fmov_reg r 0);
      push ctx (SFlt r)

(* Does this code call anything (clobbering the heap-base cache)? *)
let rec w_has_call (body : W.instr list) =
  List.exists
    (fun (i : W.instr) ->
      match i with
      | W.Call _ | W.Call_indirect _ | W.Host_call _ -> true
      | W.Block b | W.Loop b -> w_has_call b
      | W.If (t, e) -> w_has_call t || w_has_call e
      | _ -> false)
    body

let rec compile_instr ctx (i : W.instr) =
  match i with
  | W.Const v ->
      if ctx.eng.Engine.codegen = Engine.Llvm then push ctx (SConstI v)
      else begin
        let r = alloc_int ctx in
        emit_const ctx r v;
        push ctx (SInt r)
      end
  | W.Fconst v -> push ctx (SConstF v)
  | W.Local_get n -> local_get ctx n
  | W.Local_set n -> local_set ctx n
  | W.Ibin op -> compile_ibin ctx op
  | W.Icmp op -> compile_icmp ctx op
  | W.Fbin op ->
      let rb = pop_fp ctx in
      let ra = pop_fp ctx in
      let rr = alloc_fp ctx in
      let fop =
        match op with
        | W.Fadd -> Insn.FADD
        | W.Fsub -> Insn.FSUB
        | W.Fmul -> Insn.FMUL
        | W.Fdiv -> Insn.FDIV
      in
      emit ctx (Insn.Fop2 { op = fop; dst = d rr; src1 = d ra; src2 = d rb });
      free_fp ctx ra;
      free_fp ctx rb;
      push ctx (SFlt rr)
  | W.Fcmp op ->
      let rb = pop_fp ctx in
      let ra = pop_fp ctx in
      emit ctx (Insn.Fcmp { src1 = d ra; src2 = Some (d rb) });
      free_fp ctx ra;
      free_fp ctx rb;
      let cond =
        match op with W.Feq -> Insn.EQ | W.Flt -> Insn.MI | W.Fle -> Insn.LS
      in
      let rr = alloc_int ctx in
      emit ctx
        (Insn.Csel { op = Insn.CSINC; dst = x rr; src1 = Reg.xzr;
                     src2 = Reg.xzr; cond = Insn.invert_cond cond });
      push ctx (SInt rr)
  | W.Ineg ->
      let ra = pop_int ctx in
      let rr = alloc_int ctx in
      emit ctx
        (Insn.Alu { op = Insn.SUB; flags = false; dst = x rr; src = Reg.xzr;
                    op2 = Insn.Sh (x ra, Insn.Lsl, 0) });
      free_int ctx ra;
      push ctx (SInt rr)
  | W.Inot ->
      let ra = pop_int ctx in
      let rr = alloc_int ctx in
      emit ctx
        (Insn.Alu { op = Insn.ORN; flags = false; dst = x rr; src = Reg.xzr;
                    op2 = Insn.Sh (x ra, Insn.Lsl, 0) });
      free_int ctx ra;
      push ctx (SInt rr)
  | W.Fneg | W.Fsqrt | W.Fabs ->
      let ra = pop_fp ctx in
      let rr = alloc_fp ctx in
      let op =
        match i with
        | W.Fneg -> Insn.FNEG
        | W.Fsqrt -> Insn.FSQRT
        | _ -> Insn.FABS
      in
      emit ctx (Insn.Fop1 { op; dst = d rr; src = d ra });
      free_fp ctx ra;
      push ctx (SFlt rr)
  | W.I_to_f ->
      let ra = pop_int ctx in
      let rr = alloc_fp ctx in
      emit ctx (Insn.Scvtf { signed = true; dst = d rr; src = x ra });
      free_int ctx ra;
      push ctx (SFlt rr)
  | W.F_to_i ->
      let ra = pop_fp ctx in
      let rr = alloc_int ctx in
      emit ctx (Insn.Fcvtzs { signed = true; dst = x rr; src = d ra });
      free_fp ctx ra;
      push ctx (SInt rr)
  | W.Load (e, off) -> compile_load ctx e off
  | W.Store (e, off) -> compile_store ctx e off
  | W.Call n ->
      spill_all ctx;
      let callee = ctx.m.W.funcs.(n) in
      marshal_args ctx callee.W.ftype.params;
      emit ctx (Insn.Bl (Insn.Sym (func_label n ctx.m)));
      ctx.heap_cached <- false;
      push_result ctx callee.W.ftype.result
  | W.Call_indirect tyn ->
      spill_all ctx;
      let ft = List.nth ctx.m.W.types tyn in
      let idx = pop_int ctx in
      marshal_args ctx ft.W.params;
      (* bounds + signature checks (the cost Wasm pays that LFI does
         not, §6.2) *)
      if ctx.eng.Engine.indirect_checks then begin
        emit ctx
          (Insn.Alu { op = Insn.SUB; flags = true; dst = Reg.xzr;
                      src = x idx;
                      op2 = Insn.Imm (Array.length ctx.m.W.table, 0) });
        emit ctx (Insn.Bcond (Insn.CS, Insn.Sym trap_label));
        let rs = alloc_int ctx in
        emit ctx (Insn.Adr { page = false; dst = x rs; target = Insn.Sym sigs_label });
        emit ctx
          (Insn.Ldr { sz = Insn.X; signed = false; dst = x rs;
                      addr = Insn.Reg_off (x rs, x idx, Insn.Uxtx, 3) });
        emit ctx
          (Insn.Alu { op = Insn.SUB; flags = true; dst = Reg.xzr; src = x rs;
                      op2 = Insn.Imm (tyn, 0) });
        emit ctx (Insn.Bcond (Insn.NE, Insn.Sym trap_label));
        free_int ctx rs
      end;
      let rt = alloc_int ctx in
      emit ctx (Insn.Adr { page = false; dst = x rt; target = Insn.Sym table_label });
      emit ctx
        (Insn.Ldr { sz = Insn.X; signed = false; dst = x rt;
                    addr = Insn.Reg_off (x rt, x idx, Insn.Uxtx, 3) });
      emit ctx (Insn.Blr (x rt));
      free_int ctx rt;
      free_int ctx idx;
      ctx.heap_cached <- false;
      push_result ctx ft.W.result
  | W.Host_call (k, arity) ->
      spill_all ctx;
      marshal_args ctx (List.init arity (fun _ -> W.I64));
      emit ctx (Insn.Svc k);
      ctx.heap_cached <- false;
      push_result ctx W.I64
  | W.Drop -> (
      match ctx.vstack with
      | item :: tl ->
          ctx.vstack <- tl;
          (match item with
          | SInt r -> free_int ctx r
          | SFlt r -> free_fp ctx r
          | SSpillI _ | SSpillF _ -> ctx.temp_used <- ctx.temp_used - 1
          | SConstI _ | SConstF _ -> ())
      | [] -> errorf "drop on empty stack")
  | W.Block body ->
      let lend = fresh ctx "bend" in
      let before = ctx.heap_cached in
      ctx.labels <- (lend, `Fwd) :: ctx.labels;
      List.iter (compile_instr ctx) body;
      ctx.labels <- List.tl ctx.labels;
      emit_label ctx lend;
      ctx.heap_cached <- before && ctx.heap_cached
  | W.Loop body ->
      let lstart = fresh ctx "loop" in
      (* the cache survives the backedge unless the body calls out
         (x26 is only clobbered by callees) *)
      let clobbered = w_has_call body in
      emit_label ctx lstart;
      if clobbered then ctx.heap_cached <- false;
      ctx.labels <- (lstart, `Back) :: ctx.labels;
      List.iter (compile_instr ctx) body;
      ctx.labels <- List.tl ctx.labels;
      if clobbered then ctx.heap_cached <- false
  | W.If (then_b, else_b) ->
      let lelse = fresh ctx "else" and lend = fresh ctx "iend" in
      let rc = pop_int ctx in
      let first_target = if else_b = [] then lend else lelse in
      emit ctx
        (Insn.Cbz { nz = false; reg = x rc; target = Insn.Sym first_target });
      free_int ctx rc;
      let before = ctx.heap_cached in
      ctx.labels <- (lend, `Fwd) :: ctx.labels;
      List.iter (compile_instr ctx) then_b;
      let after_then = ctx.heap_cached in
      ctx.heap_cached <- before;
      if else_b <> [] then begin
        emit ctx (Insn.B (Insn.Sym lend));
        emit_label ctx lelse;
        List.iter (compile_instr ctx) else_b
      end;
      ctx.labels <- List.tl ctx.labels;
      emit_label ctx lend;
      ctx.heap_cached <- before && after_then && ctx.heap_cached
  | W.Br n ->
      let lbl, _ = List.nth ctx.labels n in
      emit ctx (Insn.B (Insn.Sym lbl))
  | W.Br_if n ->
      let lbl, _ = List.nth ctx.labels n in
      let rc = pop_int ctx in
      emit ctx (Insn.Cbz { nz = true; reg = x rc; target = Insn.Sym lbl });
      free_int ctx rc
  | W.Return ->
      (match ctx.f.W.ftype.result with
      | W.I64 ->
          let r = pop_int ctx in
          emit ctx (mov_reg 0 r);
          free_int ctx r
      | W.F64 ->
          let r = pop_fp ctx in
          emit ctx (fmov_reg 0 r);
          free_fp ctx r);
      emit ctx (Insn.B (Insn.Sym ctx.epilogue))

(* ------------------------------------------------------------------ *)
(* Functions                                                           *)
(* ------------------------------------------------------------------ *)

let compile_func (eng : Engine.t) (m : W.module_) (findex : int) :
    Source.item list =
  let f = m.W.funcs.(findex) in
  let all_locals = Array.of_list (f.W.ftype.params @ f.W.locals) in
  let n_locals = Array.length all_locals in
  let homes = Array.make (max n_locals 1) (HSlot 0) in
  let used_int = ref [] and used_fp = ref [] in
  let slot_off = ref 0 in
  let ih = ref int_homes and fh = ref fp_homes in
  Array.iteri
    (fun k t ->
      match (eng.Engine.codegen, (t : W.valtype)) with
      | Engine.Llvm, W.I64 -> (
          match !ih with
          | h :: tl ->
              ih := tl;
              used_int := h :: !used_int;
              homes.(k) <- HReg h
          | [] ->
              homes.(k) <- HSlot !slot_off;
              slot_off := !slot_off + 8)
      | Engine.Llvm, W.F64 -> (
          match !fh with
          | h :: tl ->
              fh := tl;
              used_fp := h :: !used_fp;
              homes.(k) <- HFreg h
          | [] ->
              homes.(k) <- HFslot !slot_off;
              slot_off := !slot_off + 8)
      | Engine.Cranelift, W.I64 ->
          homes.(k) <- HSlot !slot_off;
          slot_off := !slot_off + 8
      | Engine.Cranelift, W.F64 ->
          homes.(k) <- HFslot !slot_off;
          slot_off := !slot_off + 8)
    all_locals;
  let n_int_saves = List.length !used_int and n_fp_saves = List.length !used_fp in
  let save_area = (16 + (8 * (n_int_saves + n_fp_saves)) + 15) / 16 * 16 in
  (* shift local slots past the save area *)
  Array.iteri
    (fun k h ->
      homes.(k) <-
        (match h with
        | HSlot o -> HSlot (save_area + o)
        | HFslot o -> HFslot (save_area + o)
        | h -> h))
    homes;
  let temp_base = save_area + !slot_off in
  let frame = (temp_base + (32 * 8) + 15) / 16 * 16 in
  let ctx =
    {
      eng; m; findex; f; homes;
      vstack = [];
      scratch = int_scratch;
      fscratch = fp_scratch;
      temp_base;
      temp_used = 0;
      label_counter = 0;
      labels = [];
      out = [];
      heap_cached = false;
      frame;
      epilogue = Printf.sprintf ".Lw%d_ret" findex;
    }
  in
  emit_label ctx (func_label findex m);
  emit ctx
    (Insn.Alu { op = Insn.SUB; flags = false; dst = Reg.sp; src = Reg.sp;
                op2 = Insn.Imm (frame, 0) });
  emit ctx
    (Insn.Stp { w = Reg.W64; r1 = Reg.x 29; r2 = Reg.x 30;
                addr = Insn.Imm_off (Reg.sp, 0) });
  (* WAMR-style stack overflow check *)
  if eng.Engine.stack_check then begin
    emit ctx
      (Insn.Ldr { sz = Insn.X; signed = false; dst = x 9;
                  addr = Insn.Imm_off (x ctx_reg, ctx_stack_limit_off) });
    emit ctx
      (Insn.Alu { op = Insn.SUB; flags = true; dst = Reg.xzr; src = Reg.sp;
                  op2 = Insn.Ext (x 9, Insn.Uxtx, 0) });
    emit ctx (Insn.Bcond (Insn.CC, Insn.Sym trap_label))
  end;
  List.iteri (fun k r -> emit ctx (str_sp r (16 + (8 * k)))) (List.rev !used_int);
  List.iteri
    (fun k r -> emit ctx (fstr_sp r (16 + (8 * (n_int_saves + k)))))
    (List.rev !used_fp);
  (* incoming arguments *)
  let ii = ref 0 and fi = ref 0 in
  List.iteri
    (fun k (t : W.valtype) ->
      match t with
      | W.I64 ->
          (match homes.(k) with
          | HReg h -> emit ctx (mov_reg h !ii)
          | HSlot off -> emit ctx (str_sp !ii off)
          | _ -> assert false);
          incr ii
      | W.F64 ->
          (match homes.(k) with
          | HFreg h -> emit ctx (fmov_reg h !fi)
          | HFslot off -> emit ctx (fstr_sp !fi off)
          | _ -> assert false);
          incr fi)
    f.W.ftype.params;
  (* non-barrier struct engines keep the heap base cached like LLVM's
     redundant-load elimination would: one load at function entry *)
  (match eng.Engine.heap_base with
  | Engine.In_struct { barrier = false } ->
      emit ctx
        (Insn.Ldr { sz = Insn.X; signed = false; dst = x heap_cache_reg;
                    addr = Insn.Imm_off (x ctx_reg, ctx_heap_base_off) });
      ctx.heap_cached <- true
  | _ -> ());
  (* zero-initialize non-parameter locals (Wasm semantics) *)
  let nparams = List.length f.W.ftype.params in
  Array.iteri
    (fun k (t : W.valtype) ->
      if k >= nparams then
        match (t, homes.(k)) with
        | W.I64, HReg h ->
            emit ctx (Insn.Mov { op = Insn.MOVZ; dst = x h; imm = 0; hw = 0 })
        | W.I64, HSlot off ->
            emit ctx
              (Insn.Str { sz = Insn.X; src = Reg.xzr;
                          addr = Insn.Imm_off (Reg.sp, off) })
        | W.F64, HFreg h ->
            emit ctx (Insn.Fmov_to_fp { dst = d h; src = Reg.xzr })
        | W.F64, HFslot off ->
            emit ctx
              (Insn.Str { sz = Insn.X; src = Reg.xzr;
                          addr = Insn.Imm_off (Reg.sp, off) })
        | _ -> assert false)
    all_locals;
  List.iter (compile_instr ctx) f.W.body;
  emit_label ctx ctx.epilogue;
  List.iteri (fun k r -> emit ctx (ldr_sp r (16 + (8 * k)))) (List.rev !used_int);
  List.iteri
    (fun k r -> emit ctx (fldr_sp r (16 + (8 * (n_int_saves + k)))))
    (List.rev !used_fp);
  emit ctx
    (Insn.Ldp { w = Reg.W64; r1 = Reg.x 29; r2 = Reg.x 30;
                addr = Insn.Imm_off (Reg.sp, 0) });
  emit ctx
    (Insn.Alu { op = Insn.ADD; flags = false; dst = Reg.sp; src = Reg.sp;
                op2 = Insn.Imm (frame, 0) });
  emit ctx (Insn.Ret (Reg.x 30));
  List.rev ctx.out

(* ------------------------------------------------------------------ *)
(* Module                                                              *)
(* ------------------------------------------------------------------ *)

(** Emit the linear memory region with data segments spliced in. *)
let memory_items (m : W.module_) : Source.item list =
  let total = m.W.memory_pages * 65536 in
  let segs = List.sort (fun a b -> compare a.W.offset b.W.offset) m.W.data in
  let items = ref [ Source.Label memory_label ] in
  let pos = ref 0 in
  List.iter
    (fun (s : W.data_segment) ->
      if s.W.offset > !pos then
        items := Source.Directive (".zero", string_of_int (s.W.offset - !pos)) :: !items;
      let bytes =
        String.concat ", "
          (List.init (String.length s.W.bytes) (fun k ->
               string_of_int (Char.code s.W.bytes.[k])))
      in
      if bytes <> "" then items := Source.Directive (".byte", bytes) :: !items;
      pos := s.W.offset + String.length s.W.bytes)
    segs;
  if total > !pos then
    items := Source.Directive (".zero", string_of_int (total - !pos)) :: !items;
  List.rev !items

(** Compile a validated module to ARM64 assembly. *)
let compile (eng : Engine.t) (m : W.module_) : Source.t =
  (match Validate.validate m with
  | Ok () -> ()
  | Error e -> errorf "module does not validate: %s: %s" e.Validate.func e.Validate.msg);
  let start =
    [ Source.Directive (".text", "");
      Source.Label "_start";
      Source.Insn (Insn.Adr { page = false; dst = x ctx_reg;
                              target = Insn.Sym ctx_label });
      Source.Insn
        (Insn.Ldr { sz = Insn.X; signed = false; dst = x heap_reg;
                    addr = Insn.Imm_off (x ctx_reg, ctx_heap_base_off) });
      Source.Insn (Insn.Bl (Insn.Sym (func_label m.W.start m)));
      Source.Insn (Insn.Svc Lfi_runtime.Sysno.exit);
      Source.Insn (Insn.B (Insn.Sym "_start"));
      Source.Label trap_label;
      Source.Insn (Insn.Mov { op = Insn.MOVZ; dst = x 0; imm = 139; hw = 0 });
      Source.Insn (Insn.Svc Lfi_runtime.Sysno.exit);
      Source.Insn (Insn.B (Insn.Sym trap_label)) ]
  in
  let funcs =
    List.concat (List.init (Array.length m.W.funcs) (compile_func eng m))
  in
  (* function signature table for indirect-call checks *)
  let sig_of n =
    let f = m.W.funcs.(n) in
    let rec idx k = function
      | [] -> -1
      | t :: tl -> if t = f.W.ftype then k else idx (k + 1) tl
    in
    idx 0 m.W.types
  in
  let data =
    Source.Directive (".data", "")
    :: Source.Directive (".balign", "16")
    :: Source.Label ctx_label
    :: Source.Directive (".quad", "0") (* reserved *)
    :: Source.Directive
         ( ".quad",
           string_of_int
             (Lfi_core.Layout.stack_top - (1 lsl 20) + 4096) )
       (* stack limit *)
    :: Source.Directive (".quad", memory_label) (* heap base *)
    :: Source.Label sigs_label
    :: (Array.to_list m.W.table
       |> List.map (fun fi -> Source.Directive (".quad", string_of_int (sig_of fi))))
    @ Source.Label table_label
      :: (Array.to_list m.W.table
         |> List.map (fun fi -> Source.Directive (".quad", func_label fi m)))
    @ Source.Directive (".balign", "16") :: memory_items m
  in
  start @ funcs @ data
