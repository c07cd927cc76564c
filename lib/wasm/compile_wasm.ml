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
module Frame = Lfi_minic.Frame

exception Error = Frame.Error

let errorf = Frame.errorf

let x = Reg.x
let w = Reg.w
let d n = Reg.Fp.v Reg.Fp.D n

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

type fctx = {
  eng : Engine.t;
  m : W.module_;
  findex : int;
  f : W.func;
  fr : Frame.t;  (** homes are indexed by local number *)
  mutable vstack : vitem list;
  mutable label_counter : int;
  mutable labels : (string * [ `Fwd | `Back ]) list;
      (** innermost first: branch target of each enclosing construct *)
  mutable heap_cached : bool;
  epilogue : string;
}

let emit ctx i = Frame.emit ctx.fr i
(* The heap-base cache (x26) holds a constant value, so labels do not
   invalidate it; only calls (which clobber x26 in the callee) do.
   Structured-control joins are handled conservatively in
   [compile_instr]. *)
let emit_label ctx l = Frame.label ctx.fr l

let fresh ctx prefix =
  ctx.label_counter <- ctx.label_counter + 1;
  Printf.sprintf ".Lw%d_%s%d" ctx.findex prefix ctx.label_counter

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
          let r = Frame.alloc_int ctx.fr in
          Frame.const ctx.fr r v;
          r
      | SSpillI slot ->
          let r = Frame.alloc_int ctx.fr in
          emit ctx (Frame.ldr_sp r slot);
          Frame.free_temp ctx.fr;
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
          let r = Frame.alloc_fp ctx.fr in
          let ri = Frame.alloc_int ctx.fr in
          Frame.const64 ctx.fr ri (Int64.bits_of_float v);
          emit ctx (Insn.Fmov_to_fp { dst = d r; src = x ri });
          Frame.free_int ctx.fr ri;
          r
      | SSpillF slot ->
          let r = Frame.alloc_fp ctx.fr in
          emit ctx (Frame.fldr_sp r slot);
          Frame.free_temp ctx.fr;
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
            let slot = Frame.alloc_temp ctx.fr in
            emit ctx (Frame.str_sp r slot);
            Frame.free_int ctx.fr r;
            SSpillI slot
        | SFlt r ->
            let slot = Frame.alloc_temp ctx.fr in
            emit ctx (Frame.fstr_sp r slot);
            Frame.free_fp ctx.fr r;
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
        let dst = if barrier then Frame.alloc_int ctx.fr else heap_cache_reg in
        emit ctx
          (Insn.Ldr { sz = Insn.X; signed = false; dst = x dst;
                      addr = Insn.Imm_off (x ctx_reg, ctx_heap_base_off) });
        if not barrier then ctx.heap_cached <- true;
        dst
      end

let release_heap_base ctx r =
  if r <> heap_reg && r <> heap_cache_reg then Frame.free_int ctx.fr r

(** Compute the host address [base + zx(idx) + off].  With [off = 0]
    this is a single guarded addressing mode; otherwise the engine
    relies on its reserved guard region after the 4GiB memory. *)
let mem_addr ctx (off : int) : Insn.addr * (unit -> unit) =
  let idx = pop_int ctx in
  let base = heap_base ctx in
  if off = 0 then
    ( Insn.Reg_off (x base, w idx, Insn.Uxtw, 0),
      fun () ->
        Frame.free_int ctx.fr idx;
        release_heap_base ctx base )
  else begin
    let t = Frame.alloc_int ctx.fr in
    emit ctx
      (Insn.Alu { op = Insn.ADD; flags = false; dst = x t; src = x base;
                  op2 = Insn.Ext (w idx, Insn.Uxtw, 0) });
    Frame.free_int ctx.fr idx;
    release_heap_base ctx base;
    ( Insn.Imm_off (x t, off),
      fun () -> Frame.free_int ctx.fr t )
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
  let h = ctx.fr.Frame.homes.(n) in
  match h with
  | Frame.Reg _ | Frame.Slot _ ->
      let r = Frame.alloc_int ctx.fr in
      Frame.load_home ctx.fr h r;
      push ctx (SInt r)
  | Frame.Freg _ | Frame.Fslot _ ->
      let r = Frame.alloc_fp ctx.fr in
      Frame.load_home ctx.fr h r;
      push ctx (SFlt r)

let local_set ctx n =
  let h = ctx.fr.Frame.homes.(n) in
  match h with
  | Frame.Reg _ | Frame.Slot _ ->
      let r = pop_int ctx in
      Frame.store_home ctx.fr h r;
      Frame.free_int ctx.fr r
  | Frame.Freg _ | Frame.Fslot _ ->
      let r = pop_fp ctx in
      Frame.store_home ctx.fr h r;
      Frame.free_fp ctx.fr r

let compile_ibin ctx (op : W.ibinop) =
  let fold = pop_int_or_imm ctx in
  let ra = pop_int ctx in
  let rr = Frame.alloc_int ctx.fr in
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
            let r = Frame.alloc_int ctx.fr in
            Frame.const ctx.fr r v;
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
          let q = Frame.alloc_int ctx.fr in
          emit ctx
            (Insn.Div { signed = true; dst = x q; src1 = x ra; src2 = x rb });
          emit ctx
            (Insn.Madd { sub = true; dst = x rr; src1 = x q; src2 = x rb;
                         acc = x ra });
          Frame.free_int ctx.fr q
      | W.Shl ->
          emit ctx (Insn.Shiftv { op = Insn.Lsl; dst = x rr; src = x ra;
                                  amount = x rb })
      | W.Shr_s ->
          emit ctx (Insn.Shiftv { op = Insn.Asr; dst = x rr; src = x ra;
                                  amount = x rb })
      | W.Shr_u ->
          emit ctx (Insn.Shiftv { op = Insn.Lsr; dst = x rr; src = x ra;
                                  amount = x rb }));
      Frame.free_int ctx.fr rb);
  Frame.free_int ctx.fr ra;
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
      Frame.free_int ctx.fr rb);
  Frame.free_int ctx.fr ra;
  let rr = Frame.alloc_int ctx.fr in
  emit ctx
    (Insn.Csel { op = Insn.CSINC; dst = x rr; src1 = Reg.xzr;
                 src2 = Reg.xzr; cond = Insn.invert_cond (cond_of_icmp op) });
  push ctx (SInt rr)

let compile_load ctx (e : W.elt) off =
  let addr, release = mem_addr ctx off in
  let float = Lfi_minic.Ast.elt_is_float e in
  let r = if float then Frame.alloc_fp ctx.fr else Frame.alloc_int ctx.fr in
  Frame.load ctx.fr e r addr;
  push ctx (if float then SFlt r else SInt r);
  release ()

let compile_store ctx (e : W.elt) off =
  let float = Lfi_minic.Ast.elt_is_float e in
  let rv = if float then pop_fp ctx else pop_int ctx in
  let addr, release = mem_addr ctx off in
  Frame.store ctx.fr e rv addr;
  release ();
  (if float then Frame.free_fp else Frame.free_int) ctx.fr rv

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
              emit ctx (Frame.mov_reg !ii r);
              Frame.free_int ctx.fr r
          | SConstI v -> Frame.const ctx.fr !ii v
          | SSpillI slot ->
              emit ctx (Frame.ldr_sp !ii slot);
              Frame.free_temp ctx.fr
          | _ -> errorf "argument type mismatch");
          incr ii
      | W.F64 ->
          (match item with
          | SFlt r ->
              emit ctx (Frame.fmov_reg !fi r);
              Frame.free_fp ctx.fr r
          | SConstF v ->
              let ri = Frame.alloc_int ctx.fr in
              Frame.const64 ctx.fr ri (Int64.bits_of_float v);
              emit ctx (Insn.Fmov_to_fp { dst = d !fi; src = x ri });
              Frame.free_int ctx.fr ri
          | SSpillF slot ->
              emit ctx (Frame.fldr_sp !fi slot);
              Frame.free_temp ctx.fr
          | _ -> errorf "argument type mismatch");
          incr fi)
    params !args

let push_result ctx (t : W.valtype) =
  match t with
  | W.I64 ->
      let r = Frame.alloc_int ctx.fr in
      emit ctx (Frame.mov_reg r 0);
      push ctx (SInt r)
  | W.F64 ->
      let r = Frame.alloc_fp ctx.fr in
      emit ctx (Frame.fmov_reg r 0);
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
        let r = Frame.alloc_int ctx.fr in
        Frame.const ctx.fr r v;
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
      let rr = Frame.alloc_fp ctx.fr in
      let fop =
        match op with
        | W.Fadd -> Insn.FADD
        | W.Fsub -> Insn.FSUB
        | W.Fmul -> Insn.FMUL
        | W.Fdiv -> Insn.FDIV
      in
      emit ctx (Insn.Fop2 { op = fop; dst = d rr; src1 = d ra; src2 = d rb });
      Frame.free_fp ctx.fr ra;
      Frame.free_fp ctx.fr rb;
      push ctx (SFlt rr)
  | W.Fcmp op ->
      let rb = pop_fp ctx in
      let ra = pop_fp ctx in
      emit ctx (Insn.Fcmp { src1 = d ra; src2 = Some (d rb) });
      Frame.free_fp ctx.fr ra;
      Frame.free_fp ctx.fr rb;
      let cond =
        match op with W.Feq -> Insn.EQ | W.Flt -> Insn.MI | W.Fle -> Insn.LS
      in
      let rr = Frame.alloc_int ctx.fr in
      emit ctx
        (Insn.Csel { op = Insn.CSINC; dst = x rr; src1 = Reg.xzr;
                     src2 = Reg.xzr; cond = Insn.invert_cond cond });
      push ctx (SInt rr)
  | W.Ineg ->
      let ra = pop_int ctx in
      let rr = Frame.alloc_int ctx.fr in
      emit ctx
        (Insn.Alu { op = Insn.SUB; flags = false; dst = x rr; src = Reg.xzr;
                    op2 = Insn.Sh (x ra, Insn.Lsl, 0) });
      Frame.free_int ctx.fr ra;
      push ctx (SInt rr)
  | W.Inot ->
      let ra = pop_int ctx in
      let rr = Frame.alloc_int ctx.fr in
      emit ctx
        (Insn.Alu { op = Insn.ORN; flags = false; dst = x rr; src = Reg.xzr;
                    op2 = Insn.Sh (x ra, Insn.Lsl, 0) });
      Frame.free_int ctx.fr ra;
      push ctx (SInt rr)
  | W.Fneg | W.Fsqrt | W.Fabs ->
      let ra = pop_fp ctx in
      let rr = Frame.alloc_fp ctx.fr in
      let op =
        match i with
        | W.Fneg -> Insn.FNEG
        | W.Fsqrt -> Insn.FSQRT
        | _ -> Insn.FABS
      in
      emit ctx (Insn.Fop1 { op; dst = d rr; src = d ra });
      Frame.free_fp ctx.fr ra;
      push ctx (SFlt rr)
  | W.I_to_f ->
      let ra = pop_int ctx in
      let rr = Frame.alloc_fp ctx.fr in
      emit ctx (Insn.Scvtf { signed = true; dst = d rr; src = x ra });
      Frame.free_int ctx.fr ra;
      push ctx (SFlt rr)
  | W.F_to_i ->
      let ra = pop_fp ctx in
      let rr = Frame.alloc_int ctx.fr in
      emit ctx (Insn.Fcvtzs { signed = true; dst = x rr; src = d ra });
      Frame.free_fp ctx.fr ra;
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
        let rs = Frame.alloc_int ctx.fr in
        emit ctx (Insn.Adr { page = false; dst = x rs; target = Insn.Sym sigs_label });
        emit ctx
          (Insn.Ldr { sz = Insn.X; signed = false; dst = x rs;
                      addr = Insn.Reg_off (x rs, x idx, Insn.Uxtx, 3) });
        emit ctx
          (Insn.Alu { op = Insn.SUB; flags = true; dst = Reg.xzr; src = x rs;
                      op2 = Insn.Imm (tyn, 0) });
        emit ctx (Insn.Bcond (Insn.NE, Insn.Sym trap_label));
        Frame.free_int ctx.fr rs
      end;
      let rt = Frame.alloc_int ctx.fr in
      emit ctx (Insn.Adr { page = false; dst = x rt; target = Insn.Sym table_label });
      emit ctx
        (Insn.Ldr { sz = Insn.X; signed = false; dst = x rt;
                    addr = Insn.Reg_off (x rt, x idx, Insn.Uxtx, 3) });
      emit ctx (Insn.Blr (x rt));
      Frame.free_int ctx.fr rt;
      Frame.free_int ctx.fr idx;
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
          | SInt r -> Frame.free_int ctx.fr r
          | SFlt r -> Frame.free_fp ctx.fr r
          | SSpillI _ | SSpillF _ -> Frame.free_temp ctx.fr
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
      Frame.free_int ctx.fr rc;
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
      Frame.free_int ctx.fr rc
  | W.Return ->
      (match ctx.f.W.ftype.result with
      | W.I64 ->
          let r = pop_int ctx in
          emit ctx (Frame.mov_reg 0 r);
          Frame.free_int ctx.fr r
      | W.F64 ->
          let r = pop_fp ctx in
          emit ctx (Frame.fmov_reg 0 r);
          Frame.free_fp ctx.fr r);
      emit ctx (Insn.B (Insn.Sym ctx.epilogue))

(* ------------------------------------------------------------------ *)
(* Functions                                                           *)
(* ------------------------------------------------------------------ *)

let compile_func (eng : Engine.t) (m : W.module_) (findex : int) :
    Source.item list =
  let f = m.W.funcs.(findex) in
  let all_locals = f.W.ftype.params @ f.W.locals in
  (* Cranelift keeps every local in a stack slot *)
  let int_homes, fp_homes =
    match eng.Engine.codegen with
    | Engine.Llvm -> (int_homes, fp_homes)
    | Engine.Cranelift -> ([], [])
  in
  let fr =
    Frame.create ~name:f.W.name ~int_homes ~fp_homes
      (List.map
         (fun (t : W.valtype) : Lfi_minic.Ast.ty ->
           match t with W.I64 -> Int | W.F64 -> Float)
         all_locals)
      []
  in
  let ctx =
    {
      eng; m; findex; f; fr;
      vstack = [];
      label_counter = 0;
      labels = [];
      heap_cached = false;
      epilogue = Printf.sprintf ".Lw%d_ret" findex;
    }
  in
  emit_label ctx (func_label findex m);
  Frame.push fr;
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
  Frame.save_homes fr;
  let nparams = List.length f.W.ftype.params in
  Frame.store_args fr (List.init nparams (fun k -> fr.Frame.homes.(k)));
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
  Array.iteri
    (fun k h ->
      if k >= nparams then
        emit ctx
          (match h with
          | Frame.Reg h -> Insn.Mov { op = Insn.MOVZ; dst = x h; imm = 0; hw = 0 }
          | Frame.Freg h -> Insn.Fmov_to_fp { dst = d h; src = Reg.xzr }
          | Frame.Slot off | Frame.Fslot off ->
              Insn.Str { sz = Insn.X; src = Reg.xzr;
                         addr = Insn.Imm_off (Reg.sp, off) }))
    fr.Frame.homes;
  List.iter (compile_instr ctx) f.W.body;
  emit_label ctx ctx.epilogue;
  Frame.restore_homes fr;
  Frame.pop fr;
  List.rev fr.Frame.out

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
