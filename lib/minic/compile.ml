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

exception Error = Frame.Error

let errorf = Frame.errorf

(* Register conventions (AAPCS64 minus the LFI reserved registers; the
   scratch pools are {!Frame}'s). *)
let int_arg_regs = [| 0; 1; 2; 3; 4; 5; 6; 7 |]
let int_homes = [ 19; 20; 25; 26; 27; 28 ]
let fp_homes = [ 8; 9; 10; 11; 12; 13; 14; 15 ]

type value = VInt of int  (** scratch xN *) | VFlt of int  (** scratch dN *)

type fctx = {
  prog : program;
  fenv : (string * ty) list;
  fname : string;
  env : (string * ty) list ref;  (** variable types *)
  locs : (string, Frame.home) Hashtbl.t;
  fr : Frame.t;
  mutable label_counter : int;
  mutable loop_stack : (string * string) list;  (** break, continue *)
  float_pool : (string, string) Hashtbl.t;  (** bits-string -> label *)
  mutable float_pool_order : (string * float) list;
  epilogue : string;
}

let emit ctx i = Frame.emit ctx.fr i
let emit_label ctx l = Frame.label ctx.fr l

let emit_directive ctx d arg =
  ctx.fr.out <- Source.Directive (d, arg) :: ctx.fr.out

let fresh_label ctx prefix =
  ctx.label_counter <- ctx.label_counter + 1;
  Printf.sprintf ".L%s_%s%d" ctx.fname prefix ctx.label_counter

let free ctx = function
  | VInt r -> Frame.free_int ctx.fr r
  | VFlt r -> Frame.free_fp ctx.fr r

let x r = Reg.x r
let d r = Reg.Fp.v Reg.Fp.D r

let float_label ctx (v : float) : string =
  let key = Int64.to_string (Int64.bits_of_float v) in
  match Hashtbl.find_opt ctx.float_pool key with
  | Some l -> l
  | None ->
      let l = Printf.sprintf ".Lfp_%s_%d" ctx.fname (Hashtbl.length ctx.float_pool) in
      Hashtbl.replace ctx.float_pool key l;
      ctx.float_pool_order <- (l, v) :: ctx.float_pool_order;
      l

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
  | FEq -> Some Insn.EQ
  | FLt -> Some Insn.MI
  | FLe -> Some Insn.LS
  | _ -> None

let iop_of = function
  | Add -> Frame.Add
  | Sub -> Frame.Sub
  | And -> Frame.And
  | Or -> Frame.Or
  | Xor -> Frame.Xor
  | Shl -> Frame.Shl
  | Shr -> Frame.Asr
  | Lshr -> Frame.Lsr
  | Mul -> Frame.Mul
  | Div -> Frame.Sdiv
  | _ -> invalid_arg "iop_of: not an integer operation"

(** Compile [e] into a freshly allocated integer scratch register. *)
let rec compile_int ctx (e : expr) : int =
  match e with
  | Int v ->
      let r = Frame.alloc_int ctx.fr in
      Frame.const ctx.fr r v;
      r
  | Var name -> (
      match Hashtbl.find_opt ctx.locs name with
      | Some ((Frame.Reg _ | Frame.Slot _) as h) ->
          let r = Frame.alloc_int ctx.fr in
          Frame.load_home ctx.fr h r;
          r
      | Some (Frame.Freg _ | Frame.Fslot _) -> errorf "%s is a float" name
      | None -> errorf "unbound variable %s" name)
  | Addr sym ->
      let r = Frame.alloc_int ctx.fr in
      emit ctx (Insn.Adr { page = false; dst = x r; target = Insn.Sym sym });
      r
  | Load (elt, a) -> compile_load ctx elt a
  | Bin (op, a, b) -> compile_int_bin ctx op a b
  | Un (((Neg | Not) as op), a) ->
      let ra = compile_int ctx a in
      let r = Frame.alloc_int ctx.fr in
      (if op = Neg then Frame.neg else Frame.not) ctx.fr r ra;
      free ctx (VInt ra);
      r
  | Un ((FNeg | FSqrt | FAbs), _) -> errorf "float expression in int context"
  | Cvt (FtoI, a) ->
      let fa = compile_float ctx a in
      let r = Frame.alloc_int ctx.fr in
      Frame.fcvtzs ctx.fr r fa;
      free ctx (VFlt fa);
      r
  | Cvt (ItoF, _) -> errorf "float expression in int context"
  | Flt _ -> errorf "float literal in int context"
  | Call (name, args) ->
      compile_call ctx (`Direct name) args;
      let r = Frame.alloc_int ctx.fr in
      emit ctx (Frame.mov_reg r 0);
      r
  | Call_indirect (fp, args, _) ->
      compile_call ctx (`Indirect fp) args;
      let r = Frame.alloc_int ctx.fr in
      emit ctx (Frame.mov_reg r 0);
      r
  | Syscall (k, args) ->
      compile_call ctx (`Sys k) args;
      let r = Frame.alloc_int ctx.fr in
      emit ctx (Frame.mov_reg r 0);
      r

and compile_int_bin ctx op a b : int =
  match op with
  | FAdd | FSub | FMul | FDiv -> errorf "float expression in int context"
  | Eq | Ne | Lt | Le | Gt | Ge | Ult | FEq | FLt | FLe ->
      (* comparison as a value: cmp ; cset *)
      let cond = compile_compare ctx op a b in
      let r = Frame.alloc_int ctx.fr in
      Frame.cset ctx.fr r cond;
      r
  | Rem ->
      (* the remainder is computed in place over the quotient *)
      let ra, rb = compile_pair ctx a b in
      let q = Frame.alloc_int ctx.fr in
      Frame.srem ctx.fr q ~quot:q ra rb;
      free ctx (VInt ra);
      free ctx (VInt rb);
      q
  | Add | Sub | And | Or | Xor | Shl | Shr | Lshr | Mul | Div -> (
      let op = iop_of op in
      match b with
      | Int v when Frame.encodable op v ->
          let ra = compile_int ctx a in
          let r = Frame.alloc_int ctx.fr in
          Frame.int_op ctx.fr op r ra (`Imm v);
          free ctx (VInt ra);
          r
      | _ ->
          let ra, rb = compile_pair ctx a b in
          free ctx (VInt ra);
          free ctx (VInt rb);
          let r = Frame.alloc_int ctx.fr in
          Frame.int_op ctx.fr op r ra (`Reg rb);
          r)

(** Compile two operands.  The first is spilled to a frame slot while
    the second is evaluated when (a) the second contains a call (calls
    clobber the scratch registers) or (b) scratch pressure is high
    (deep right-leaning expressions would otherwise exhaust the pool —
    this is the register allocator's spilling, done eagerly). *)
and compile_pair ctx a b : int * int =
  if contains_call b || List.length ctx.fr.scratch <= 2 then begin
    let ra = compile_int ctx a in
    let slot = Frame.alloc_temp ctx.fr in
    emit ctx (Frame.str_sp ra slot);
    free ctx (VInt ra);
    let rb = compile_int ctx b in
    let ra' = Frame.alloc_int ctx.fr in
    emit ctx (Frame.ldr_sp ra' slot);
    Frame.free_temp ctx.fr;
    (ra', rb)
  end
  else begin
    let ra = compile_int ctx a in
    let rb = compile_int ctx b in
    (ra, rb)
  end

and compile_fpair ctx a b : int * int =
  if contains_call b || List.length ctx.fr.fscratch <= 2 then begin
    let ra = compile_float ctx a in
    let slot = Frame.alloc_temp ctx.fr in
    emit ctx (Frame.fstr_sp ra slot);
    free ctx (VFlt ra);
    let rb = compile_float ctx b in
    let ra' = Frame.alloc_fp ctx.fr in
    emit ctx (Frame.fldr_sp ra' slot);
    Frame.free_temp ctx.fr;
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
      | Some (Frame.Reg home) -> (home, [])
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
  | Bin (Add, base, Bin (Mul, idxe, Int s)) when s = size ->
      reg_pair base idxe (Frame.log2 s)
  | Bin (Add, base, idxe) when typeof ctx idxe = Int && elt = U8 ->
      reg_pair base idxe 0
  | _ ->
      let rb, used = address_operand ctx a in
      (Insn.Imm_off (x rb, 0), used)

and is_home_var ctx = function
  | Var name -> (
      match Hashtbl.find_opt ctx.locs name with
      | Some (Frame.Reg _) -> true
      | _ -> false)
  | _ -> false

and compile_load ctx (elt : elt) (a : expr) : int =
  let addr, used = compile_addr ctx elt a in
  List.iter (free ctx) used;
  let r = Frame.alloc_int ctx.fr in
  (match elt with
  | F32 | F64 -> errorf "float load in int context"
  | _ -> Frame.load ctx.fr elt r addr);
  r

and compile_fload ctx (elt : elt) (a : expr) : int =
  let addr, used = compile_addr ctx elt a in
  List.iter (free ctx) used;
  let r = Frame.alloc_fp ctx.fr in
  (match elt with
  | F32 | F64 -> Frame.load ctx.fr elt r addr
  | _ -> errorf "int load in float context");
  r

(** Compile a float expression into a fresh float scratch register. *)
and compile_float ctx (e : expr) : int =
  match e with
  | Flt v ->
      let r = Frame.alloc_fp ctx.fr in
      let lbl = float_label ctx v in
      let ra = Frame.alloc_int ctx.fr in
      emit ctx (Insn.Adr { page = false; dst = x ra; target = Insn.Sym lbl });
      emit ctx (Insn.Fldr { dst = d r; addr = Insn.Imm_off (x ra, 0) });
      free ctx (VInt ra);
      r
  | Var name -> (
      match Hashtbl.find_opt ctx.locs name with
      | Some ((Frame.Freg _ | Frame.Fslot _) as h) ->
          let r = Frame.alloc_fp ctx.fr in
          Frame.load_home ctx.fr h r;
          r
      | Some (Frame.Reg _ | Frame.Slot _) -> errorf "%s is an int" name
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
      let r = Frame.alloc_fp ctx.fr in
      Frame.fop2 ctx.fr fop r ra rb;
      r
  | Un (((FNeg | FSqrt | FAbs) as op), a) ->
      let ra = compile_float ctx a in
      let r = Frame.alloc_fp ctx.fr in
      Frame.fop1 ctx.fr
        (match op with FNeg -> Insn.FNEG | FSqrt -> Insn.FSQRT | _ -> Insn.FABS)
        r ra;
      free ctx (VFlt ra);
      r
  | Cvt (ItoF, a) ->
      let ra = compile_int ctx a in
      let r = Frame.alloc_fp ctx.fr in
      Frame.scvtf ctx.fr r ra;
      free ctx (VInt ra);
      r
  | Call (name, args) ->
      compile_call ctx (`Direct name) args;
      let r = Frame.alloc_fp ctx.fr in
      emit ctx (Frame.fmov_reg r 0);
      r
  | Call_indirect (fp, args, _) ->
      compile_call ctx (`Indirect fp) args;
      let r = Frame.alloc_fp ctx.fr in
      emit ctx (Frame.fmov_reg r 0);
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
        let slot = Frame.alloc_temp ctx.fr in
        emit ctx (Frame.str_sp r slot);
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
              let s = Frame.alloc_temp ctx.fr in
              emit ctx (Frame.str_sp r s);
              free ctx (VInt r);
              (s, (Int : ty))
          | Float ->
              let r = compile_float ctx a in
              let s = Frame.alloc_temp ctx.fr in
              emit ctx (Frame.fstr_sp r s);
              free ctx (VFlt r);
              (s, (Float : ty)))
        args
    in
    let ii = ref 0 and fi = ref 0 in
    List.iter
      (fun ((s : int), (t : ty)) ->
        match t with
        | Int ->
            emit ctx (Frame.ldr_sp int_arg_regs.(!ii) s);
            incr ii
        | Float ->
            emit ctx (Frame.fldr_sp !fi s);
            incr fi)
      slots;
    List.iter (fun _ -> Frame.free_temp ctx.fr) slots
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
            emit ctx (Frame.mov_reg int_arg_regs.(!ii) r);
            free ctx (VInt r);
            incr ii
        | Float ->
            let r = compile_float ctx a in
            emit ctx (Frame.fmov_reg !fi r);
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
          let r = Frame.alloc_int ctx.fr in
          emit ctx (Frame.ldr_sp r s);
          Frame.free_temp ctx.fr;
          emit ctx (Insn.Blr (x r));
          free ctx (VInt r)
      | `Expr fp ->
          let r = compile_int ctx fp in
          emit ctx (Insn.Blr (x r));
          free ctx (VInt r)
      | `None -> assert false)

(** Set the flags from comparison [op] of [a] and [b] (cmp or fcmp), and
    return the condition that holds when it is true. *)
and compile_compare ctx op a b : Insn.cond =
  (match (op, b) with
  | (FEq | FLt | FLe), _ ->
      let ra, rb = compile_fpair ctx a b in
      Frame.fcmp ctx.fr ra rb;
      free ctx (VFlt ra);
      free ctx (VFlt rb)
  | _, Int v when Frame.encodable Frame.Sub v ->
      let ra = compile_int ctx a in
      Frame.cmp ctx.fr ra (`Imm v);
      free ctx (VInt ra)
  | _ ->
      let ra, rb = compile_pair ctx a b in
      Frame.cmp ctx.fr ra (`Reg rb);
      free ctx (VInt ra);
      free ctx (VInt rb));
  Option.get (cond_of_binop op)

(** Compile [e] as a branch condition: jump to [target] when [e] is
    false (if [jump_if_false]) or true. *)
let compile_cond ctx (e : expr) ~(target : string) ~(jump_if_false : bool) =
  let bcond c =
    let c = if jump_if_false then Insn.invert_cond c else c in
    emit ctx (Insn.Bcond (c, Insn.Sym target))
  in
  match e with
  | Bin (op, a, b) when cond_of_binop op <> None ->
      bcond (compile_compare ctx op a b)
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
  | Some ((Frame.Reg _ | Frame.Slot _) as h), VInt r
  | Some ((Frame.Freg _ | Frame.Fslot _) as h), VFlt r ->
      Frame.store_home ctx.fr h r
  | Some _, _ -> errorf "type mismatch assigning %s" name
  | None, _ -> errorf "unbound variable %s" name

let rec compile_store_var ctx name e =
  let t : ty =
    match Hashtbl.find_opt ctx.locs name with
    | Some (Frame.Reg _ | Frame.Slot _) -> Int
    | Some (Frame.Freg _ | Frame.Fslot _) -> Float
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
      let is_float = elt_is_float elt in
      let emit_store rv addr = Frame.store ctx.fr elt rv addr in
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
        let slot = Frame.alloc_temp ctx.fr in
        emit ctx (Frame.str_sp ra slot);
        free ctx (VInt ra);
        let rv, v = compile_value () in
        let ra' = Frame.alloc_int ctx.fr in
        emit ctx (Frame.ldr_sp ra' slot);
        Frame.free_temp ctx.fr;
        emit_store rv (Insn.Imm_off (x ra', 0));
        free ctx (VInt ra');
        free ctx v
      end
      else if contains_call a then begin
        (* pure value: evaluating it first is unobservable, but it must
           sit in a frame slot across the address's calls *)
        let rv, v = compile_value () in
        let slot = Frame.alloc_temp ctx.fr in
        emit ctx (if is_float then Frame.fstr_sp rv slot else Frame.str_sp rv slot);
        free ctx v;
        let addr, used = compile_addr ctx elt a in
        let rv' =
          if is_float then Frame.alloc_fp ctx.fr else Frame.alloc_int ctx.fr
        in
        emit ctx
          (if is_float then Frame.fldr_sp rv' slot else Frame.ldr_sp rv' slot);
        Frame.free_temp ctx.fr;
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
          emit ctx (Frame.mov_reg 0 r);
          free ctx (VInt r)
      | Float ->
          let r = compile_float ctx e in
          emit ctx (Frame.fmov_reg 0 r);
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
  let fr =
    Frame.create ~name:f.name ~int_homes ~fp_homes (List.map snd all_vars) out
  in
  let locs = Hashtbl.create 16 in
  List.iteri (fun k (name, _) -> Hashtbl.replace locs name fr.Frame.homes.(k))
    all_vars;
  let ctx =
    {
      prog;
      fenv;
      fname = f.name;
      env = ref all_vars;
      locs;
      fr;
      label_counter = 0;
      loop_stack = [];
      float_pool = Hashtbl.create 8;
      float_pool_order = [];
      epilogue = Printf.sprintf ".L%s_ret" f.name;
    }
  in
  emit_label ctx f.name;
  Frame.push fr;
  emit ctx
    (Insn.Alu { op = Insn.ADD; flags = false; dst = Reg.x 29; src = Reg.sp;
                op2 = Insn.Imm (0, 0) });
  Frame.save_homes fr;
  Frame.store_args fr (List.map (fun (n, _) -> Hashtbl.find locs n) f.params);
  (* body *)
  List.iter (compile_stmt ctx) f.body;
  (* implicit return 0 *)
  Frame.const fr 0 0;
  emit_label ctx ctx.epilogue;
  Frame.restore_homes fr;
  Frame.pop fr;
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
  fr.Frame.out

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
