(** The ARM64 frame, constant and operation layer under both code
    generators: the MiniC compiler ({!Compile}) and the Wasm compiler
    ([Lfi_wasm.Compile_wasm], all five engines).  Figure 4 compares LFI
    with the Wasm engines, and that comparison is fair only while the
    code they share is the same code, so it lives here once: constant
    materialisation, home assignment, the frame layout, the prologue
    and epilogue sequences, scratch and spill-temp allocation, loads
    and stores, and the instructions of every integer, compare, float
    and conversion operation.  The compilers keep only their register
    allocation order and their folding decisions.

    Frame layout, from sp upwards:
    {v
      0          saved x29, x30
      16         saved home registers (int, then fp), rounded up to 16
      save_area  8-byte slots for locals without a register home
      temp_base  [max_temps] 8-byte spill temps, rounded up to 16
    v}
    Frames stay small, so every offset fits an unscaled load/store
    immediate and [size] fits an add/sub immediate. *)

open Lfi_arm64

exception Error of string

let errorf fmt = Printf.ksprintf (fun m -> raise (Error m)) fmt

let x = Reg.x
let d r = Reg.Fp.v Reg.Fp.D r

(* scratch registers: caller-saved, clear of the argument registers and
   of the LFI reserved registers *)
let int_scratch = [ 9; 10; 11; 12; 13; 14; 15 ]
let fp_scratch = [ 16; 17; 18; 19; 20; 21; 22; 23 ]
let max_temps = 32

(** Where a local lives: an x or d home register, or a frame slot
    (offset from sp) holding an integer or a float. *)
type home = Reg of int | Freg of int | Slot of int | Fslot of int

type t = {
  name : string;  (** the function, for error messages *)
  homes : home array;  (** one per local, in the order given *)
  int_saves : int list;  (** home registers in use, in assignment order *)
  fp_saves : int list;
  temp_base : int;
  size : int;
  mutable temp_used : int;
  mutable scratch : int list;
  mutable fscratch : int list;
  mutable out : Source.item list;  (** reversed *)
}

let round16 n = (n + 15) / 16 * 16

(** Lay out the frame of function [name] whose locals have types
    [locals]: each takes the next free register of [int_homes] or
    [fp_homes], and an 8-byte slot once those run out.  Emission
    continues [out] (reversed). *)
let create ~name ~int_homes ~fp_homes (locals : Ast.ty list)
    (out : Source.item list) : t =
  let first n l = List.filteri (fun k _ -> k < n) l in
  let count t = List.length (List.filter (( = ) t) locals) in
  let int_saves = first (count Int) int_homes
  and fp_saves = first (count Float) fp_homes in
  let save_area =
    round16 (16 + (8 * (List.length int_saves + List.length fp_saves)))
  in
  let ih = ref int_saves and fh = ref fp_saves and next_slot = ref save_area in
  let slot () =
    let o = !next_slot in
    next_slot := o + 8;
    o
  in
  let homes = ref [] in
  List.iter
    (fun (t : Ast.ty) ->
      let h =
        match (t, !ih, !fh) with
        | Int, h :: tl, _ ->
            ih := tl;
            Reg h
        | Float, _, h :: tl ->
            fh := tl;
            Freg h
        | Int, [], _ -> Slot (slot ())
        | Float, _, [] -> Fslot (slot ())
      in
      homes := h :: !homes)
    locals;
  let temp_base = !next_slot in
  { name; homes = Array.of_list (List.rev !homes); int_saves; fp_saves;
    temp_base; size = round16 (temp_base + (max_temps * 8));
    temp_used = 0; scratch = int_scratch; fscratch = fp_scratch; out }

let emit fr i = fr.out <- Source.Insn i :: fr.out
let label fr l = fr.out <- Source.Label l :: fr.out

(* ---- register moves and sp-relative accesses ---- *)

(* x[src] as a plain register operand *)
let sh src = Insn.Sh (x src, Insn.Lsl, 0)

(* [op] with xzr as its first operand: orr is a move, sub a negation,
   orn a bitwise not *)
let from_xzr op dst src =
  Insn.Alu { op; flags = false; dst = x dst; src = Reg.xzr; op2 = sh src }

let mov_reg = from_xzr Insn.ORR

let fmov_reg dst src = Insn.Fop1 { op = Insn.FMOV; dst = d dst; src = d src }

let ldr_sp dst off =
  Insn.Ldr { sz = Insn.X; signed = false; dst = x dst;
             addr = Insn.Imm_off (Reg.sp, off) }

let str_sp src off =
  Insn.Str { sz = Insn.X; src = x src; addr = Insn.Imm_off (Reg.sp, off) }

let fldr_sp dst off = Insn.Fldr { dst = d dst; addr = Insn.Imm_off (Reg.sp, off) }
let fstr_sp src off = Insn.Fstr { src = d src; addr = Insn.Imm_off (Reg.sp, off) }

(** Copy home [h] into register [r] (x for an integer home, d for a
    float one), and back. *)
let load_home fr h r =
  emit fr
    (match h with
    | Reg h -> mov_reg r h
    | Freg h -> fmov_reg r h
    | Slot o -> ldr_sp r o
    | Fslot o -> fldr_sp r o)

let store_home fr h r =
  emit fr
    (match h with
    | Reg h -> mov_reg h r
    | Freg h -> fmov_reg h r
    | Slot o -> str_sp r o
    | Fslot o -> fstr_sp r o)

(* ---- loads and stores by element type ---- *)

(** Load an [elt] at [addr] into register [r]: x[r], zero- or
    sign-extended like the C type, for an integer; d[r] for a float, an
    f32 widened to double. *)
let load fr (elt : Ast.elt) r addr =
  let ldr sz signed dst = emit fr (Insn.Ldr { sz; signed; dst; addr }) in
  match elt with
  | U8 -> ldr Insn.B false (Reg.w r)
  | U16 -> ldr Insn.H false (Reg.w r)
  | I32 -> ldr Insn.W true (x r)
  | I64 -> ldr Insn.X false (x r)
  | F64 -> emit fr (Insn.Fldr { dst = d r; addr })
  | F32 ->
      let s = Reg.Fp.v Reg.Fp.S r in
      emit fr (Insn.Fldr { dst = s; addr });
      emit fr (Insn.Fcvt { dst = d r; src = s })

(** Store register [r] (x[r] or d[r], as {!load} reads it) at [addr] as
    an [elt]: integers truncated, an f32 narrowed first. *)
let store fr (elt : Ast.elt) r addr =
  let str sz src = emit fr (Insn.Str { sz; src; addr }) in
  match elt with
  | U8 -> str Insn.B (Reg.w r)
  | U16 -> str Insn.H (Reg.w r)
  | I32 -> str Insn.W (Reg.w r)
  | I64 -> str Insn.X (x r)
  | F64 -> emit fr (Insn.Fstr { src = d r; addr })
  | F32 ->
      let s = Reg.Fp.v Reg.Fp.S r in
      emit fr (Insn.Fcvt { dst = s; src = d r });
      emit fr (Insn.Fstr { src = s; addr })

(* ---- constants ---- *)

(** Materialise the 64-bit pattern [v] with movz and one movk per
    further non-zero 16-bit chunk ([0] is [movz #0, lsl #48]). *)
let const64 fr dst (v : int64) =
  let first = ref true in
  for k = 0 to 3 do
    let c =
      Int64.to_int (Int64.logand (Int64.shift_right_logical v (16 * k)) 0xFFFFL)
    in
    if c <> 0 || (k = 3 && !first) then begin
      emit fr
        (Insn.Mov { op = (if !first then Insn.MOVZ else Insn.MOVK);
                    dst = x dst; imm = c; hw = k });
      first := false
    end
  done

(** Materialise [v]: one movz or movn when it fits 16 bits either way,
    otherwise its two's-complement pattern through {!const64}. *)
let const fr dst v =
  if v >= 0 && v < 65536 then
    emit fr (Insn.Mov { op = Insn.MOVZ; dst = x dst; imm = v; hw = 0 })
  else if v < 0 && lnot v < 65536 then
    emit fr (Insn.Mov { op = Insn.MOVN; dst = x dst; imm = lnot v; hw = 0 })
  else const64 fr dst (Int64.of_int v)

(* ---- operations ---- *)

(** The integer binary operations of both source languages. *)
type iop = Add | Sub | And | Or | Xor | Shl | Asr | Lsr | Mul | Sdiv

(** Whether [op] has an immediate form for [v]: a 12-bit add/sub
    immediate, a shift amount, or a power-of-two multiplier (a shift).
    And, or, xor and sdiv take registers only. *)
let encodable op v =
  match op with
  | Add | Sub -> v >= 0 && v < 4096
  | Shl | Asr | Lsr -> v >= 0 && v < 64
  | Mul -> v > 0 && v land (v - 1) = 0
  | And | Or | Xor | Sdiv -> false

let rec log2 v = if v = 1 then 0 else 1 + log2 (v lsr 1)

let alu_of = function
  | Add -> Insn.ADD
  | Sub -> Insn.SUB
  | And -> Insn.AND
  | Or -> Insn.ORR
  | _ -> Insn.EOR

let shift_of = function Shl -> Insn.Lsl | Asr -> Insn.Asr | _ -> Insn.Lsr

let bitfield op dst src immr imms =
  Insn.Bitfield { op; dst = x dst; src = x src; immr; imms }

(** x[dst] = x[a] [op] b, where [b] is a register or an immediate that
    {!encodable} accepts; any other immediate raises {!Error}. *)
let int_op fr op dst a (b : [ `Reg of int | `Imm of int ]) =
  match b with
  | `Reg b ->
      emit fr
        (match op with
        | Add | Sub | And | Or | Xor ->
            Insn.Alu { op = alu_of op; flags = false; dst = x dst; src = x a;
                       op2 = sh b }
        | Shl | Asr | Lsr ->
            Insn.Shiftv { op = shift_of op; dst = x dst; src = x a;
                          amount = x b }
        | Mul ->
            Insn.Madd { sub = false; dst = x dst; src1 = x a; src2 = x b;
                        acc = Reg.xzr }
        | Sdiv -> Insn.Div { signed = true; dst = x dst; src1 = x a; src2 = x b })
  | `Imm v when encodable op v ->
      emit fr
        (match op with
        | Add | Sub ->
            Insn.Alu { op = alu_of op; flags = false; dst = x dst; src = x a;
                       op2 = Insn.Imm (v, 0) }
        | Shl | Mul ->
            let s = if op = Mul then log2 v else v in
            bitfield Insn.UBFM dst a ((64 - s) mod 64) (63 - s)
        | Lsr -> bitfield Insn.UBFM dst a v 63
        | _ -> bitfield Insn.SBFM dst a v 63)
  | `Imm v -> errorf "%s: no immediate form for #%d" fr.name v

(** x[dst] = x[a] rem x[b] (signed), through the quotient in x[quot];
    [quot] may be [dst]. *)
let srem fr dst ~quot a b =
  emit fr (Insn.Div { signed = true; dst = x quot; src1 = x a; src2 = x b });
  emit fr
    (Insn.Madd { sub = true; dst = x dst; src1 = x quot; src2 = x b; acc = x a })

let neg fr dst a = emit fr (from_xzr Insn.SUB dst a)
let not fr dst a = emit fr (from_xzr Insn.ORN dst a)

(** Set the flags from x[a] - b; an immediate [b] must be an add/sub
    one, as for {!int_op}. *)
let cmp fr a (b : [ `Reg of int | `Imm of int ]) =
  let op2 =
    match b with
    | `Reg b -> sh b
    | `Imm v when encodable Sub v -> Insn.Imm (v, 0)
    | `Imm v -> errorf "%s: no compare immediate form for #%d" fr.name v
  in
  emit fr (Insn.Alu { op = Insn.SUB; flags = true; dst = Reg.xzr; src = x a; op2 })

let fcmp fr a b = emit fr (Insn.Fcmp { src1 = d a; src2 = Some (d b) })

(** x[dst] = 1 if [cond] holds on the flags, else 0. *)
let cset fr dst cond =
  emit fr
    (Insn.Csel { op = Insn.CSINC; dst = x dst; src1 = Reg.xzr; src2 = Reg.xzr;
                 cond = Insn.invert_cond cond })

let fop1 fr op dst a = emit fr (Insn.Fop1 { op; dst = d dst; src = d a })

let fop2 fr op dst a b =
  emit fr (Insn.Fop2 { op; dst = d dst; src1 = d a; src2 = d b })

(** d[dst] = the signed integer x[a] as a double, and back, truncating
    toward zero. *)
let scvtf fr dst a = emit fr (Insn.Scvtf { signed = true; dst = d dst; src = x a })

let fcvtzs fr dst a =
  emit fr (Insn.Fcvtzs { signed = true; dst = x dst; src = d a })

(* ---- scratch registers and spill temps ---- *)

let alloc_int fr =
  match fr.scratch with
  | r :: tl ->
      fr.scratch <- tl;
      r
  | [] -> errorf "%s: out of integer scratch registers" fr.name

let alloc_fp fr =
  match fr.fscratch with
  | r :: tl ->
      fr.fscratch <- tl;
      r
  | [] -> errorf "%s: out of float scratch registers" fr.name

(** Return a scratch register to its pool; homes and argument registers
    are not scratch and are left alone. *)
let free_int fr r = if List.mem r int_scratch then fr.scratch <- r :: fr.scratch
let free_fp fr r = if List.mem r fp_scratch then fr.fscratch <- r :: fr.fscratch

(** The sp offset of a fresh spill temp; temps are freed last-in
    first-out. *)
let alloc_temp fr =
  let slot = fr.temp_base + (8 * fr.temp_used) in
  fr.temp_used <- fr.temp_used + 1;
  if fr.temp_used > max_temps then errorf "%s: out of spill temps" fr.name;
  slot

let free_temp fr = fr.temp_used <- fr.temp_used - 1

(* ---- prologue and epilogue ---- *)

let sp_adjust op n =
  Insn.Alu { op; flags = false; dst = Reg.sp; src = Reg.sp; op2 = Insn.Imm (n, 0) }

(** Allocate the frame and save x29/x30. *)
let push fr =
  emit fr (sp_adjust Insn.SUB fr.size);
  emit fr
    (Insn.Stp { w = Reg.W64; r1 = x 29; r2 = x 30;
                addr = Insn.Imm_off (Reg.sp, 0) })

let each_save fr int fp =
  List.iteri (fun k r -> emit fr (int r (16 + (8 * k)))) fr.int_saves;
  let n = List.length fr.int_saves in
  List.iteri (fun k r -> emit fr (fp r (16 + (8 * (n + k))))) fr.fp_saves

(** Save the home registers in use into the save area, and restore
    them. *)
let save_homes fr = each_save fr str_sp fstr_sp
let restore_homes fr = each_save fr ldr_sp fldr_sp

(** Move the incoming arguments (x0, x1, ... and d0, d1, ... in order)
    to the homes of the parameters. *)
let store_args fr (params : home list) =
  let ii = ref 0 and fi = ref 0 in
  List.iter
    (fun h ->
      match h with
      | Reg _ | Slot _ ->
          store_home fr h !ii;
          incr ii
      | Freg _ | Fslot _ ->
          store_home fr h !fi;
          incr fi)
    params

(** Restore x29/x30, free the frame and return. *)
let pop fr =
  emit fr
    (Insn.Ldp { w = Reg.W64; r1 = x 29; r2 = x 30;
                addr = Insn.Imm_off (Reg.sp, 0) });
  emit fr (sp_adjust Insn.ADD fr.size);
  emit fr (Insn.Ret (Reg.x 30))
