(** The executable semantics of the ARM64 subset: each decoded
    instruction lowered, once, to what both dispatch paths run.

    A non-branch instruction becomes a closure over the machine
    ({!lower}): register operands resolved to slots of the register
    file, immediates pre-extended, and the instructions that
    dominate rewriter output (W64/W32 register and immediate ALU, the
    x21 guard add, mov-immediates, [adr], immediate-offset and guarded
    loads/stores) specialized into monomorphic fast paths.  A branch,
    [svc] or [udf] becomes a {!Machine.bterm} that {!exec_term} runs.
    {!fill} stores the lowered form in the machine's decode cache
    beside the instruction and its cost; the single-step loop
    ({!Interp}) and the superblock engine ({!Block}) both execute it
    from there, so there is one definition of what an instruction does.

    Lowered code reads and writes the machine's unboxed register file
    directly and allocates nothing: every value stays an unboxed
    [int64] or [float] inside the one closure that computes it.  It
    never reads the pc slot: the instruction's own pc is captured at
    lowering time.  The flight recorder's events
    (taken branches, guard-clamp audits) and the escape oracle's
    checks (every data access in {!bread}/{!bwrite}, every taken
    branch in {!exec_term}) are made here, against that pc, so every
    observer sees the same records on both dispatch paths. *)

open Lfi_arm64
open Machine

(* ------------------------------------------------------------------ *)
(* The register file                                                   *)
(* ------------------------------------------------------------------ *)

(* Lowered code reads and writes the machine's register file directly
   ({!Machine.regs}, slot [s] at byte [8 * s]).  Everything here and
   below that takes or returns an [int64] or a [float] is inlined, so
   the value stays unboxed inside the one lowered closure that uses
   it: a helper called out of line, or one in another module, would
   box its argument or result on every execution. *)

let[@inline] rd (f : Bytes.t) (s : int) : int64 = get64u f (s lsl 3)
let[@inline] wr (f : Bytes.t) (s : int) (v : int64) = set64u f (s lsl 3) v

(** Read a general register operand. *)
let[@inline] get (f : Bytes.t) (r : Reg.t) : int64 =
  match r with
  | Reg.R (Reg.W64, n) -> rd f n
  | Reg.R (Reg.W32, n) -> Int64.logand (rd f n) mask32
  | Reg.ZR _ -> 0L
  | Reg.SP Reg.W64 -> rd f slot_sp
  | Reg.SP Reg.W32 -> Int64.logand (rd f slot_sp) mask32

(** Write a general register operand; 32-bit writes zero the top half
    (the property the LFI guard depends on). *)
let[@inline] set (f : Bytes.t) (r : Reg.t) (v : int64) =
  match r with
  | Reg.R (Reg.W64, n) -> wr f n v
  | Reg.R (Reg.W32, n) -> wr f n (Int64.logand v mask32)
  | Reg.ZR _ -> ()
  | Reg.SP Reg.W64 -> wr f slot_sp v
  | Reg.SP Reg.W32 -> wr f slot_sp (Int64.logand v mask32)

(** The double (or single, widened) value held by an FP register. *)
let[@inline] get_float (f : Bytes.t) (r : Reg.Fp.t) : float =
  match r.Reg.Fp.size with
  | Reg.Fp.D | Reg.Fp.Q -> Int64.float_of_bits (rd f (slot_vlo + r.Reg.Fp.n))
  | Reg.Fp.S ->
      Int32.float_of_bits
        (Int64.to_int32 (Int64.logand (rd f (slot_vlo + r.Reg.Fp.n)) mask32))

let[@inline] set_float (f : Bytes.t) (r : Reg.Fp.t) (v : float) =
  match r.Reg.Fp.size with
  | Reg.Fp.D | Reg.Fp.Q -> wr f (slot_vlo + r.Reg.Fp.n) (Int64.bits_of_float v)
  | Reg.Fp.S ->
      wr f (slot_vlo + r.Reg.Fp.n)
        (Int64.logand (Int64.of_int32 (Int32.bits_of_float v)) mask32)

let[@inline] cond_holds (f : Bytes.t) (c : Insn.cond) : bool =
  let fl = Int64.to_int (rd f slot_nzcv) in
  let n = fl land 8 <> 0 and z = fl land 4 <> 0 in
  let cf = fl land 2 <> 0 and v = fl land 1 <> 0 in
  match c with
  | Insn.EQ -> z
  | Insn.NE -> not z
  | Insn.CS -> cf
  | Insn.CC -> not cf
  | Insn.MI -> n
  | Insn.PL -> not n
  | Insn.VS -> v
  | Insn.VC -> not v
  | Insn.HI -> cf && not z
  | Insn.LS -> not (cf && not z)
  | Insn.GE -> n = v
  | Insn.LT -> n <> v
  | Insn.GT -> (not z) && n = v
  | Insn.LE -> z || n <> v
  | Insn.AL -> true

(** Set all four flags. *)
let[@inline] set_flags (f : Bytes.t) ~n ~z ~c ~v =
  wr f slot_nzcv
    (Int64.of_int
       ((if n then 8 else 0) lor (if z then 4 else 0) lor (if c then 2 else 0)
       lor if v then 1 else 0))

(* ------------------------------------------------------------------ *)
(* Arithmetic helpers                                                  *)
(* ------------------------------------------------------------------ *)

let[@inline] mask_w (w : Reg.width) v =
  match w with Reg.W64 -> v | Reg.W32 -> Int64.logand v mask32

let[@inline] sext32 v =
  Int64.shift_right (Int64.shift_left v 32) 32

let[@inline] sign_bit (w : Reg.width) v =
  match w with
  | Reg.W64 -> Int64.compare v 0L < 0
  | Reg.W32 -> Int64.logand v 0x80000000L <> 0L

let[@inline] extend_value (e : Insn.extend) (v : int64) : int64 =
  match e with
  | Insn.Uxtb -> Int64.logand v 0xFFL
  | Insn.Uxth -> Int64.logand v 0xFFFFL
  | Insn.Uxtw -> Int64.logand v mask32
  | Insn.Uxtx -> v
  | Insn.Sxtb -> Int64.shift_right (Int64.shift_left v 56) 56
  | Insn.Sxth -> Int64.shift_right (Int64.shift_left v 48) 48
  | Insn.Sxtw -> sext32 v
  | Insn.Sxtx -> v

let[@inline] shift_value (w : Reg.width) (k : Insn.shift) (v : int64) (a : int)
    : int64 =
  let bits = match w with Reg.W64 -> 64 | Reg.W32 -> 32 in
  let a = a mod bits in
  if a = 0 then mask_w w v
  else
    match k with
    | Insn.Lsl -> mask_w w (Int64.shift_left v a)
    | Insn.Lsr -> Int64.shift_right_logical (mask_w w v) a
    | Insn.Asr ->
        let v =
          match w with Reg.W64 -> v | Reg.W32 -> sext32 (mask_w w v)
        in
        mask_w w (Int64.shift_right v a)
    | Insn.Ror ->
        let v = mask_w w v in
        mask_w w
          (Int64.logor
             (Int64.shift_right_logical v a)
             (Int64.shift_left v (bits - a)))

(** Set [f]'s flags to the NZCV of an add/sub at the given width.
    Returns unit, so a compare that only wants the flags boxes
    nothing. *)
let[@inline] set_arith_flags (f : Bytes.t) (w : Reg.width) ~sub (a : int64)
    (b : int64) =
  let a = mask_w w a and b = mask_w w b in
  let r = if sub then Int64.sub a b else Int64.add a b in
  let r_masked = mask_w w r in
  let n = sign_bit w r_masked in
  let z = Int64.equal r_masked 0L in
  let c =
    match (w, sub) with
    | Reg.W64, false -> Int64.unsigned_compare r_masked a < 0
    | Reg.W64, true -> Int64.unsigned_compare a b >= 0
    | Reg.W32, false -> Int64.unsigned_compare r 0xFFFFFFFFL > 0
    | Reg.W32, true -> Int64.unsigned_compare a b >= 0
  in
  let sa = sign_bit w a
  and sb = sign_bit w b
  and sr = sign_bit w r_masked in
  let v = if sub then sa <> sb && sr <> sa else sa = sb && sr <> sa in
  set_flags f ~n ~z ~c ~v

(** Add/sub with NZCV computation at the given width: set the flags,
    return the result masked to the width. *)
let[@inline] arith_flags (f : Bytes.t) (w : Reg.width) ~sub (a : int64)
    (b : int64) : int64 =
  set_arith_flags f w ~sub a b;
  mask_w w (if sub then Int64.sub a b else Int64.add a b)

let[@inline] logic_flags (f : Bytes.t) (w : Reg.width) (r : int64) =
  set_flags f ~n:(sign_bit w r) ~z:(Int64.equal (mask_w w r) 0L) ~c:false
    ~v:false

(* 128-bit multiply high half. *)
let[@inline] mulh ~signed (a : int64) (b : int64) : int64 =
  let open Int64 in
  let mask = 0xFFFFFFFFL in
  let alo = logand a mask and ahi = shift_right_logical a 32 in
  let blo = logand b mask and bhi = shift_right_logical b 32 in
  (* unsigned 128-bit product via 32x32 partials *)
  let ll = mul alo blo in
  let lh = mul alo bhi in
  let hl = mul ahi blo in
  let hh = mul ahi bhi in
  let mid = add (add (shift_right_logical ll 32) (logand lh mask)) (logand hl mask) in
  let uhi =
    add (add hh (shift_right_logical lh 32))
      (add (shift_right_logical hl 32) (shift_right_logical mid 32))
  in
  if not signed then uhi
  else
    (* signed correction: if a < 0 subtract b from high, if b < 0
       subtract a *)
    let uhi = if compare a 0L < 0 then sub uhi b else uhi in
    if compare b 0L < 0 then sub uhi a else uhi

(* A W register's value widened to 64 bits ([smaddl]/[umaddl]). *)
let[@inline] widen32 ~signed (v : int64) : int64 =
  if signed then sext32 (Int64.logand v mask32) else Int64.logand v mask32

(* [Int64.unsigned_div], inlined; [d] is non-zero. *)
let[@inline] udiv64 (n : int64) (d : int64) : int64 =
  if Int64.compare d 0L < 0 then
    if Int64.unsigned_compare n d < 0 then 0L else 1L
  else
    let q = Int64.shift_left (Int64.div (Int64.shift_right_logical n 1) d) 1 in
    let r = Int64.sub n (Int64.mul q d) in
    if Int64.unsigned_compare r d >= 0 then Int64.succ q else q

(* The low [n] bits set. *)
let[@inline] low_mask n =
  if n >= 64 then -1L else Int64.sub (Int64.shift_left 1L n) 1L

let[@inline] bitfield_result (w : Reg.width) (op : Insn.bf_op)
    ~(dst_old : int64) ~(src : int64) ~(immr : int) ~(imms : int) : int64 =
  let bits = match w with Reg.W64 -> 64 | Reg.W32 -> 32 in
  let src = mask_w w src in
  let result =
    if imms >= immr then begin
      (* extract field src[imms:immr] at bit 0 *)
      let width = imms - immr + 1 in
      let fld =
        Int64.logand (Int64.shift_right_logical src immr) (low_mask width)
      in
      match op with
      | Insn.UBFM -> fld
      | Insn.SBFM ->
          let sh = 64 - width in
          Int64.shift_right (Int64.shift_left fld sh) sh
      | Insn.BFM ->
          Int64.logor
            (Int64.logand dst_old (Int64.lognot (low_mask width)))
            fld
    end
    else begin
      (* insert field src[imms:0] at bit (bits - immr) *)
      let width = imms + 1 in
      let lsb = bits - immr in
      let fld = Int64.logand src (low_mask width) in
      match op with
      | Insn.UBFM -> Int64.shift_left fld lsb
      | Insn.SBFM ->
          let sh = 64 - width in
          Int64.shift_left (Int64.shift_right (Int64.shift_left fld sh) sh) lsb
      | Insn.BFM ->
          let hole = Int64.shift_left (low_mask width) lsb in
          Int64.logor
            (Int64.logand dst_old (Int64.lognot hole))
            (Int64.shift_left fld lsb)
    end
  in
  mask_w w result

(* The bit-scanning helpers below are loops over unboxed locals: a
   local recursive function would capture [v] and allocate a closure
   per execution. *)

let[@inline] clz_value (w : Reg.width) (v : int64) =
  let bits = match w with Reg.W64 -> 64 | Reg.W32 -> 32 in
  let i = ref (bits - 1) in
  while !i >= 0 && Int64.logand (Int64.shift_right_logical v !i) 1L = 0L do
    decr i
  done;
  bits - 1 - !i

let[@inline] cls_value (w : Reg.width) (v : int64) =
  let bits = match w with Reg.W64 -> 64 | Reg.W32 -> 32 in
  let sign = Int64.logand (Int64.shift_right_logical v (bits - 1)) 1L in
  let i = ref (bits - 2) in
  while
    !i >= 0
    && Int64.equal (Int64.logand (Int64.shift_right_logical v !i) 1L) sign
  do
    decr i
  done;
  bits - 2 - !i

let[@inline] rbit_value (w : Reg.width) (v : int64) =
  let bits = match w with Reg.W64 -> 64 | Reg.W32 -> 32 in
  let r = ref 0L in
  for i = 0 to bits - 1 do
    if Int64.logand (Int64.shift_right_logical v i) 1L = 1L then
      r := Int64.logor !r (Int64.shift_left 1L (bits - 1 - i))
  done;
  !r

let[@inline] rev_value (w : Reg.width) (group : int) (v : int64) =
  let bits = match w with Reg.W64 -> 64 | Reg.W32 -> 32 in
  let nbytes = bits / 8 in
  let out = ref 0L in
  let gbytes = group in
  for g = 0 to (nbytes / gbytes) - 1 do
    for b = 0 to gbytes - 1 do
      let src_byte = (g * gbytes) + b in
      let dst_byte = (g * gbytes) + (gbytes - 1 - b) in
      let byte =
        Int64.logand (Int64.shift_right_logical v (8 * src_byte)) 0xFFL
      in
      out := Int64.logor !out (Int64.shift_left byte (8 * dst_byte))
    done
  done;
  !out

let[@inline] ld_result (sz : Insn.mem_size) ~signed (w : Reg.width)
    (raw : int64) : int64 =
  if not signed then raw
  else
    let shift = 64 - (8 * Insn.mem_bytes sz) in
    let v = Int64.shift_right (Int64.shift_left raw shift) shift in
    mask_w w v

(* ------------------------------------------------------------------ *)
(* Floating point                                                      *)
(* ------------------------------------------------------------------ *)

let[@inline] round_to_size (f : Reg.Fp.t) (v : float) : float =
  match f.Reg.Fp.size with
  | Reg.Fp.S -> Int32.float_of_bits (Int32.bits_of_float v)
  | Reg.Fp.D | Reg.Fp.Q -> v

let[@inline] fcvtzs_value ~signed (w : Reg.width) (v : float) : int64 =
  if Float.is_nan v then 0L
  else
    match (w, signed) with
    | Reg.W64, true ->
        if v >= 9.2233720368547758e18 then Int64.max_int
        else if v <= -9.2233720368547758e18 then Int64.min_int
        else Int64.of_float v
    | Reg.W32, true ->
        if v >= 2147483647.0 then 0x7FFFFFFFL
        else if v <= -2147483648.0 then 0x80000000L
        else Int64.logand (Int64.of_float v) mask32
    | Reg.W64, false ->
        if v <= 0.0 then 0L
        else if v >= 1.8446744073709552e19 then -1L
        else if v >= 9.2233720368547758e18 then
          Int64.add (Int64.of_float (v -. 9.2233720368547758e18)) Int64.min_int
        else Int64.of_float v
    | Reg.W32, false ->
        if v <= 0.0 then 0L
        else if v >= 4294967295.0 then 0xFFFFFFFFL
        else Int64.of_float v

let[@inline] ucvtf_value (v : int64) : float =
  if Int64.compare v 0L >= 0 then Int64.to_float v
  else Int64.to_float v +. 1.8446744073709552e19

(* ------------------------------------------------------------------ *)
(* Observers and data access                                           *)
(* ------------------------------------------------------------------ *)

(** Escape-oracle check on a data access at [pci]: the whole
    [size]-byte access must land inside the oracle's [o_lo, o_hi) data
    window (DESIGN.md §5d).  Recording never stops execution. *)
let oracle_data (o : Machine.oracle) (pci : int) (a : int64) (size : int)
    (kind : Machine.escape_kind) =
  if
    Int64.unsigned_compare a o.o_lo < 0
    || Int64.unsigned_compare (Int64.add a (Int64.of_int size)) o.o_hi > 0
  then Machine.record_escape o ~pc:(Int64.of_int pci) ~addr:a kind

(** Escape-oracle check on the target [t] of a branch taken at [pci]:
    legal targets are the sandbox branch window and the runtime-call
    host entries.  [Int64.unsigned_compare] keeps the windows honest
    for targets with the top bit set. *)
let oracle_branch (o : Machine.oracle) (pci : int) (t : int64) =
  let in_window lo hi =
    Int64.unsigned_compare t lo >= 0 && Int64.unsigned_compare t hi < 0
  in
  if
    not
      (in_window o.o_branch_lo o.o_branch_hi
      || in_window o.o_host_lo o.o_host_hi)
  then Machine.record_escape o ~pc:(Int64.of_int pci) ~addr:t Machine.Ebranch

(* The TLB's page number of a data address (see {!Tlb.access}). *)
let[@inline] tlb_page (a : int64) = Int64.to_int a lsr Memory.page_bits

(** The data access every load runs: oracle check, TLB charge, read.
    With the oracle off the check is one [None] test.  A read within
    one page whose translation is cached ({!Memory.read_hit}) is
    served here from the page's bytes, so address and value stay
    unboxed; anything else — a translation miss, a missing permission,
    a page-crossing access — goes to {!Memory.read}, which counts,
    faults and reads exactly as it always does. *)
let[@inline] bread (m : Machine.t) (pci : int) (a : int64) (size : int) :
    int64 =
  (match m.escape_oracle with
  | None -> ()
  | Some o -> oracle_data o pci a size Machine.Eload);
  charge_tlb m (tlb_page a);
  let off = Int64.to_int a land (Memory.page_size - 1) in
  let d =
    if off + size <= Memory.page_size then
      Memory.read_hit m.mem
        (Int64.to_int (Int64.shift_right_logical a Memory.page_bits))
    else Bytes.empty
  in
  (* an if chain, not a [match]: a match on an int joins its arms
     through a boxed value *)
  if d == Bytes.empty then
    (* [logor 0L] makes this arm an unboxed result like the others: a
       bare call would box every arm wherever the load is let-bound *)
    Int64.logor (Memory.read m.mem a size) 0L
  else if size = 8 then Bytes.get_int64_le d off
  else if size = 4 then
    Int64.logand (Int64.of_int32 (Bytes.get_int32_le d off)) mask32
  else if size = 2 then Int64.of_int (Bytes.get_uint16_le d off)
  else Int64.of_int (Bytes.get_uint8 d off)

(** The data access every store runs, like {!bread}: a store within
    one page that {!Memory.write_hit} finds cached writable, not
    executable and with the chunks it touches already dirty is made
    here; every other store is {!Memory.write}. *)
let[@inline] bwrite (m : Machine.t) (pci : int) (a : int64) (size : int)
    (v : int64) =
  (match m.escape_oracle with
  | None -> ()
  | Some o -> oracle_data o pci a size Machine.Estore);
  charge_tlb m (tlb_page a);
  let off = Int64.to_int a land (Memory.page_size - 1) in
  let d =
    if off + size <= Memory.page_size then
      Memory.write_hit m.mem
        (Int64.to_int (Int64.shift_right_logical a Memory.page_bits))
        off size
    else Bytes.empty
  in
  if d == Bytes.empty then Memory.write m.mem a size v
  else if size = 8 then Bytes.set_int64_le d off v
  else if size = 4 then Bytes.set_int32_le d off (Int64.to_int32 v)
  else if size = 2 then Bytes.set_uint16_le d off (Int64.to_int v land 0xffff)
  else Bytes.set_uint8 d off (Int64.to_int v land 0xff)

(** Guard-clamp audit for the [\[x21, wN, uxtw\]] addressing form.  A
    well-formed index is either a sandbox-relative offset (upper 32
    bits zero) or a full in-sandbox pointer (upper 32 bits equal to
    the base's); anything else is an address the guard silently pulled
    back into the sandbox (Section 5.2's clamped escape), so it bumps
    the flight recorder's audit counter and logs the pc.  The
    comparisons are untagged, so the audit allocates nothing. *)
let[@inline] clamp_audit (m : Machine.t) (pci : int) (base : int64)
    (raw : int64) =
  let hi = Int64.to_int raw lsr 32 in
  if hi <> 0 && hi <> Int64.to_int base lsr 32 then
    Lfi_telemetry.Flight.clamp m.flight pci (Int64.to_int raw)

(** Effective address of an addressing mode.  Base-register writeback
    (pre/post-index) is applied separately by {!writeback}, so the pair
    never materializes as an allocated [(addr, closure)] value. *)
let[@inline] addr_of (m : Machine.t) (f : Bytes.t) (pci : int) (a : Insn.addr)
    : int64 =
  match a with
  | Insn.Imm_off (b, i) | Insn.Pre (b, i) ->
      Int64.add (get f b) (Int64.of_int i)
  | Insn.Post (b, _) -> get f b
  | Insn.Reg_off (Reg.R (Reg.W64, 21), Reg.R (_, n), Insn.Uxtw, amt) ->
      let base = rd f 21 in
      let raw = rd f n in
      clamp_audit m pci base raw;
      Int64.add base (Int64.shift_left (Int64.logand raw mask32) amt)
  | Insn.Reg_off (b, r, e, amt) ->
      Int64.add (get f b) (Int64.shift_left (extend_value e (get f r)) amt)

(** Apply the base-register update of [a], given the effective address
    previously computed by {!addr_of}. *)
let[@inline] writeback (f : Bytes.t) (a : Insn.addr) (addr : int64) =
  match a with
  | Insn.Imm_off _ | Insn.Reg_off _ -> ()
  | Insn.Pre (b, _) -> set f b addr
  | Insn.Post (b, i) -> set f b (Int64.add addr (Int64.of_int i))

(** One register of an FP load pair from [a]: a q register takes both
    halves (the low one written before the high one is read), a
    narrower one the low half, zeroing the high half. *)
let[@inline] fldp_one (m : Machine.t) (f : Bytes.t) (pci : int) (n : int)
    (bytes : int) (a : int64) =
  if bytes = 16 then begin
    wr f (slot_vlo + n) (bread m pci a 8);
    wr f (slot_vhi + n) (bread m pci (Int64.add a 8L) 8)
  end
  else begin
    wr f (slot_vlo + n) (bread m pci a bytes);
    wr f (slot_vhi + n) 0L
  end

(** Store FP register [n] at [a]: both halves of a q register, else
    the low [bytes] of the low half. *)
let[@inline] fp_store (m : Machine.t) (f : Bytes.t) (pci : int) (n : int)
    (bytes : int) (a : int64) =
  if bytes = 16 then begin
    bwrite m pci a 8 (rd f (slot_vlo + n));
    bwrite m pci (Int64.add a 8L) 8 (rd f (slot_vhi + n))
  end
  else
    bwrite m pci a bytes
      (if bytes = 4 then Int64.logand (rd f (slot_vlo + n)) mask32
       else rd f (slot_vlo + n))

(* ------------------------------------------------------------------ *)
(* Lowering                                                            *)
(* ------------------------------------------------------------------ *)

(** An ALU second operand's value, evaluated inside the closure that
    uses it so that it stays unboxed. *)
let[@inline] operand2 (f : Bytes.t) (w : Reg.width) (op2 : Insn.operand2) :
    int64 =
  match op2 with
  | Insn.Imm (v, sh) -> Int64.shift_left (Int64.of_int v) sh
  | Insn.Sh (Reg.R (Reg.W64, n), _, 0) ->
      (* shift by 0 is the identity at W64 for every shift kind *)
      rd f n
  | Insn.Sh (r, k, a) -> shift_value w k (get f r) a
  | Insn.Ext (r, e, a) ->
      mask_w w (Int64.shift_left (extend_value e (get f r)) a)

(** Semi-generic ALU lowering: the op/flags dispatch and the operand
    shape are resolved at lowering time, leaving only the arithmetic
    in the closure.  [get]/[set] apply the operand and destination
    width masks; {!operand2} is evaluated in place. *)
let lower_alu (op : Insn.alu_op) (flags : bool) (dst : Reg.t) (src : Reg.t)
    (op2 : Insn.operand2) : Machine.t -> unit =
  let w = Reg.width dst in
  match (op, flags) with
  | Insn.ADD, false ->
      fun m ->
        let f = m.regs in
        set f dst (Int64.add (get f src) (operand2 f w op2))
  | Insn.SUB, false ->
      fun m ->
        let f = m.regs in
        set f dst (Int64.sub (get f src) (operand2 f w op2))
  | Insn.ADD, true ->
      fun m ->
        let f = m.regs in
        set f dst (arith_flags f w ~sub:false (get f src) (operand2 f w op2))
  | Insn.SUB, true ->
      fun m ->
        let f = m.regs in
        set f dst (arith_flags f w ~sub:true (get f src) (operand2 f w op2))
  | Insn.AND, false ->
      fun m ->
        let f = m.regs in
        set f dst (Int64.logand (get f src) (operand2 f w op2))
  | Insn.AND, true ->
      fun m ->
        let f = m.regs in
        let r = Int64.logand (get f src) (operand2 f w op2) in
        logic_flags f w r;
        set f dst (mask_w w r)
  | Insn.ORR, _ ->
      fun m ->
        let f = m.regs in
        set f dst (Int64.logor (get f src) (operand2 f w op2))
  | Insn.EOR, _ ->
      fun m ->
        let f = m.regs in
        set f dst (Int64.logxor (get f src) (operand2 f w op2))
  | Insn.BIC, false ->
      fun m ->
        let f = m.regs in
        set f dst (Int64.logand (get f src) (Int64.lognot (operand2 f w op2)))
  | Insn.BIC, true ->
      fun m ->
        let f = m.regs in
        let r = Int64.logand (get f src) (Int64.lognot (operand2 f w op2)) in
        logic_flags f w r;
        set f dst (mask_w w r)
  | Insn.ORN, _ ->
      fun m ->
        let f = m.regs in
        set f dst (Int64.logor (get f src) (Int64.lognot (operand2 f w op2)))
  | Insn.EON, _ ->
      fun m ->
        let f = m.regs in
        set f dst (Int64.logxor (get f src) (Int64.lognot (operand2 f w op2)))

let ignore_op : Machine.t -> unit = fun _ -> ()

(** Bitfield moves (lsl/lsr/asr-immediate, uxtb/uxth, sxtb/sxth/sxtw,
    bfi/bfxil, …) have every parameter known at lowering time:
    precompute the field mask and shift amounts so the closure is two
    or three word ops.  Agrees with {!bitfield_result} bit for bit — in
    each specialized arm the field mask removes every source bit the
    width mask would have removed, so raw register reads are safe. *)
let lower_bitfield (op : Insn.bf_op) (dst : Reg.t) (src : Reg.t) (immr : int)
    (imms : int) : Machine.t -> unit =
  let w = Reg.width dst in
  let bits = match w with Reg.W64 -> 64 | Reg.W32 -> 32 in
  let mk n = if n >= 64 then -1L else Int64.sub (Int64.shift_left 1L n) 1L in
  (* decoder invariant; the leak analyses below depend on it *)
  let ok = imms < bits && immr < bits in
  match (op, dst, src) with
  | Insn.UBFM, Reg.R (_, d), Reg.R (_, s) when ok && imms >= immr ->
      (* extract src[imms:immr] at bit 0; imms < bits, so [fmask]
         strips any bits the W32 source mask would have stripped *)
      let fmask = mk (imms - immr + 1) in
      fun m ->
        let f = m.regs in
        wr f d
          (Int64.logand
             (Int64.shift_right_logical (rd f s) immr)
             fmask)
  | Insn.UBFM, Reg.R (_, d), Reg.R (_, s) when ok ->
      (* insert src[imms:0] at bit (bits - immr); width + lsb <= bits,
         so the shifted field never leaves the destination width and
         no result mask is needed *)
      let fmask = mk (imms + 1) in
      let lsb = bits - immr in
      fun m ->
        let f = m.regs in
        wr f d
          (Int64.shift_left (Int64.logand (rd f s) fmask)
             lsb)
  | Insn.SBFM, Reg.R (_, d), Reg.R (_, s) when ok && imms >= immr -> (
      let width = imms - immr + 1 in
      let fmask = mk width in
      let sh = 64 - width in
      match w with
      | Reg.W64 ->
          fun m ->
            let f = m.regs in
            let fld =
              Int64.logand
                (Int64.shift_right_logical (rd f s) immr)
                fmask
            in
            wr f d
              (Int64.shift_right (Int64.shift_left fld sh) sh)
      | Reg.W32 ->
          fun m ->
            let f = m.regs in
            let fld =
              Int64.logand
                (Int64.shift_right_logical (rd f s) immr)
                fmask
            in
            wr f d
              (Int64.logand mask32
                 (Int64.shift_right (Int64.shift_left fld sh) sh)))
  | Insn.SBFM, Reg.R (_, d), Reg.R (_, s) when ok -> (
      let fmask = mk (imms + 1) in
      let sh = 64 - (imms + 1) in
      let lsb = bits - immr in
      match w with
      | Reg.W64 ->
          fun m ->
            let f = m.regs in
            let fld = Int64.logand (rd f s) fmask in
            wr f d
              (Int64.shift_left
                 (Int64.shift_right (Int64.shift_left fld sh) sh)
                 lsb)
      | Reg.W32 ->
          fun m ->
            let f = m.regs in
            let fld = Int64.logand (rd f s) fmask in
            wr f d
              (Int64.logand mask32
                 (Int64.shift_left
                    (Int64.shift_right (Int64.shift_left fld sh) sh)
                    lsb)))
  | _ ->
      (* BFM (reads the old destination), or a ZR/SP operand *)
      fun m ->
        let f = m.regs in
        set f dst
          (bitfield_result w op ~dst_old:(get f dst) ~src:(get f src) ~immr
             ~imms)

(** Lower the non-branch instruction at [pci] into a closure.

    Tier A: fully specialized monomorphic paths for the instructions
    that dominate rewriter output — W64 register/immediate ALU, the
    x21 guard add, mov-immediates, adr, and unsigned loads/stores with
    immediate offsets or the guarded addressing form.  Tier B: every
    other instruction, shape-resolved at lowering time over the shared
    helpers above.  Branches, [svc] and [udf] are {!slot}'s. *)
let lower (pci : int) (insn : Insn.t) : Machine.t -> unit =
  match insn with
  (* --- the LFI guard: add xD, x21, wN, uxtw --- *)
  | Insn.Alu
      { op = Insn.ADD; flags = false; dst = Reg.R (Reg.W64, d);
        src = Reg.R (Reg.W64, 21); op2 = Insn.Ext (Reg.R (_, n), Insn.Uxtw, 0)
      } ->
      fun m ->
        let f = m.regs in
        wr f d (Int64.add (rd f 21) (Int64.logand (rd f n) mask32))
  (* --- W64 reg/reg ALU, unshifted --- *)
  | Insn.Alu
      { op; flags = false; dst = Reg.R (Reg.W64, d); src = Reg.R (Reg.W64, s);
        op2 = Insn.Sh (Reg.R (Reg.W64, s2), _, 0) } -> (
      match op with
      | Insn.ADD ->
          fun m ->
            let f = m.regs in
            wr f d (Int64.add (rd f s) (rd f s2))
      | Insn.SUB ->
          fun m ->
            let f = m.regs in
            wr f d (Int64.sub (rd f s) (rd f s2))
      | Insn.AND ->
          fun m ->
            let f = m.regs in
            wr f d (Int64.logand (rd f s) (rd f s2))
      | Insn.ORR ->
          fun m ->
            let f = m.regs in
            wr f d (Int64.logor (rd f s) (rd f s2))
      | Insn.EOR ->
          fun m ->
            let f = m.regs in
            wr f d (Int64.logxor (rd f s) (rd f s2))
      | Insn.BIC ->
          fun m ->
            let f = m.regs in
            wr f d (Int64.logand (rd f s) (Int64.lognot (rd f s2)))
      | Insn.ORN ->
          fun m ->
            let f = m.regs in
            wr f d (Int64.logor (rd f s) (Int64.lognot (rd f s2)))
      | Insn.EON ->
          fun m ->
            let f = m.regs in
            wr f d (Int64.logxor (rd f s) (Int64.lognot (rd f s2))))
  (* --- W64 reg/imm add/sub (address arithmetic) --- *)
  | Insn.Alu
      { op = (Insn.ADD | Insn.SUB) as op; flags = false;
        dst = Reg.R (Reg.W64, d); src = Reg.R (Reg.W64, s);
        op2 = Insn.Imm (iv, sh) } ->
      let c = Int64.shift_left (Int64.of_int iv) sh in
      if op = Insn.ADD then
        fun m ->
          let f = m.regs in
          wr f d (Int64.add (rd f s) c)
      else
        fun m ->
          let f = m.regs in
          wr f d (Int64.sub (rd f s) c)
  (* --- W32 reg/reg ALU, unshifted: one final mask replaces the
         per-operand masks (the low 32 result bits of +/-/logic depend
         only on the low 32 operand bits) --- *)
  | Insn.Alu
      { op; flags = false; dst = Reg.R (Reg.W32, d); src = Reg.R (Reg.W32, s);
        op2 = Insn.Sh (Reg.R (Reg.W32, s2), _, 0) } -> (
      match op with
      | Insn.ADD ->
          fun m ->
            let f = m.regs in
            wr f d (Int64.logand mask32 (Int64.add (rd f s) (rd f s2)))
      | Insn.SUB ->
          fun m ->
            let f = m.regs in
            wr f d (Int64.logand mask32 (Int64.sub (rd f s) (rd f s2)))
      | Insn.AND ->
          fun m ->
            let f = m.regs in
            wr f d (Int64.logand mask32 (Int64.logand (rd f s) (rd f s2)))
      | Insn.ORR ->
          fun m ->
            let f = m.regs in
            wr f d (Int64.logand mask32 (Int64.logor (rd f s) (rd f s2)))
      | Insn.EOR ->
          fun m ->
            let f = m.regs in
            wr f d (Int64.logand mask32 (Int64.logxor (rd f s) (rd f s2)))
      | Insn.BIC ->
          fun m ->
            let f = m.regs in
            wr f d
              (Int64.logand mask32
                 (Int64.logand (rd f s) (Int64.lognot (rd f s2))))
      | Insn.ORN ->
          fun m ->
            let f = m.regs in
            wr f d
              (Int64.logand mask32
                 (Int64.logor (rd f s) (Int64.lognot (rd f s2))))
      | Insn.EON ->
          fun m ->
            let f = m.regs in
            wr f d
              (Int64.logand mask32
                 (Int64.logxor (rd f s) (Int64.lognot (rd f s2)))))
  (* --- W32 reg/imm add/sub --- *)
  | Insn.Alu
      { op = (Insn.ADD | Insn.SUB) as op; flags = false;
        dst = Reg.R (Reg.W32, d); src = Reg.R (Reg.W32, s);
        op2 = Insn.Imm (iv, sh) } ->
      let c = Int64.shift_left (Int64.of_int iv) sh in
      if op = Insn.ADD then
        fun m ->
          let f = m.regs in
          wr f d (Int64.logand mask32 (Int64.add (rd f s) c))
      else
        fun m ->
          let f = m.regs in
          wr f d (Int64.logand mask32 (Int64.sub (rd f s) c))
  (* --- cmp/cmn (flag-setting add/sub into the zero register):
         set_arith_flags masks its operands itself, so raw register reads
         are fine --- *)
  | Insn.Alu
      { op = (Insn.ADD | Insn.SUB) as op; flags = true; dst = Reg.ZR w;
        src = Reg.R (_, s); op2 = Insn.Sh (Reg.R (w2, s2), _, 0) }
    when w2 = w ->
      let sub = op = Insn.SUB in
      fun m ->
        let f = m.regs in
        set_arith_flags f w ~sub (rd f s) (rd f s2)
  | Insn.Alu
      { op = (Insn.ADD | Insn.SUB) as op; flags = true; dst = Reg.ZR w;
        src = Reg.R (_, s); op2 = Insn.Imm (iv, sh) } ->
      let c = Int64.shift_left (Int64.of_int iv) sh in
      let sub = op = Insn.SUB in
      fun m ->
        let f = m.regs in
        set_arith_flags f w ~sub (rd f s) c
  | Insn.Alu { op; flags; dst; src; op2 } -> lower_alu op flags dst src op2
  (* --- move-immediates: fold to a constant --- *)
  | Insn.Mov { op = Insn.MOVZ; dst; imm; hw } -> (
      let k = Int64.shift_left (Int64.of_int imm) (hw * 16) in
      match dst with
      | Reg.R (Reg.W64, d) ->
          fun m ->
            let f = m.regs in
            wr f d k
      | _ ->
          fun m ->
            let f = m.regs in
            set f dst k)
  | Insn.Mov { op = Insn.MOVN; dst; imm; hw } -> (
      let w = Reg.width dst in
      let k =
        mask_w w (Int64.lognot (Int64.shift_left (Int64.of_int imm) (hw * 16)))
      in
      match dst with
      | Reg.R (Reg.W64, d) ->
          fun m ->
            let f = m.regs in
            wr f d k
      | _ ->
          fun m ->
            let f = m.regs in
            set f dst k)
  | Insn.Mov { op = Insn.MOVK; dst; imm; hw } ->
      let w = Reg.width dst in
      let v = Int64.shift_left (Int64.of_int imm) (hw * 16) in
      let keep = Int64.lognot (Int64.shift_left 0xFFFFL (hw * 16)) in
      fun m ->
        let f = m.regs in
        set f dst (mask_w w (Int64.logor (Int64.logand (get f dst) keep) v))
  (* --- adr/adrp: the result is a lowering-time constant --- *)
  | Insn.Adr { page; dst; target = Insn.Off off } -> (
      let pc = Int64.of_int pci in
      let base = if page then Int64.logand pc (Int64.lognot 0xFFFL) else pc in
      let k = Int64.add base (Int64.of_int off) in
      match dst with
      | Reg.R (Reg.W64, d) ->
          fun m ->
            let f = m.regs in
            wr f d k
      | _ ->
          fun m ->
            let f = m.regs in
            set f dst k)
  (* --- unsigned loads, immediate offset --- *)
  | Insn.Ldr
      { sz = Insn.X; signed = false; dst = Reg.R (Reg.W64, d);
        addr = Insn.Imm_off (Reg.R (Reg.W64, bn), off) } ->
      let o = Int64.of_int off in
      fun m ->
        let f = m.regs in
        wr f d (bread m pci (Int64.add (rd f bn) o) 8)
  | Insn.Ldr
      { sz = (Insn.W | Insn.H | Insn.B) as sz; signed = false;
        dst = Reg.R (Reg.W32, d); addr = Insn.Imm_off (Reg.R (Reg.W64, bn), off)
      } ->
      let o = Int64.of_int off in
      let bytes = Insn.mem_bytes sz in
      fun m ->
        let f = m.regs in
        (* a read of <= 4 bytes is already < 2^32: the W32 write mask
           is the identity *)
        wr f d (bread m pci (Int64.add (rd f bn) o) bytes)
  (* --- guarded unsigned loads: ldr rD, [x21, wN, uxtw #s] --- *)
  | Insn.Ldr
      { sz; signed = false; dst = Reg.R (dw, d);
        addr = Insn.Reg_off (Reg.R (Reg.W64, 21), Reg.R (_, n), Insn.Uxtw, amt)
      }
    when (match (sz, dw) with
         | Insn.X, Reg.W64 -> true
         | (Insn.W | Insn.H | Insn.B), Reg.W32 -> true
         | _ -> false) ->
      let bytes = Insn.mem_bytes sz in
      fun m ->
        let f = m.regs in
        let base = rd f 21 in
        let raw = rd f n in
        clamp_audit m pci base raw;
        let a =
          Int64.add base (Int64.shift_left (Int64.logand raw mask32) amt)
        in
        wr f d (bread m pci a bytes)
  (* --- stores, immediate offset --- *)
  | Insn.Str { sz; src; addr = Insn.Imm_off (Reg.R (Reg.W64, bn), off) } ->
      let o = Int64.of_int off in
      let bytes = Insn.mem_bytes sz in
      fun m ->
        let f = m.regs in
        bwrite m pci (Int64.add (rd f bn) o) bytes (get f src)
  (* --- guarded stores: str rS, [x21, wN, uxtw #s] --- *)
  | Insn.Str
      { sz; src;
        addr = Insn.Reg_off (Reg.R (Reg.W64, 21), Reg.R (_, n), Insn.Uxtw, amt)
      } ->
      let bytes = Insn.mem_bytes sz in
      fun m ->
        let f = m.regs in
        let base = rd f 21 in
        let raw = rd f n in
        clamp_audit m pci base raw;
        let a =
          Int64.add base (Int64.shift_left (Int64.logand raw mask32) amt)
        in
        bwrite m pci a bytes (get f src)
  (* --- remaining loads/stores: shape-resolved addressing --- *)
  | Insn.Ldr { sz; signed; dst; addr } ->
      let bytes = Insn.mem_bytes sz in
      let w = Reg.width dst in
      fun m ->
        let f = m.regs in
        let a = addr_of m f pci addr in
        let raw = bread m pci a bytes in
        writeback f addr a;
        set f dst (ld_result sz ~signed w raw)
  | Insn.Str { sz; src; addr } ->
      let bytes = Insn.mem_bytes sz in
      fun m ->
        let f = m.regs in
        let a = addr_of m f pci addr in
        bwrite m pci a bytes (get f src);
        writeback f addr a
  | Insn.Ldp { w; r1; r2; addr } ->
      let size = match w with Reg.W64 -> 8 | Reg.W32 -> 4 in
      let szL = Int64.of_int size in
      fun m ->
        let f = m.regs in
        let a = addr_of m f pci addr in
        let v1 = bread m pci a size in
        let v2 = bread m pci (Int64.add a szL) size in
        writeback f addr a;
        set f r1 v1;
        set f r2 v2
  | Insn.Stp { w; r1; r2; addr } ->
      let size = match w with Reg.W64 -> 8 | Reg.W32 -> 4 in
      let szL = Int64.of_int size in
      fun m ->
        let f = m.regs in
        let a = addr_of m f pci addr in
        bwrite m pci a size (get f r1);
        bwrite m pci (Int64.add a szL) size (get f r2);
        writeback f addr a
  | Insn.Fldr { dst; addr } ->
      let bytes = Reg.Fp.bytes dst in
      let n = dst.Reg.Fp.n in
      if bytes = 16 then
        fun m ->
          let f = m.regs in
          let a = addr_of m f pci addr in
          let lo = bread m pci a 8 in
          let hi = bread m pci (Int64.add a 8L) 8 in
          wr f (slot_vlo + n) lo;
          wr f (slot_vhi + n) hi;
          writeback f addr a
      else
        fun m ->
          let f = m.regs in
          let a = addr_of m f pci addr in
          let v = bread m pci a bytes in
          wr f (slot_vlo + n) v;
          wr f (slot_vhi + n) 0L;
          writeback f addr a
  | Insn.Fstr { src; addr } ->
      let bytes = Reg.Fp.bytes src in
      let n = src.Reg.Fp.n in
      fun m ->
        let f = m.regs in
        let a = addr_of m f pci addr in
        fp_store m f pci n bytes a;
        writeback f addr a
  | Insn.Fldp { r1; r2; addr } ->
      let bytes = Reg.Fp.bytes r1 in
      let szL = Int64.of_int bytes in
      let n1 = r1.Reg.Fp.n and n2 = r2.Reg.Fp.n in
      fun m ->
        let f = m.regs in
        let a = addr_of m f pci addr in
        fldp_one m f pci n1 bytes a;
        fldp_one m f pci n2 bytes (Int64.add a szL);
        writeback f addr a
  | Insn.Fstp { r1; r2; addr } ->
      let bytes = Reg.Fp.bytes r1 in
      let szL = Int64.of_int bytes in
      let n1 = r1.Reg.Fp.n and n2 = r2.Reg.Fp.n in
      fun m ->
        let f = m.regs in
        let a = addr_of m f pci addr in
        fp_store m f pci n1 bytes a;
        fp_store m f pci n2 bytes (Int64.add a szL);
        writeback f addr a
  | Insn.Ldxr { sz; dst; base } ->
      let bytes = Insn.mem_bytes sz in
      fun m ->
        let f = m.regs in
        let a = get f base in
        let v = bread m pci a bytes in
        wr f slot_excl a;
        m.exclusive <- true;
        set f dst v
  | Insn.Stxr { sz; status; src; base } ->
      let bytes = Insn.mem_bytes sz in
      fun m ->
        let f = m.regs in
        let a = get f base in
        if m.exclusive && Int64.equal (rd f slot_excl) a then begin
          bwrite m pci a bytes (get f src);
          set f status 0L
        end
        else set f status 1L;
        m.exclusive <- false
  | Insn.Ldar { sz; dst; base } ->
      let bytes = Insn.mem_bytes sz in
      fun m ->
        let f = m.regs in
        set f dst (bread m pci (get f base) bytes)
  | Insn.Stlr { sz; src; base } ->
      let bytes = Insn.mem_bytes sz in
      fun m ->
        let f = m.regs in
        bwrite m pci (get f base) bytes (get f src)
  (* --- integer data-processing, shape-resolved --- *)
  | Insn.Shiftv { op; dst; src; amount } ->
      let w = Reg.width dst in
      let bmask =
        Int64.of_int ((match w with Reg.W64 -> 64 | Reg.W32 -> 32) - 1)
      in
      fun m ->
        let f = m.regs in
        let a = Int64.to_int (Int64.logand (get f amount) bmask) in
        set f dst (shift_value w op (get f src) a)
  | Insn.Bitfield { op; dst; src; immr; imms } ->
      lower_bitfield op dst src immr imms
  | Insn.Extr { dst; src1; src2; lsb } ->
      let w = Reg.width dst in
      let bits = match w with Reg.W64 -> 64 | Reg.W32 -> 32 in
      fun m ->
        let f = m.regs in
        let hi = mask_w w (get f src1) and lo = mask_w w (get f src2) in
        let r =
          if lsb = 0 then lo
          else
            Int64.logor
              (Int64.shift_right_logical lo lsb)
              (Int64.shift_left hi (bits - lsb))
        in
        set f dst (mask_w w r)
  | Insn.Madd { sub; dst; src1; src2; acc } ->
      let w = Reg.width dst in
      if sub then
        fun m ->
          let f = m.regs in
          let p = Int64.mul (get f src1) (get f src2) in
          set f dst (mask_w w (Int64.sub (get f acc) p))
      else
        fun m ->
          let f = m.regs in
          let p = Int64.mul (get f src1) (get f src2) in
          set f dst (mask_w w (Int64.add (get f acc) p))
  | Insn.Smulh { signed; dst; src1; src2 } ->
      fun m ->
        let f = m.regs in
        set f dst (mulh ~signed (get f src1) (get f src2))
  | Insn.Maddl { signed; sub; dst; src1; src2; acc } ->
      fun m ->
        let f = m.regs in
        let p =
          Int64.mul
            (widen32 ~signed (get f src1))
            (widen32 ~signed (get f src2))
        in
        let r =
          if sub then Int64.sub (get f acc) p else Int64.add (get f acc) p
        in
        set f dst r
  | Insn.Ccmp { cmn; src; op2; nzcv; cond } ->
      let w = Reg.width src in
      fun m ->
        let f = m.regs in
        if cond_holds f cond then begin
          let b =
            match op2 with
            | Insn.CReg r -> get f r
            | Insn.CImm v -> Int64.of_int v
          in
          set_arith_flags f w ~sub:(not cmn) (get f src) b
        end
        else
          set_flags f
            ~n:(nzcv land 8 <> 0)
            ~z:(nzcv land 4 <> 0)
            ~c:(nzcv land 2 <> 0)
            ~v:(nzcv land 1 <> 0)
  | Insn.Div { signed; dst; src1; src2 } ->
      let w = Reg.width dst in
      fun m ->
        let f = m.regs in
        let a = get f src1 and b = get f src2 in
        let a, b =
          match w with
          | Reg.W64 -> (a, b)
          | Reg.W32 ->
              if signed then (sext32 a, sext32 b) else (mask_w w a, mask_w w b)
        in
        let r =
          if Int64.equal b 0L then 0L
          else if signed then
            if Int64.equal a Int64.min_int && Int64.equal b (-1L) then
              Int64.min_int
            else Int64.div a b
          else udiv64 a b
        in
        set f dst (mask_w w r)
  | Insn.Csel
      { op = Insn.CSINC; dst = Reg.R (_, d); src1 = Reg.ZR _;
        src2 = Reg.ZR _; cond } ->
      (* cset: materialize the (inverted) condition as 0/1 *)
      fun m ->
        let f = m.regs in
        wr f d (if cond_holds f cond then 0L else 1L)
  | Insn.Csel { op; dst; src1; src2; cond } ->
      let w = Reg.width dst in
      fun m ->
        let f = m.regs in
        let r =
          if cond_holds f cond then mask_w w (get f src1)
          else
            let b = mask_w w (get f src2) in
            match op with
            | Insn.CSEL -> b
            | Insn.CSINC -> mask_w w (Int64.add b 1L)
            | Insn.CSINV -> mask_w w (Int64.lognot b)
            | Insn.CSNEG -> mask_w w (Int64.neg b)
        in
        set f dst r
  | Insn.Cls { count_zero; dst; src } ->
      let w = Reg.width dst in
      fun m ->
        let f = m.regs in
        let v = mask_w w (get f src) in
        set f dst
          (Int64.of_int (if count_zero then clz_value w v else cls_value w v))
  | Insn.Rbit { dst; src } ->
      let w = Reg.width dst in
      fun m ->
        let f = m.regs in
        set f dst (rbit_value w (mask_w w (get f src)))
  | Insn.Rev { bytes; dst; src } ->
      let w = Reg.width dst in
      fun m ->
        let f = m.regs in
        set f dst (mask_w w (rev_value w bytes (mask_w w (get f src))))
  (* --- floating point, op resolved at lowering time --- *)
  | Insn.Fop2 { op; dst; src1; src2 } -> (
      match op with
      | Insn.FADD ->
          fun m ->
            let f = m.regs in
            set_float f dst
              (round_to_size dst (get_float f src1 +. get_float f src2))
      | Insn.FSUB ->
          fun m ->
            let f = m.regs in
            set_float f dst
              (round_to_size dst (get_float f src1 -. get_float f src2))
      | Insn.FMUL ->
          fun m ->
            let f = m.regs in
            set_float f dst
              (round_to_size dst (get_float f src1 *. get_float f src2))
      | Insn.FDIV ->
          fun m ->
            let f = m.regs in
            set_float f dst
              (round_to_size dst (get_float f src1 /. get_float f src2))
      | Insn.FMIN ->
          fun m ->
            let f = m.regs in
            set_float f dst
              (round_to_size dst
                 (Float.min (get_float f src1) (get_float f src2)))
      | Insn.FMAX ->
          fun m ->
            let f = m.regs in
            set_float f dst
              (round_to_size dst
                 (Float.max (get_float f src1) (get_float f src2))))
  | Insn.Fop1 { op; dst; src } -> (
      match op with
      | Insn.FNEG ->
          fun m ->
            let f = m.regs in
            set_float f dst (round_to_size dst (-.(get_float f src)))
      | Insn.FABS ->
          fun m ->
            let f = m.regs in
            set_float f dst (round_to_size dst (Float.abs (get_float f src)))
      | Insn.FSQRT ->
          fun m ->
            let f = m.regs in
            set_float f dst (round_to_size dst (Float.sqrt (get_float f src)))
      | Insn.FMOV ->
          fun m ->
            let f = m.regs in
            set_float f dst (round_to_size dst (get_float f src)))
  | Insn.Fmadd { sub; dst; src1; src2; acc } ->
      if sub then
        fun m ->
          let f = m.regs in
          let a = get_float f src1
          and b = get_float f src2
          and c = get_float f acc in
          set_float f dst (round_to_size dst (c -. (a *. b)))
      else
        fun m ->
          let f = m.regs in
          let a = get_float f src1
          and b = get_float f src2
          and c = get_float f acc in
          set_float f dst (round_to_size dst (c +. (a *. b)))
  | Insn.Fcmp { src1; src2 } ->
      fun m ->
        let f = m.regs in
        let a = get_float f src1 in
        let b = match src2 with Some r -> get_float f r | None -> 0.0 in
        if Float.is_nan a || Float.is_nan b then
          set_flags f ~n:false ~z:false ~c:true ~v:true
        else if a < b then set_flags f ~n:true ~z:false ~c:false ~v:false
        else if a = b then set_flags f ~n:false ~z:true ~c:true ~v:false
        else set_flags f ~n:false ~z:false ~c:true ~v:false
  | Insn.Fcvt { dst; src } ->
      fun m ->
        let f = m.regs in
        set_float f dst (round_to_size dst (get_float f src))
  | Insn.Scvtf { signed; dst; src } ->
      let sw = Reg.width src in
      fun m ->
        let f = m.regs in
        let v = get f src in
        let v =
          match sw with
          | Reg.W64 -> v
          | Reg.W32 -> if signed then sext32 v else Int64.logand v mask32
        in
        let x = if signed then Int64.to_float v else ucvtf_value v in
        set_float f dst (round_to_size dst x)
  | Insn.Fcvtzs { signed; dst; src } ->
      let w = Reg.width dst in
      fun m ->
        let f = m.regs in
        set f dst (fcvtzs_value ~signed w (get_float f src))
  | Insn.Fmov_to_fp { dst; src } -> (
      let n = dst.Reg.Fp.n in
      match dst.Reg.Fp.size with
      | Reg.Fp.D | Reg.Fp.Q ->
          fun m ->
            let f = m.regs in
            wr f (slot_vlo + n) (get f src)
      | Reg.Fp.S ->
          fun m ->
            let f = m.regs in
            wr f (slot_vlo + n) (Int64.logand (get f src) mask32))
  | Insn.Fmov_from_fp { dst; src } -> (
      let n = src.Reg.Fp.n in
      match src.Reg.Fp.size with
      | Reg.Fp.D | Reg.Fp.Q ->
          fun m ->
            let f = m.regs in
            set f dst (rd f (slot_vlo + n))
      | Reg.Fp.S ->
          fun m ->
            let f = m.regs in
            set f dst (Int64.logand (rd f (slot_vlo + n)) mask32))
  (* --- system --- *)
  | Insn.Nop | Insn.Dmb | Insn.Msr _ -> ignore_op
  | Insn.Mrs { dst; _ } ->
      fun m ->
        let f = m.regs in
        set f dst 0L
  (* --- a symbolic target has no address to run with: the
         instruction fails when executed (decoded code never has one) --- *)
  | Insn.Adr { target = Insn.Sym s; _ }
  | Insn.B (Insn.Sym s)
  | Insn.Bl (Insn.Sym s)
  | Insn.Bcond (_, Insn.Sym s)
  | Insn.Cbz { target = Insn.Sym s; _ }
  | Insn.Tbz { target = Insn.Sym s; _ } ->
      fun _ -> failwith ("unresolved symbol at execution: " ^ s)
  | Insn.B _ | Insn.Bl _ | Insn.Bcond _ | Insn.Cbz _ | Insn.Tbz _ | Insn.Br _
  | Insn.Blr _ | Insn.Ret _ | Insn.Svc _ | Insn.Udf _ ->
      invalid_arg "Sem.lower: terminator"

(* ------------------------------------------------------------------ *)
(* Slots and terminators                                               *)
(* ------------------------------------------------------------------ *)

(** The lowered form of the instruction at [pci]: a terminator for a
    branch with a resolved target, [svc] or [udf]; otherwise {!lower}'s
    closure with the fall-through pc. *)
let slot (pci : int) (insn : Insn.t) : Machine.op =
  let next = pci + 4 in
  match insn with
  | Insn.B (Insn.Off o) -> Term (Tb { target = pci + o; ti = pci })
  | Insn.Bl (Insn.Off o) ->
      Term (Tbl { target = pci + o; ti = pci; link = Int64.of_int next })
  | Insn.Bcond (c, Insn.Off o) ->
      Term (Tbcond { cond = c; target = pci + o; ti = pci; next })
  | Insn.Cbz { nz; reg; target = Insn.Off o } ->
      Term (Tcbz { nz; reg; target = pci + o; ti = pci; next })
  | Insn.Tbz { nz; reg; bit; target = Insn.Off o } ->
      Term (Ttbz { nz; reg; bit; target = pci + o; ti = pci; next })
  | Insn.Br r -> Term (Tbr { reg = r; ti = pci })
  | Insn.Blr r -> Term (Tblr { reg = r; ti = pci; link = Int64.of_int next })
  | Insn.Ret r -> Term (Tret { reg = r; ti = pci })
  | Insn.Svc n -> Term (Tsvc { n; next = Int64.of_int next })
  | Insn.Udf _ -> Term (Tudf { pc = Int64.of_int pci })
  | _ -> Body (lower pci insn, Int64.of_int next)

(** [pc] lies in [0, 2^62), so it survives the untagged int the
    dispatch loops thread. *)
let[@inline] pc_fits (pc : int64) : bool = Int64.shift_right_logical pc 62 = 0L

(** The fetch fault at a [pc] no decode slot can hold: misaligned, or
    outside [0, 2^62), where no code is mapped.  Both dispatch paths
    raise it at the unmodified address, before any code-cache
    lookup. *)
let fetch_fault (pc : int64) =
  raise
    (Memory.Fault
       { Memory.addr = pc; access = Memory.Fetch;
         reason =
           (if Int64.logand pc 3L <> 0L then "misaligned pc" else "unmapped")
       })

(* A taken branch from [ti]: log it into the escape oracle (one [None]
   test when it is off) and the flight recorder, then return its target
   as the next pc, or store it in the pc slot and return -1 when it
   lies outside [0, 2^62).  A direct target is an untagged int,
   negative when the branch leaves the address space below 0. *)
let[@inline] direct (m : Machine.t) (kind : int) (ti : int) (target : int) :
    int =
  (match m.escape_oracle with
  | None -> ()
  | Some o -> oracle_branch o ti (Int64.of_int target));
  Lfi_telemetry.Flight.record m.flight kind ti target;
  if target >= 0 then target
  else begin
    wr m.regs slot_pc (Int64.of_int target);
    -1
  end

(* The same for an indirect branch to the full 64-bit [t]. *)
let[@inline] indirect (m : Machine.t) (kind : int) (ti : int) (t : int64) : int
    =
  (match m.escape_oracle with None -> () | Some o -> oracle_branch o ti t);
  Lfi_telemetry.Flight.record m.flight kind ti (Int64.to_int t);
  if pc_fits t then Int64.to_int t
  else begin
    wr m.regs slot_pc t;
    -1
  end

(** Execute a terminator: write the link register, log the branch, and
    return the next pc as an untagged int in [0, 2^62).  When there is
    no such pc — a trap ([svc]/[udf]) or a branch target outside
    [0, 2^62) — store the next pc in the pc slot and return -1; the caller
    tells the two apart by the terminator.  Never faults. *)
let exec_term (m : Machine.t) (t : bterm) : int =
  let f = m.regs in
  match t with
  | Tb { target; ti } -> direct m Lfi_telemetry.Flight.k_branch ti target
  | Tbl { target; ti; link } ->
      wr f 30 link;
      direct m Lfi_telemetry.Flight.k_call ti target
  | Tbcond { cond; target; ti; next } ->
      if cond_holds f cond then direct m Lfi_telemetry.Flight.k_branch ti target
      else next
  | Tcbz { nz; reg; target; ti; next } ->
      let zero = Int64.equal (get f reg) 0L in
      if zero <> nz then direct m Lfi_telemetry.Flight.k_branch ti target
      else next
  | Ttbz { nz; reg; bit; target; ti; next } ->
      let one =
        Int64.logand (Int64.shift_right_logical (get f reg) bit) 1L = 1L
      in
      if one = nz then direct m Lfi_telemetry.Flight.k_branch ti target
      else next
  | Tbr { reg; ti } -> indirect m Lfi_telemetry.Flight.k_branch ti (get f reg)
  | Tblr { reg; ti; link } ->
      let t = get f reg in
      wr f 30 link;
      indirect m Lfi_telemetry.Flight.k_call ti t
  | Tret { reg; ti } -> indirect m Lfi_telemetry.Flight.k_ret ti (get f reg)
  | Tsvc { next; _ } ->
      wr f slot_pc next;
      -1
  | Tudf { pc } ->
      wr f slot_pc pc;
      -1
  | Tfall _ -> assert false

(* ------------------------------------------------------------------ *)
(* The decode-slot fill                                                *)
(* ------------------------------------------------------------------ *)

(** Fetch, decode, cost and lower the instruction at [pci] into slot
    [s] of the current decode page ([m.dc_idx] is [pci]'s page), and
    return its lowered form.  A fetch fault propagates.  The one fill
    both paths share: the step loop runs the slot's form, {!Block.build}
    copies it into a block.  With metrics armed the slot is marked
    fresh: its next retirement counts the decode miss. *)
let fill (m : Machine.t) (pci : int) (s : int) : Machine.op =
  let i = Isa.decode (Memory.fetch m.mem (Int64.of_int pci)) in
  let op = slot pci i in
  let p = m.dc_page in
  Array.unsafe_set p.d_insn s i;
  Array.unsafe_set m.dc_cost s (Cost_model.cost m.uarch i);
  Array.unsafe_set m.dc_op s op;
  (match m.metrics with
  | None -> ()
  | Some _ -> Bytes.unsafe_set p.d_fresh s '\001');
  op
