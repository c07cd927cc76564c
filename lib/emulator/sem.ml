(** The executable semantics of the ARM64 subset: each decoded
    instruction lowered, once, to what both dispatch paths run.

    A non-branch instruction becomes a closure over the machine
    ({!lower}): register operands resolved to array indices,
    immediates pre-extended and pre-boxed, and the instructions that
    dominate rewriter output (W64/W32 register and immediate ALU, the
    x21 guard add, mov-immediates, [adr], immediate-offset and guarded
    loads/stores) specialized into monomorphic fast paths.  A branch,
    [svc] or [udf] becomes a {!Machine.bterm} that {!exec_term} runs.
    {!fill} stores the lowered form in the machine's decode cache
    beside the instruction and its cost; the single-step loop
    ({!Interp}) and the superblock engine ({!Block}) both execute it
    from there, so there is one definition of what an instruction does.

    Lowered code never reads [m.pc]: the instruction's own pc is
    captured at lowering time.  The flight recorder's events
    (taken branches, guard-clamp audits) and the escape oracle's
    checks (every data access in {!bread}/{!bwrite}, every taken
    branch in {!exec_term}) are made here, against that pc, so every
    observer sees the same records on both dispatch paths. *)

open Lfi_arm64
open Machine

(* ------------------------------------------------------------------ *)
(* Arithmetic helpers                                                  *)
(* ------------------------------------------------------------------ *)

let mask_w (w : Reg.width) v =
  match w with Reg.W64 -> v | Reg.W32 -> Int64.logand v mask32

let sext32 v =
  Int64.shift_right (Int64.shift_left v 32) 32

let sign_bit (w : Reg.width) v =
  match w with
  | Reg.W64 -> Int64.compare v 0L < 0
  | Reg.W32 -> Int64.logand v 0x80000000L <> 0L

let extend_value (e : Insn.extend) (v : int64) : int64 =
  match e with
  | Insn.Uxtb -> Int64.logand v 0xFFL
  | Insn.Uxth -> Int64.logand v 0xFFFFL
  | Insn.Uxtw -> Int64.logand v mask32
  | Insn.Uxtx -> v
  | Insn.Sxtb -> Int64.shift_right (Int64.shift_left v 56) 56
  | Insn.Sxth -> Int64.shift_right (Int64.shift_left v 48) 48
  | Insn.Sxtw -> sext32 v
  | Insn.Sxtx -> v

let shift_value (w : Reg.width) (k : Insn.shift) (v : int64) (a : int) : int64 =
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

(** Add/sub with NZCV computation at the given width. *)
let arith_flags (m : Machine.t) (w : Reg.width) ~sub (a : int64) (b : int64) :
    int64 =
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
  set_nzcv m ~n ~z ~c ~v;
  r_masked

let logic_flags (m : Machine.t) (w : Reg.width) (r : int64) =
  set_nzcv m ~n:(sign_bit w r) ~z:(Int64.equal (mask_w w r) 0L) ~c:false
    ~v:false

(* 128-bit multiply high half. *)
let mulh ~signed (a : int64) (b : int64) : int64 =
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

let bitfield_result (w : Reg.width) (op : Insn.bf_op) ~(dst_old : int64)
    ~(src : int64) ~(immr : int) ~(imms : int) : int64 =
  let bits = match w with Reg.W64 -> 64 | Reg.W32 -> 32 in
  let mask n = if n >= 64 then -1L else Int64.sub (Int64.shift_left 1L n) 1L in
  let src = mask_w w src in
  let result =
    if imms >= immr then begin
      (* extract field src[imms:immr] at bit 0 *)
      let width = imms - immr + 1 in
      let fld = Int64.logand (Int64.shift_right_logical src immr) (mask width) in
      match op with
      | Insn.UBFM -> fld
      | Insn.SBFM ->
          let sh = 64 - width in
          Int64.shift_right (Int64.shift_left fld sh) sh
      | Insn.BFM ->
          Int64.logor
            (Int64.logand dst_old (Int64.lognot (mask width)))
            fld
    end
    else begin
      (* insert field src[imms:0] at bit (bits - immr) *)
      let width = imms + 1 in
      let lsb = bits - immr in
      let fld = Int64.logand src (mask width) in
      match op with
      | Insn.UBFM -> Int64.shift_left fld lsb
      | Insn.SBFM ->
          let sh = 64 - width in
          Int64.shift_left (Int64.shift_right (Int64.shift_left fld sh) sh) lsb
      | Insn.BFM ->
          let hole = Int64.shift_left (mask width) lsb in
          Int64.logor
            (Int64.logand dst_old (Int64.lognot hole))
            (Int64.shift_left fld lsb)
    end
  in
  mask_w w result

let clz_value (w : Reg.width) (v : int64) =
  let bits = match w with Reg.W64 -> 64 | Reg.W32 -> 32 in
  let rec go i =
    if i < 0 then bits
    else if Int64.logand (Int64.shift_right_logical v i) 1L = 1L then
      bits - 1 - i
    else go (i - 1)
  in
  go (bits - 1)

let cls_value (w : Reg.width) (v : int64) =
  let bits = match w with Reg.W64 -> 64 | Reg.W32 -> 32 in
  let sign = Int64.logand (Int64.shift_right_logical v (bits - 1)) 1L in
  let rec go i acc =
    if i < 0 then acc
    else if Int64.logand (Int64.shift_right_logical v i) 1L = sign then
      go (i - 1) (acc + 1)
    else acc
  in
  go (bits - 2) 0

let rbit_value (w : Reg.width) (v : int64) =
  let bits = match w with Reg.W64 -> 64 | Reg.W32 -> 32 in
  let r = ref 0L in
  for i = 0 to bits - 1 do
    if Int64.logand (Int64.shift_right_logical v i) 1L = 1L then
      r := Int64.logor !r (Int64.shift_left 1L (bits - 1 - i))
  done;
  !r

let rev_value (w : Reg.width) (group : int) (v : int64) =
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

let ld_result (sz : Insn.mem_size) ~signed (w : Reg.width) (raw : int64) :
    int64 =
  if not signed then raw
  else
    let shift = 64 - (8 * Insn.mem_bytes sz) in
    let v = Int64.shift_right (Int64.shift_left raw shift) shift in
    mask_w w v

(* ------------------------------------------------------------------ *)
(* Floating point                                                      *)
(* ------------------------------------------------------------------ *)

let round_to_size (f : Reg.Fp.t) (v : float) : float =
  match f.Reg.Fp.size with
  | Reg.Fp.S -> Int32.float_of_bits (Int32.bits_of_float v)
  | Reg.Fp.D | Reg.Fp.Q -> v

let fcvtzs_value ~signed (w : Reg.width) (v : float) : int64 =
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

let ucvtf_value (v : int64) : float =
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

(** The data access every load runs: oracle check, TLB charge, read.
    With the oracle off the check is one [None] test. *)
let[@inline] bread (m : Machine.t) (pci : int) (a : int64) (size : int) :
    int64 =
  (match m.escape_oracle with
  | None -> ()
  | Some o -> oracle_data o pci a size Machine.Eload);
  charge_tlb m a;
  Memory.read m.mem a size

let[@inline] bwrite (m : Machine.t) (pci : int) (a : int64) (size : int)
    (v : int64) =
  (match m.escape_oracle with
  | None -> ()
  | Some o -> oracle_data o pci a size Machine.Estore);
  charge_tlb m a;
  Memory.write m.mem a size v

(** Guard-clamp audit for the [\[x21, wN, uxtw\]] addressing form.  A
    well-formed index is either a sandbox-relative offset (upper 32
    bits zero) or a full in-sandbox pointer (upper 32 bits equal to
    the base's); anything else is an address the guard silently pulled
    back into the sandbox (Section 5.2's clamped escape), so it bumps
    the flight recorder's audit counter and logs the pc.  The
    comparisons are untagged, so the audit allocates nothing; with the
    recorder off it is one [None] check. *)
let[@inline] clamp_audit (m : Machine.t) (pci : int) (base : int64)
    (raw : int64) =
  match m.flight with
  | None -> ()
  | Some f ->
      let hi = Int64.to_int raw lsr 32 in
      if hi <> 0 && hi <> Int64.to_int base lsr 32 then
        Lfi_telemetry.Flight.clamp f pci (Int64.to_int raw)

(** Effective address of an addressing mode.  Base-register writeback
    (pre/post-index) is applied separately by {!writeback}, so the pair
    never materializes as an allocated [(addr, closure)] value. *)
let[@inline] addr_of (m : Machine.t) (pci : int) (a : Insn.addr) : int64 =
  match a with
  | Insn.Imm_off (b, i) | Insn.Pre (b, i) ->
      Int64.add (get m b) (Int64.of_int i)
  | Insn.Post (b, _) -> get m b
  | Insn.Reg_off (Reg.R (Reg.W64, 21), Reg.R (_, n), Insn.Uxtw, amt) ->
      let base = Array.unsafe_get m.regs 21 in
      let raw = Array.unsafe_get m.regs n in
      clamp_audit m pci base raw;
      Int64.add base (Int64.shift_left (Int64.logand raw mask32) amt)
  | Insn.Reg_off (b, r, e, amt) ->
      Int64.add (get m b) (Int64.shift_left (extend_value e (get m r)) amt)

(** Apply the base-register update of [a], given the effective address
    previously computed by {!addr_of}. *)
let[@inline] writeback (m : Machine.t) (a : Insn.addr) (addr : int64) =
  match a with
  | Insn.Imm_off _ | Insn.Reg_off _ -> ()
  | Insn.Pre (b, _) -> set m b addr
  | Insn.Post (b, i) -> set m b (Int64.add addr (Int64.of_int i))

(* ------------------------------------------------------------------ *)
(* Lowering                                                            *)
(* ------------------------------------------------------------------ *)

(** Pre-resolve an ALU second operand.  Immediates become a captured
    pre-shifted boxed constant; a plain W64 register becomes an
    unchecked array load. *)
let lower_operand2 (w : Reg.width) (op2 : Insn.operand2) : Machine.t -> int64 =
  match op2 with
  | Insn.Imm (v, sh) ->
      let c = Int64.shift_left (Int64.of_int v) sh in
      fun _ -> c
  | Insn.Sh (Reg.R (Reg.W64, n), _, 0) ->
      (* shift by 0 is the identity at W64 for every shift kind *)
      fun m -> Array.unsafe_get m.regs n
  | Insn.Sh (r, k, a) -> fun m -> shift_value w k (get m r) a
  | Insn.Ext (r, e, a) ->
      fun m -> mask_w w (Int64.shift_left (extend_value e (get m r)) a)

(** Semi-generic ALU lowering: the op/flags dispatch and the operand
    shape are resolved at lowering time, leaving only the arithmetic
    in the closure.  [get]/[set] apply the operand and destination
    width masks. *)
let lower_alu (op : Insn.alu_op) (flags : bool) (dst : Reg.t) (src : Reg.t)
    (op2 : Insn.operand2) : Machine.t -> unit =
  let w = Reg.width dst in
  let o2 = lower_operand2 w op2 in
  match (op, flags) with
  | Insn.ADD, false -> fun m -> set m dst (Int64.add (get m src) (o2 m))
  | Insn.SUB, false -> fun m -> set m dst (Int64.sub (get m src) (o2 m))
  | Insn.ADD, true ->
      fun m -> set m dst (arith_flags m w ~sub:false (get m src) (o2 m))
  | Insn.SUB, true ->
      fun m -> set m dst (arith_flags m w ~sub:true (get m src) (o2 m))
  | Insn.AND, false -> fun m -> set m dst (Int64.logand (get m src) (o2 m))
  | Insn.AND, true ->
      fun m ->
        let r = Int64.logand (get m src) (o2 m) in
        logic_flags m w r;
        set m dst (mask_w w r)
  | Insn.ORR, _ -> fun m -> set m dst (Int64.logor (get m src) (o2 m))
  | Insn.EOR, _ -> fun m -> set m dst (Int64.logxor (get m src) (o2 m))
  | Insn.BIC, false ->
      fun m -> set m dst (Int64.logand (get m src) (Int64.lognot (o2 m)))
  | Insn.BIC, true ->
      fun m ->
        let r = Int64.logand (get m src) (Int64.lognot (o2 m)) in
        logic_flags m w r;
        set m dst (mask_w w r)
  | Insn.ORN, _ ->
      fun m -> set m dst (Int64.logor (get m src) (Int64.lognot (o2 m)))
  | Insn.EON, _ ->
      fun m -> set m dst (Int64.logxor (get m src) (Int64.lognot (o2 m)))

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
        Array.unsafe_set m.regs d
          (Int64.logand
             (Int64.shift_right_logical (Array.unsafe_get m.regs s) immr)
             fmask)
  | Insn.UBFM, Reg.R (_, d), Reg.R (_, s) when ok ->
      (* insert src[imms:0] at bit (bits - immr); width + lsb <= bits,
         so the shifted field never leaves the destination width and
         no result mask is needed *)
      let fmask = mk (imms + 1) in
      let lsb = bits - immr in
      fun m ->
        Array.unsafe_set m.regs d
          (Int64.shift_left (Int64.logand (Array.unsafe_get m.regs s) fmask)
             lsb)
  | Insn.SBFM, Reg.R (_, d), Reg.R (_, s) when ok && imms >= immr -> (
      let width = imms - immr + 1 in
      let fmask = mk width in
      let sh = 64 - width in
      match w with
      | Reg.W64 ->
          fun m ->
            let fld =
              Int64.logand
                (Int64.shift_right_logical (Array.unsafe_get m.regs s) immr)
                fmask
            in
            Array.unsafe_set m.regs d
              (Int64.shift_right (Int64.shift_left fld sh) sh)
      | Reg.W32 ->
          fun m ->
            let fld =
              Int64.logand
                (Int64.shift_right_logical (Array.unsafe_get m.regs s) immr)
                fmask
            in
            Array.unsafe_set m.regs d
              (Int64.logand mask32
                 (Int64.shift_right (Int64.shift_left fld sh) sh)))
  | Insn.SBFM, Reg.R (_, d), Reg.R (_, s) when ok -> (
      let fmask = mk (imms + 1) in
      let sh = 64 - (imms + 1) in
      let lsb = bits - immr in
      match w with
      | Reg.W64 ->
          fun m ->
            let fld = Int64.logand (Array.unsafe_get m.regs s) fmask in
            Array.unsafe_set m.regs d
              (Int64.shift_left
                 (Int64.shift_right (Int64.shift_left fld sh) sh)
                 lsb)
      | Reg.W32 ->
          fun m ->
            let fld = Int64.logand (Array.unsafe_get m.regs s) fmask in
            Array.unsafe_set m.regs d
              (Int64.logand mask32
                 (Int64.shift_left
                    (Int64.shift_right (Int64.shift_left fld sh) sh)
                    lsb)))
  | _ ->
      (* BFM (reads the old destination), or a ZR/SP operand *)
      fun m ->
        set m dst
          (bitfield_result w op ~dst_old:(get m dst) ~src:(get m src) ~immr
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
        Array.unsafe_set m.regs d
          (Int64.add (Array.unsafe_get m.regs 21)
             (Int64.logand (Array.unsafe_get m.regs n) mask32))
  (* --- W64 reg/reg ALU, unshifted --- *)
  | Insn.Alu
      { op; flags = false; dst = Reg.R (Reg.W64, d); src = Reg.R (Reg.W64, s);
        op2 = Insn.Sh (Reg.R (Reg.W64, s2), _, 0) } -> (
      match op with
      | Insn.ADD ->
          fun m ->
            Array.unsafe_set m.regs d
              (Int64.add (Array.unsafe_get m.regs s)
                 (Array.unsafe_get m.regs s2))
      | Insn.SUB ->
          fun m ->
            Array.unsafe_set m.regs d
              (Int64.sub (Array.unsafe_get m.regs s)
                 (Array.unsafe_get m.regs s2))
      | Insn.AND ->
          fun m ->
            Array.unsafe_set m.regs d
              (Int64.logand (Array.unsafe_get m.regs s)
                 (Array.unsafe_get m.regs s2))
      | Insn.ORR ->
          fun m ->
            Array.unsafe_set m.regs d
              (Int64.logor (Array.unsafe_get m.regs s)
                 (Array.unsafe_get m.regs s2))
      | Insn.EOR ->
          fun m ->
            Array.unsafe_set m.regs d
              (Int64.logxor (Array.unsafe_get m.regs s)
                 (Array.unsafe_get m.regs s2))
      | Insn.BIC ->
          fun m ->
            Array.unsafe_set m.regs d
              (Int64.logand (Array.unsafe_get m.regs s)
                 (Int64.lognot (Array.unsafe_get m.regs s2)))
      | Insn.ORN ->
          fun m ->
            Array.unsafe_set m.regs d
              (Int64.logor (Array.unsafe_get m.regs s)
                 (Int64.lognot (Array.unsafe_get m.regs s2)))
      | Insn.EON ->
          fun m ->
            Array.unsafe_set m.regs d
              (Int64.logxor (Array.unsafe_get m.regs s)
                 (Int64.lognot (Array.unsafe_get m.regs s2))))
  (* --- W64 reg/imm add/sub (address arithmetic) --- *)
  | Insn.Alu
      { op = (Insn.ADD | Insn.SUB) as op; flags = false;
        dst = Reg.R (Reg.W64, d); src = Reg.R (Reg.W64, s);
        op2 = Insn.Imm (iv, sh) } ->
      let c = Int64.shift_left (Int64.of_int iv) sh in
      if op = Insn.ADD then
        fun m ->
          Array.unsafe_set m.regs d (Int64.add (Array.unsafe_get m.regs s) c)
      else
        fun m ->
          Array.unsafe_set m.regs d (Int64.sub (Array.unsafe_get m.regs s) c)
  (* --- W32 reg/reg ALU, unshifted: one final mask replaces the
         per-operand masks (the low 32 result bits of +/-/logic depend
         only on the low 32 operand bits) --- *)
  | Insn.Alu
      { op; flags = false; dst = Reg.R (Reg.W32, d); src = Reg.R (Reg.W32, s);
        op2 = Insn.Sh (Reg.R (Reg.W32, s2), _, 0) } -> (
      match op with
      | Insn.ADD ->
          fun m ->
            Array.unsafe_set m.regs d
              (Int64.logand mask32
                 (Int64.add (Array.unsafe_get m.regs s)
                    (Array.unsafe_get m.regs s2)))
      | Insn.SUB ->
          fun m ->
            Array.unsafe_set m.regs d
              (Int64.logand mask32
                 (Int64.sub (Array.unsafe_get m.regs s)
                    (Array.unsafe_get m.regs s2)))
      | Insn.AND ->
          fun m ->
            Array.unsafe_set m.regs d
              (Int64.logand mask32
                 (Int64.logand (Array.unsafe_get m.regs s)
                    (Array.unsafe_get m.regs s2)))
      | Insn.ORR ->
          fun m ->
            Array.unsafe_set m.regs d
              (Int64.logand mask32
                 (Int64.logor (Array.unsafe_get m.regs s)
                    (Array.unsafe_get m.regs s2)))
      | Insn.EOR ->
          fun m ->
            Array.unsafe_set m.regs d
              (Int64.logand mask32
                 (Int64.logxor (Array.unsafe_get m.regs s)
                    (Array.unsafe_get m.regs s2)))
      | Insn.BIC ->
          fun m ->
            Array.unsafe_set m.regs d
              (Int64.logand mask32
                 (Int64.logand (Array.unsafe_get m.regs s)
                    (Int64.lognot (Array.unsafe_get m.regs s2))))
      | Insn.ORN ->
          fun m ->
            Array.unsafe_set m.regs d
              (Int64.logand mask32
                 (Int64.logor (Array.unsafe_get m.regs s)
                    (Int64.lognot (Array.unsafe_get m.regs s2))))
      | Insn.EON ->
          fun m ->
            Array.unsafe_set m.regs d
              (Int64.logand mask32
                 (Int64.logxor (Array.unsafe_get m.regs s)
                    (Int64.lognot (Array.unsafe_get m.regs s2)))))
  (* --- W32 reg/imm add/sub --- *)
  | Insn.Alu
      { op = (Insn.ADD | Insn.SUB) as op; flags = false;
        dst = Reg.R (Reg.W32, d); src = Reg.R (Reg.W32, s);
        op2 = Insn.Imm (iv, sh) } ->
      let c = Int64.shift_left (Int64.of_int iv) sh in
      if op = Insn.ADD then
        fun m ->
          Array.unsafe_set m.regs d
            (Int64.logand mask32 (Int64.add (Array.unsafe_get m.regs s) c))
      else
        fun m ->
          Array.unsafe_set m.regs d
            (Int64.logand mask32 (Int64.sub (Array.unsafe_get m.regs s) c))
  (* --- cmp/cmn (flag-setting add/sub into the zero register):
         arith_flags masks its operands itself, so raw register reads
         are fine --- *)
  | Insn.Alu
      { op = (Insn.ADD | Insn.SUB) as op; flags = true; dst = Reg.ZR w;
        src = Reg.R (_, s); op2 = Insn.Sh (Reg.R (w2, s2), _, 0) }
    when w2 = w ->
      let sub = op = Insn.SUB in
      fun m ->
        ignore
          (arith_flags m w ~sub (Array.unsafe_get m.regs s)
             (Array.unsafe_get m.regs s2))
  | Insn.Alu
      { op = (Insn.ADD | Insn.SUB) as op; flags = true; dst = Reg.ZR w;
        src = Reg.R (_, s); op2 = Insn.Imm (iv, sh) } ->
      let c = Int64.shift_left (Int64.of_int iv) sh in
      let sub = op = Insn.SUB in
      fun m -> ignore (arith_flags m w ~sub (Array.unsafe_get m.regs s) c)
  | Insn.Alu { op; flags; dst; src; op2 } -> lower_alu op flags dst src op2
  (* --- move-immediates: fold to a pre-boxed constant --- *)
  | Insn.Mov { op = Insn.MOVZ; dst; imm; hw } -> (
      let k = Int64.shift_left (Int64.of_int imm) (hw * 16) in
      match dst with
      | Reg.R (Reg.W64, d) -> fun m -> Array.unsafe_set m.regs d k
      | _ -> fun m -> set m dst k)
  | Insn.Mov { op = Insn.MOVN; dst; imm; hw } -> (
      let w = Reg.width dst in
      let k =
        mask_w w (Int64.lognot (Int64.shift_left (Int64.of_int imm) (hw * 16)))
      in
      match dst with
      | Reg.R (Reg.W64, d) -> fun m -> Array.unsafe_set m.regs d k
      | _ -> fun m -> set m dst k)
  | Insn.Mov { op = Insn.MOVK; dst; imm; hw } ->
      let w = Reg.width dst in
      let v = Int64.shift_left (Int64.of_int imm) (hw * 16) in
      let keep = Int64.lognot (Int64.shift_left 0xFFFFL (hw * 16)) in
      fun m -> set m dst (mask_w w (Int64.logor (Int64.logand (get m dst) keep) v))
  (* --- adr/adrp: the result is a lowering-time constant --- *)
  | Insn.Adr { page; dst; target = Insn.Off off } -> (
      let pc = Int64.of_int pci in
      let base = if page then Int64.logand pc (Int64.lognot 0xFFFL) else pc in
      let k = Int64.add base (Int64.of_int off) in
      match dst with
      | Reg.R (Reg.W64, d) -> fun m -> Array.unsafe_set m.regs d k
      | _ -> fun m -> set m dst k)
  (* --- unsigned loads, immediate offset --- *)
  | Insn.Ldr
      { sz = Insn.X; signed = false; dst = Reg.R (Reg.W64, d);
        addr = Insn.Imm_off (Reg.R (Reg.W64, bn), off) } ->
      let o = Int64.of_int off in
      fun m ->
        Array.unsafe_set m.regs d
          (bread m pci (Int64.add (Array.unsafe_get m.regs bn) o) 8)
  | Insn.Ldr
      { sz = (Insn.W | Insn.H | Insn.B) as sz; signed = false;
        dst = Reg.R (Reg.W32, d); addr = Insn.Imm_off (Reg.R (Reg.W64, bn), off)
      } ->
      let o = Int64.of_int off in
      let bytes = Insn.mem_bytes sz in
      fun m ->
        (* a read of <= 4 bytes is already < 2^32: the W32 write mask
           is the identity *)
        Array.unsafe_set m.regs d
          (bread m pci (Int64.add (Array.unsafe_get m.regs bn) o) bytes)
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
        let base = Array.unsafe_get m.regs 21 in
        let raw = Array.unsafe_get m.regs n in
        clamp_audit m pci base raw;
        let a =
          Int64.add base (Int64.shift_left (Int64.logand raw mask32) amt)
        in
        Array.unsafe_set m.regs d (bread m pci a bytes)
  (* --- stores, immediate offset --- *)
  | Insn.Str { sz; src; addr = Insn.Imm_off (Reg.R (Reg.W64, bn), off) } ->
      let o = Int64.of_int off in
      let bytes = Insn.mem_bytes sz in
      fun m ->
        bwrite m pci (Int64.add (Array.unsafe_get m.regs bn) o) bytes
          (get m src)
  (* --- guarded stores: str rS, [x21, wN, uxtw #s] --- *)
  | Insn.Str
      { sz; src;
        addr = Insn.Reg_off (Reg.R (Reg.W64, 21), Reg.R (_, n), Insn.Uxtw, amt)
      } ->
      let bytes = Insn.mem_bytes sz in
      fun m ->
        let base = Array.unsafe_get m.regs 21 in
        let raw = Array.unsafe_get m.regs n in
        clamp_audit m pci base raw;
        let a =
          Int64.add base (Int64.shift_left (Int64.logand raw mask32) amt)
        in
        bwrite m pci a bytes (get m src)
  (* --- remaining loads/stores: shape-resolved addressing --- *)
  | Insn.Ldr { sz; signed; dst; addr } ->
      let bytes = Insn.mem_bytes sz in
      let w = Reg.width dst in
      fun m ->
        let a = addr_of m pci addr in
        let raw = bread m pci a bytes in
        writeback m addr a;
        set m dst (ld_result sz ~signed w raw)
  | Insn.Str { sz; src; addr } ->
      let bytes = Insn.mem_bytes sz in
      fun m ->
        let a = addr_of m pci addr in
        bwrite m pci a bytes (get m src);
        writeback m addr a
  | Insn.Ldp { w; r1; r2; addr } ->
      let size = match w with Reg.W64 -> 8 | Reg.W32 -> 4 in
      let szL = Int64.of_int size in
      fun m ->
        let a = addr_of m pci addr in
        let v1 = bread m pci a size in
        let v2 = bread m pci (Int64.add a szL) size in
        writeback m addr a;
        set m r1 v1;
        set m r2 v2
  | Insn.Stp { w; r1; r2; addr } ->
      let size = match w with Reg.W64 -> 8 | Reg.W32 -> 4 in
      let szL = Int64.of_int size in
      fun m ->
        let a = addr_of m pci addr in
        bwrite m pci a size (get m r1);
        bwrite m pci (Int64.add a szL) size (get m r2);
        writeback m addr a
  | Insn.Fldr { dst; addr } ->
      let bytes = Reg.Fp.bytes dst in
      let n = dst.Reg.Fp.n in
      if bytes = 16 then
        fun m ->
          let a = addr_of m pci addr in
          let lo = bread m pci a 8 in
          let hi = bread m pci (Int64.add a 8L) 8 in
          Array.unsafe_set m.vlo n lo;
          Array.unsafe_set m.vhi n hi;
          writeback m addr a
      else
        fun m ->
          let a = addr_of m pci addr in
          let v = bread m pci a bytes in
          Array.unsafe_set m.vlo n v;
          Array.unsafe_set m.vhi n 0L;
          writeback m addr a
  | Insn.Fstr { src; addr } ->
      let bytes = Reg.Fp.bytes src in
      let n = src.Reg.Fp.n in
      fun m ->
        let a = addr_of m pci addr in
        (if bytes = 16 then begin
           bwrite m pci a 8 (Array.unsafe_get m.vlo n);
           bwrite m pci (Int64.add a 8L) 8 (Array.unsafe_get m.vhi n)
         end
         else
           bwrite m pci a bytes
             (if bytes = 4 then Int64.logand (Array.unsafe_get m.vlo n) mask32
              else Array.unsafe_get m.vlo n));
        writeback m addr a
  | Insn.Fldp { r1; r2; addr } ->
      let bytes = Reg.Fp.bytes r1 in
      let szL = Int64.of_int bytes in
      let n1 = r1.Reg.Fp.n and n2 = r2.Reg.Fp.n in
      fun m ->
        let a = addr_of m pci addr in
        let rd n a =
          if bytes = 16 then begin
            Array.unsafe_set m.vlo n (bread m pci a 8);
            Array.unsafe_set m.vhi n (bread m pci (Int64.add a 8L) 8)
          end
          else begin
            Array.unsafe_set m.vlo n (bread m pci a bytes);
            Array.unsafe_set m.vhi n 0L
          end
        in
        rd n1 a;
        rd n2 (Int64.add a szL);
        writeback m addr a
  | Insn.Fstp { r1; r2; addr } ->
      let bytes = Reg.Fp.bytes r1 in
      let szL = Int64.of_int bytes in
      let n1 = r1.Reg.Fp.n and n2 = r2.Reg.Fp.n in
      fun m ->
        let a = addr_of m pci addr in
        let wr n a =
          if bytes = 16 then begin
            bwrite m pci a 8 (Array.unsafe_get m.vlo n);
            bwrite m pci (Int64.add a 8L) 8 (Array.unsafe_get m.vhi n)
          end
          else
            bwrite m pci a bytes
              (if bytes = 4 then Int64.logand (Array.unsafe_get m.vlo n) mask32
               else Array.unsafe_get m.vlo n)
        in
        wr n1 a;
        wr n2 (Int64.add a szL);
        writeback m addr a
  | Insn.Ldxr { sz; dst; base } ->
      let bytes = Insn.mem_bytes sz in
      fun m ->
        let a = get m base in
        let v = bread m pci a bytes in
        m.exclusive <- Some a;
        set m dst v
  | Insn.Stxr { sz; status; src; base } ->
      let bytes = Insn.mem_bytes sz in
      fun m ->
        let a = get m base in
        (match m.exclusive with
        | Some e when Int64.equal e a ->
            bwrite m pci a bytes (get m src);
            set m status 0L
        | _ -> set m status 1L);
        m.exclusive <- None
  | Insn.Ldar { sz; dst; base } ->
      let bytes = Insn.mem_bytes sz in
      fun m -> set m dst (bread m pci (get m base) bytes)
  | Insn.Stlr { sz; src; base } ->
      let bytes = Insn.mem_bytes sz in
      fun m -> bwrite m pci (get m base) bytes (get m src)
  (* --- integer data-processing, shape-resolved --- *)
  | Insn.Shiftv { op; dst; src; amount } ->
      let w = Reg.width dst in
      let bmask =
        Int64.of_int ((match w with Reg.W64 -> 64 | Reg.W32 -> 32) - 1)
      in
      fun m ->
        let a = Int64.to_int (Int64.logand (get m amount) bmask) in
        set m dst (shift_value w op (get m src) a)
  | Insn.Bitfield { op; dst; src; immr; imms } ->
      lower_bitfield op dst src immr imms
  | Insn.Extr { dst; src1; src2; lsb } ->
      let w = Reg.width dst in
      let bits = match w with Reg.W64 -> 64 | Reg.W32 -> 32 in
      fun m ->
        let hi = mask_w w (get m src1) and lo = mask_w w (get m src2) in
        let r =
          if lsb = 0 then lo
          else
            Int64.logor
              (Int64.shift_right_logical lo lsb)
              (Int64.shift_left hi (bits - lsb))
        in
        set m dst (mask_w w r)
  | Insn.Madd { sub; dst; src1; src2; acc } ->
      let w = Reg.width dst in
      if sub then
        fun m ->
          let p = Int64.mul (get m src1) (get m src2) in
          set m dst (mask_w w (Int64.sub (get m acc) p))
      else
        fun m ->
          let p = Int64.mul (get m src1) (get m src2) in
          set m dst (mask_w w (Int64.add (get m acc) p))
  | Insn.Smulh { signed; dst; src1; src2 } ->
      fun m -> set m dst (mulh ~signed (get m src1) (get m src2))
  | Insn.Maddl { signed; sub; dst; src1; src2; acc } ->
      let widen v =
        if signed then sext32 (Int64.logand v mask32) else Int64.logand v mask32
      in
      fun m ->
        let p = Int64.mul (widen (get m src1)) (widen (get m src2)) in
        let r =
          if sub then Int64.sub (get m acc) p else Int64.add (get m acc) p
        in
        set m dst r
  | Insn.Ccmp { cmn; src; op2; nzcv; cond } ->
      let w = Reg.width src in
      fun m ->
        if cond_holds m cond then begin
          let b =
            match op2 with
            | Insn.CReg r -> get m r
            | Insn.CImm v -> Int64.of_int v
          in
          ignore (arith_flags m w ~sub:(not cmn) (get m src) b)
        end
        else
          set_nzcv m
            ~n:(nzcv land 8 <> 0)
            ~z:(nzcv land 4 <> 0)
            ~c:(nzcv land 2 <> 0)
            ~v:(nzcv land 1 <> 0)
  | Insn.Div { signed; dst; src1; src2 } ->
      let w = Reg.width dst in
      fun m ->
        let a = get m src1 and b = get m src2 in
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
          else Int64.unsigned_div a b
        in
        set m dst (mask_w w r)
  | Insn.Csel
      { op = Insn.CSINC; dst = Reg.R (_, d); src1 = Reg.ZR _;
        src2 = Reg.ZR _; cond } ->
      (* cset: materialize the (inverted) condition as 0/1 *)
      fun m ->
        Array.unsafe_set m.regs d (if cond_holds m cond then 0L else 1L)
  | Insn.Csel { op; dst; src1; src2; cond } ->
      let w = Reg.width dst in
      fun m ->
        let r =
          if cond_holds m cond then mask_w w (get m src1)
          else
            let b = mask_w w (get m src2) in
            match op with
            | Insn.CSEL -> b
            | Insn.CSINC -> mask_w w (Int64.add b 1L)
            | Insn.CSINV -> mask_w w (Int64.lognot b)
            | Insn.CSNEG -> mask_w w (Int64.neg b)
        in
        set m dst r
  | Insn.Cls { count_zero; dst; src } ->
      let w = Reg.width dst in
      fun m ->
        let v = mask_w w (get m src) in
        set m dst
          (Int64.of_int (if count_zero then clz_value w v else cls_value w v))
  | Insn.Rbit { dst; src } ->
      let w = Reg.width dst in
      fun m -> set m dst (rbit_value w (mask_w w (get m src)))
  | Insn.Rev { bytes; dst; src } ->
      let w = Reg.width dst in
      fun m -> set m dst (mask_w w (rev_value w bytes (mask_w w (get m src))))
  (* --- floating point, op resolved at lowering time --- *)
  | Insn.Fop2 { op; dst; src1; src2 } -> (
      match op with
      | Insn.FADD ->
          fun m ->
            set_float m dst
              (round_to_size dst (get_float m src1 +. get_float m src2))
      | Insn.FSUB ->
          fun m ->
            set_float m dst
              (round_to_size dst (get_float m src1 -. get_float m src2))
      | Insn.FMUL ->
          fun m ->
            set_float m dst
              (round_to_size dst (get_float m src1 *. get_float m src2))
      | Insn.FDIV ->
          fun m ->
            set_float m dst
              (round_to_size dst (get_float m src1 /. get_float m src2))
      | Insn.FMIN ->
          fun m ->
            set_float m dst
              (round_to_size dst
                 (Float.min (get_float m src1) (get_float m src2)))
      | Insn.FMAX ->
          fun m ->
            set_float m dst
              (round_to_size dst
                 (Float.max (get_float m src1) (get_float m src2))))
  | Insn.Fop1 { op; dst; src } -> (
      match op with
      | Insn.FNEG ->
          fun m -> set_float m dst (round_to_size dst (-.(get_float m src)))
      | Insn.FABS ->
          fun m -> set_float m dst (round_to_size dst (Float.abs (get_float m src)))
      | Insn.FSQRT ->
          fun m ->
            set_float m dst (round_to_size dst (Float.sqrt (get_float m src)))
      | Insn.FMOV -> fun m -> set_float m dst (round_to_size dst (get_float m src)))
  | Insn.Fmadd { sub; dst; src1; src2; acc } ->
      if sub then
        fun m ->
          let a = get_float m src1
          and b = get_float m src2
          and c = get_float m acc in
          set_float m dst (round_to_size dst (c -. (a *. b)))
      else
        fun m ->
          let a = get_float m src1
          and b = get_float m src2
          and c = get_float m acc in
          set_float m dst (round_to_size dst (c +. (a *. b)))
  | Insn.Fcmp { src1; src2 } ->
      fun m ->
        let a = get_float m src1 in
        let b = match src2 with Some r -> get_float m r | None -> 0.0 in
        if Float.is_nan a || Float.is_nan b then
          set_nzcv m ~n:false ~z:false ~c:true ~v:true
        else if a < b then set_nzcv m ~n:true ~z:false ~c:false ~v:false
        else if a = b then set_nzcv m ~n:false ~z:true ~c:true ~v:false
        else set_nzcv m ~n:false ~z:false ~c:true ~v:false
  | Insn.Fcvt { dst; src } ->
      fun m -> set_float m dst (round_to_size dst (get_float m src))
  | Insn.Scvtf { signed; dst; src } ->
      let sw = Reg.width src in
      fun m ->
        let v = get m src in
        let v =
          match sw with
          | Reg.W64 -> v
          | Reg.W32 -> if signed then sext32 v else Int64.logand v mask32
        in
        let f = if signed then Int64.to_float v else ucvtf_value v in
        set_float m dst (round_to_size dst f)
  | Insn.Fcvtzs { signed; dst; src } ->
      let w = Reg.width dst in
      fun m -> set m dst (fcvtzs_value ~signed w (get_float m src))
  | Insn.Fmov_to_fp { dst; src } -> (
      let n = dst.Reg.Fp.n in
      match dst.Reg.Fp.size with
      | Reg.Fp.D | Reg.Fp.Q -> fun m -> Array.unsafe_set m.vlo n (get m src)
      | Reg.Fp.S ->
          fun m -> Array.unsafe_set m.vlo n (Int64.logand (get m src) mask32))
  | Insn.Fmov_from_fp { dst; src } -> (
      let n = src.Reg.Fp.n in
      match src.Reg.Fp.size with
      | Reg.Fp.D | Reg.Fp.Q -> fun m -> set m dst (Array.unsafe_get m.vlo n)
      | Reg.Fp.S ->
          fun m -> set m dst (Int64.logand (Array.unsafe_get m.vlo n) mask32))
  (* --- system --- *)
  | Insn.Nop | Insn.Dmb | Insn.Msr _ -> ignore_op
  | Insn.Mrs { dst; _ } -> fun m -> set m dst 0L
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
    closure with the pre-boxed fall-through pc. *)
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
    raise it at the unmodified address, before any decode-cache or
    block-table lookup. *)
let fetch_fault (pc : int64) =
  raise
    (Memory.Fault
       { Memory.addr = pc; access = Memory.Fetch;
         reason =
           (if Int64.logand pc 3L <> 0L then "misaligned pc" else "unmapped")
       })

(* A taken branch from [ti]: log it into the escape oracle and the
   flight recorder (one [None] test each when they are off), then
   return its target as the next pc, or store it in [m.pc] and return
   -1 when it lies outside [0, 2^62).  A direct target is an untagged
   int, negative when the branch leaves the address space below 0. *)
let[@inline] direct (m : Machine.t) (kind : int) (ti : int) (target : int) :
    int =
  (match m.escape_oracle with
  | None -> ()
  | Some o -> oracle_branch o ti (Int64.of_int target));
  (match m.flight with
  | None -> ()
  | Some f -> Lfi_telemetry.Flight.record f kind ti target);
  if target >= 0 then target
  else begin
    m.pc <- Int64.of_int target;
    -1
  end

(* The same for an indirect branch to the full 64-bit [t]. *)
let[@inline] indirect (m : Machine.t) (kind : int) (ti : int) (t : int64) : int
    =
  (match m.escape_oracle with None -> () | Some o -> oracle_branch o ti t);
  (match m.flight with
  | None -> ()
  | Some f -> Lfi_telemetry.Flight.record f kind ti (Int64.to_int t));
  if pc_fits t then Int64.to_int t
  else begin
    m.pc <- t;
    -1
  end

(** Execute a terminator: write the link register, log the branch, and
    return the next pc as an untagged int in [0, 2^62).  When there is
    no such pc — a trap ([svc]/[udf]) or a branch target outside
    [0, 2^62) — store the next pc in [m.pc] and return -1; the caller
    tells the two apart by the terminator.  Never faults. *)
let exec_term (m : Machine.t) (t : bterm) : int =
  match t with
  | Tb { target; ti } -> direct m Lfi_telemetry.Flight.k_branch ti target
  | Tbl { target; ti; link } ->
      Array.unsafe_set m.regs 30 link;
      direct m Lfi_telemetry.Flight.k_call ti target
  | Tbcond { cond; target; ti; next } ->
      if cond_holds m cond then direct m Lfi_telemetry.Flight.k_branch ti target
      else next
  | Tcbz { nz; reg; target; ti; next } ->
      let zero = Int64.equal (get m reg) 0L in
      if zero <> nz then direct m Lfi_telemetry.Flight.k_branch ti target
      else next
  | Ttbz { nz; reg; bit; target; ti; next } ->
      let one =
        Int64.logand (Int64.shift_right_logical (get m reg) bit) 1L = 1L
      in
      if one = nz then direct m Lfi_telemetry.Flight.k_branch ti target
      else next
  | Tbr { reg; ti } -> indirect m Lfi_telemetry.Flight.k_branch ti (get m reg)
  | Tblr { reg; ti; link } ->
      let t = get m reg in
      Array.unsafe_set m.regs 30 link;
      indirect m Lfi_telemetry.Flight.k_call ti t
  | Tret { reg; ti } -> indirect m Lfi_telemetry.Flight.k_ret ti (get m reg)
  | Tsvc { next; _ } ->
      m.pc <- next;
      -1
  | Tudf { pc } ->
      m.pc <- pc;
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
