(** Symbolic transfer function: one accepted instruction against the
    sandbox invariant (DESIGN.md §5i).

    [step] mutates a {!Sym.state} in place and returns the *failed*
    obligations: memory accesses whose effective address is not
    provably inside base ± guard, and branch targets not provably in
    sandbox ∪ runtime-table.  Soundness direction: every evaluation
    that loses precision degrades toward {!Sym.Top}, so a [step] that
    returns [[]] is a proof, and a non-empty result is at worst a
    false alarm (which the enumeration reports as a hole — the prover
    must then be made more precise, never the verifier trusted less).

    Two environmental facts from the fuzzing sandbox (the oracle that
    grounds these proofs) are baked in:
    - mapped sandbox memory lives entirely in [base, base+4GiB), so a
      *non-trapping* access proves its address was in-sandbox — this
      is what re-anchors sp after a drift;
    - if an access traps, execution stops, so refinements derived from
      "the access completed" are only used by later instructions. *)

open Lfi_arm64
module V = Sym

type fail = { clause : Invariant.clause; detail : string }

(** The bare sp drift [add/sub sp, sp, #imm] — the one sp write that
    leaves sp un-anchored until the next sp access. *)
let is_sp_drift = function
  | Insn.Alu
      { op = Insn.ADD | Insn.SUB; flags = false; dst = Reg.SP Reg.W64;
        src = Reg.SP Reg.W64; op2 = Insn.Imm _ } ->
      true
  | _ -> false

(* ---- evaluation ---- *)

let eval_gp (st : V.state) (r : Reg.t) : V.value =
  match r with
  | Reg.ZR _ -> V.Abs (0, 0)
  | Reg.SP _ -> st.V.sp
  | Reg.R (Reg.W64, n) -> st.V.regs.(n)
  | Reg.R (Reg.W32, n) -> (
      (* the 32-bit view of any value is in [0, 2^32) *)
      match st.V.regs.(n) with
      | V.Abs (a, b) when a >= 0 && b <= 0xFFFF_FFFF -> V.Abs (a, b)
      | _ -> V.u32)

(** Absolute interval contributed by an extended register operand,
    [None] when unbounded.  Non-identity extends are value-independent
    (that is the whole point of the uxtw guard); identity extends need
    a known absolute source. *)
let ext_interval (st : V.state) (r : Reg.t) (e : Insn.extend)
    (amount : int) : (int * int) option =
  match eval_gp st r with
  | V.Abs (0, 0) -> Some (0, 0)  (* any extend of zero is zero *)
  | rv -> (
      match Insn.extend_bounds e ~amount with
      | Some b -> Some b
      | None -> (
          match rv with
          | V.Abs (a, b) when a >= 0 && b <= 1 lsl 40 && amount <= 4 ->
              Some (a lsl amount, b lsl amount)
          | _ -> None))

let op2_interval (st : V.state) (op2 : Insn.operand2) : (int * int) option =
  match op2 with
  | Insn.Imm (v, sh) -> Some (v lsl sh, v lsl sh)
  | Insn.Ext (r, e, a) -> ext_interval st r e a
  | Insn.Sh (r, Insn.Lsl, a) -> (
      match eval_gp st r with
      | V.Abs (x, y) when x >= 0 && y <= 1 lsl 40 && a <= 20 ->
          Some (x lsl a, y lsl a)
      | _ -> None)
  | Insn.Sh _ -> None

(** Clamp a 32-bit destination: writing a w register zeroes the top
    bits, so the result is in [0, 2^32) whatever the inputs were. *)
let clamp32 = function
  | V.Abs (a, b) when a >= 0 && b <= 0xFFFF_FFFF -> V.Abs (a, b)
  | _ -> V.u32

let alu_value (st : V.state) ~(op : Insn.alu_op) ~(dst : Reg.t)
    ~(src : Reg.t) ~(op2 : Insn.operand2) : V.value =
  let value =
    match op with
    | Insn.ADD | Insn.SUB -> (
        match op2_interval st op2 with
        | Some (lo, hi) ->
            let iv = if op = Insn.ADD then (lo, hi) else (-hi, -lo) in
            V.add_interval (eval_gp st src) iv
        | None -> V.Top)
    | _ -> V.Top
  in
  if Reg.width dst = Reg.W32 then clamp32 value else value

let addr_value (st : V.state) (addr : Insn.addr) : V.value =
  match addr with
  | Insn.Imm_off (b, i) | Insn.Pre (b, i) ->
      V.add_interval (eval_gp st b) (i, i)
  | Insn.Post (b, _) -> eval_gp st b
  | Insn.Reg_off (b, m, e, a) -> (
      match ext_interval st m e a with
      | Some iv -> V.add_interval (eval_gp st b) iv
      | None -> V.Top)

let mem_ok (v : V.value) (bytes : int) : bool =
  match v with
  | V.Rel (lo, hi) ->
      lo >= -Invariant.guard
      && hi + bytes <= Invariant.four_g + Invariant.guard
  | _ -> false

(* ---- one instruction ---- *)

type wkey = KR of int | KSp

let key_of_reg = function
  | Reg.SP _ -> Some KSp
  | Reg.R (_, n) -> Some (KR n)
  | Reg.ZR _ -> None

let step (st : V.state) ~(pc_off : int) (i : Insn.t) : fail list =
  let fails = ref [] in
  let fail clause detail = fails := { clause; detail } :: !fails in
  (* values for registers this instruction writes; anything not listed
     here is blanketed by width below *)
  let specials : (wkey * V.value) list ref = ref [] in
  let special r v =
    match key_of_reg r with
    | Some k -> specials := (k, v) :: !specials
    | None -> ()
  in
  (* memory: window obligation, then non-trapping refinements and
     writeback values (visible only to later instructions / the final
     invariant check) *)
  (match Insn.addr_of i with
   | Some addr when Insn.is_memory i ->
       let bytes = Insn.access_bytes i in
       let av = addr_value st addr in
       if not (mem_ok av bytes) then
         fail Invariant.Mem_window
           (Printf.sprintf "address %s, %d-byte access" (V.to_string av)
              bytes);
       let refine b win =
         match b with
         | Reg.SP _ -> st.V.sp <- V.meet_rel st.V.sp win
         | Reg.R (Reg.W64, n) ->
             st.V.regs.(n) <- V.meet_rel st.V.regs.(n) win
         | _ -> ()
       in
       (match addr with
        | Insn.Imm_off (b, off) ->
            refine b (-off, Invariant.four_g - bytes - off)
        | Insn.Pre (b, off) ->
            special b
              (V.meet_rel
                 (V.add_interval (eval_gp st b) (off, off))
                 (0, Invariant.four_g - bytes))
        | Insn.Post (b, off) ->
            special b
              (V.add_interval
                 (V.meet_rel (eval_gp st b) (0, Invariant.four_g - bytes))
                 (off, off))
        | Insn.Reg_off _ -> ())
   | _ -> ());
  (* branches *)
  let direct t =
    match t with
    | Insn.Off d ->
        let tgt = pc_off + d in
        if tgt < 0 || tgt >= Invariant.four_g then
          fail Invariant.Branch_window (Printf.sprintf "target base+%d" tgt)
    | Insn.Sym s ->
        fail Invariant.Branch_window ("unresolved symbol " ^ s)
  in
  let indirect r =
    let v = eval_gp st r in
    if not (V.leq v V.Branchable) then
      fail Invariant.Branch_window
        (Printf.sprintf "target of %s = %s" (Reg.to_string r)
           (V.to_string v))
  in
  let link () = V.Rel (pc_off + 4, pc_off + 4) in
  (match i with
   | Insn.B t | Insn.Bcond (_, t) | Insn.Cbz { target = t; _ }
   | Insn.Tbz { target = t; _ } ->
       direct t
   | Insn.Bl t ->
       direct t;
       special (Reg.x 30) (link ())
   | Insn.Br r | Insn.Ret r -> indirect r
   | Insn.Blr r ->
       indirect r;
       special (Reg.x 30) (link ())
   | _ -> ());
  (* value-producing instructions *)
  if Lfi_verifier.Verifier.is_table_load i then special (Reg.x 30) V.Table;
  (match i with
   | Insn.Alu { op; flags = _; dst; src; op2 } ->
       special dst (alu_value st ~op ~dst ~src ~op2)
   | Insn.Mov { op = Insn.MOVZ; dst; imm; hw } ->
       let sh = 16 * hw in
       if sh + 16 <= 62 then
         special dst (V.Abs (imm lsl sh, imm lsl sh))
   | _ -> ());
  (* apply the write set: special value if computed, else blanket by
     width.  A register written twice in one instruction keeps only
     what both writes share: [u32] if both are w writes (ldp w22, w22),
     else Top (a load whose destination is its own writeback base). *)
  let written = Hashtbl.create 4 in
  List.iter
    (fun w ->
      let key, w32 =
        match w with
        | `R (wd, n) -> (KR n, wd = Reg.W32)
        | `Sp -> (KSp, false)
      in
      let v, all_w32 =
        match Hashtbl.find_opt written key with
        | Some prev -> if prev && w32 then (V.u32, true) else (V.Top, false)
        | None ->
            let blanket = if w32 then V.u32 else V.Top in
            (Option.value (List.assoc_opt key !specials) ~default:blanket, w32)
      in
      Hashtbl.replace written key all_w32;
      match key with
      | KR n -> st.V.regs.(n) <- v
      | KSp -> st.V.sp <- v)
    (Insn.writes i);
  List.rev !fails
