(** The LFI assembly rewriter (Sections 3-5.1 of the paper).

    Consumes parsed GNU assembly (as produced by any compiler invoked
    with [-ffixed-x18 -ffixed-x21 ... ] so that the reserved registers
    are free) and inserts SFI guards so that the output passes the
    static verifier:

    - loads/stores through arbitrary registers are rewritten to the
      guarded forms of Table 3 (O1+) or the basic [add x18, x21, wN,
      uxtw] guard (O0 and instructions without register-offset forms);
    - stack-pointer writes are guarded with the two-instruction
      [mov w22, wsp; add sp, x21, x22] sequence, except where the
      pre/post-index and same-basic-block optimizations of §4.2 apply;
    - loads that write x30 are followed by an x30 guard; indirect
      branches go through a guarded x18;
    - [svc #n] system calls are lowered to the trampoline-free
      runtime-call sequence [ldr x30, \[x21, #8n\]; blr x30] (§4.4);
    - at O2, redundant guards are eliminated by hoisting a guarded base
      into x23/x24 (§4.3);
    - [tbz]/[tbnz] (±32KiB reach) and conditional branches that the
      inserted guards push out of range are relaxed to a two-instruction
      sequence (§5.1 "Difficulties"). *)

open Lfi_arm64
module Overhead = Lfi_telemetry.Overhead

exception Error of string

let errorf fmt = Printf.ksprintf (fun m -> raise (Error m)) fmt

(** One entry of the overhead-attribution site table: an instruction
    the rewriter inserted or modified, by position.  Indices are
    resolved to addresses by {!resolve_sites} once the final layout is
    known. *)
type site = {
  s_out : int;  (** instruction index in the rewritten source *)
  s_cat : Overhead.category;
  s_inserted : bool;  (** inserted (pure tax) vs modified in place *)
  s_orig : int;  (** instruction index in the pre-rewrite source *)
}

type stats = {
  mutable input_insns : int;
  mutable output_insns : int;
  mutable guards : int;  (** guard instructions inserted *)
  mutable hoists : int;  (** hoisting groups created *)
  mutable sp_guards_elided : int;
  mutable branches_relaxed : int;
  mutable sites : site list;
      (** overhead site table, in output order (see {!site}) *)
}

let empty_stats () =
  { input_insns = 0; output_insns = 0; guards = 0; hoists = 0;
    sp_guards_elided = 0; branches_relaxed = 0; sites = [] }

(* Registers of the scheme. *)
let x21 = Reg.x 21
let x18 = Reg.x 18
let w22 = Reg.w 22
let wsp = Reg.wsp
let sp = Reg.sp
let x30 = Reg.x 30
let hoist_regs = [| Reg.x 23; Reg.x 24 |]

let w_of r =
  match r with
  | Reg.R (_, n) -> Reg.R (Reg.W32, n)
  | Reg.SP _ -> Reg.SP Reg.W32
  | Reg.ZR _ -> Reg.ZR Reg.W32

(** [add xD, x21, wN, uxtw] — the fundamental guard: forces the top 32
    bits of a pointer to equal the sandbox base. *)
let addr_guard dst src_base =
  Insn.Alu
    { op = Insn.ADD; flags = false; dst; src = x21;
      op2 = Insn.Ext (w_of src_base, Insn.Uxtw, 0) }

(** The x30 guard inserted after instructions that load the link
    register from memory. *)
let lr_guard = Source.Insn (addr_guard x30 x30)

(** The two-instruction stack-pointer guard of §4.2:
    [mov w22, wsp; add sp, x21, x22]. *)
let sp_guard_mov =
  Insn.Alu { op = Insn.ADD; flags = false; dst = w22; src = wsp;
             op2 = Insn.Imm (0, 0) }

let sp_guard_add =
  Insn.Alu { op = Insn.ADD; flags = false; dst = sp; src = x21;
             op2 = Insn.Ext (Reg.x 22, Insn.Uxtx, 0) }

(* ------------------------------------------------------------------ *)
(* Input validation                                                    *)
(* ------------------------------------------------------------------ *)

let check_input (items : Source.item array) =
  Array.iter
    (function
      | Source.Insn i -> (
          match List.find_opt Reg.is_reserved (Insn.regs_mentioned i) with
          | Some r ->
              errorf
                "input uses reserved register %s in %S (compile with \
                 -ffixed-x18 -ffixed-x21 -ffixed-x22 -ffixed-x23 \
                 -ffixed-x24)"
                (Reg.to_string r) (Printer.to_string i)
          | None -> ())
      | _ -> ())
    items

(* ------------------------------------------------------------------ *)
(* Output buffer                                                       *)
(* ------------------------------------------------------------------ *)

(** Tag attached to every emitted instruction: [None] for instructions
    passed through untouched, [Some (category, inserted)] for
    rewriter-created or rewriter-modified ones.  Tags become the site
    table. *)
type tag = (Overhead.category * bool) option

(* Tag shorthands: a guard instruction the rewriter added, an original
   instruction rewritten in place to a guarded form, an inserted w22
   address computation, and so on for the other categories. *)
let tg_guard : tag = Some (Overhead.Guard, true)
let tg_guarded : tag = Some (Overhead.Guard, false)
let tg_clamp : tag = Some (Overhead.Clamp, true)
let tg_sp : tag = Some (Overhead.Sp_anchor, true)
let tg_sp_mod : tag = Some (Overhead.Sp_anchor, false)
let tg_retag : tag = Some (Overhead.Retag, true)

(** The rewritten program as it grows: every output item with the input
    instruction it descends from (its ordinal among the input's
    instructions; -1 for labels and directives) and its tag. *)
type buf = {
  mutable items : Source.item array;
  mutable origs : int array;
  mutable tags : tag array;
  mutable len : int;
  mutable insns : int;  (** instructions among the items *)
}

let create_buf cap =
  { items = Array.make cap (Source.Label ""); origs = Array.make cap 0;
    tags = Array.make cap None; len = 0; insns = 0 }

let push b it ord tag =
  if b.len = Array.length b.items then begin
    let grow a fill =
      let a' = Array.make ((2 * b.len) + 16) fill in
      Array.blit a 0 a' 0 b.len;
      a'
    in
    b.items <- grow b.items (Source.Label "");
    b.origs <- grow b.origs 0;
    b.tags <- grow b.tags None
  end;
  b.items.(b.len) <- it;
  b.origs.(b.len) <- ord;
  b.tags.(b.len) <- tag;
  b.len <- b.len + 1;
  match it with Source.Insn _ -> b.insns <- b.insns + 1 | _ -> ()

(** Emit instruction [i] (whose item is [it]).  Loads that write the
    link register are followed by the x30 guard (§4.2), except the
    runtime-call table load, which [blr x30] follows. *)
let emit_item b ord it (i : Insn.t) tag =
  push b it ord tag;
  if Insn.is_memory i && Insn.writes_reg_number i 30 then
    match i with
    | Insn.Ldr { dst = Reg.R (Reg.W64, 30);
                 addr = Insn.Imm_off (Reg.R (Reg.W64, 21), _); _ } -> ()
    | _ -> push b lr_guard ord tg_retag

let emit b ord i tag = emit_item b ord (Source.Insn i) i tag

(* ------------------------------------------------------------------ *)
(* Small helpers                                                       *)
(* ------------------------------------------------------------------ *)

(** Emit [w22 := wBase + i] using one or two 32-bit add/sub immediates
    (Table 3 uses a single add; larger offsets take two). *)
let materialize_offset32 b ord (base : Reg.t) (i : int) =
  let mk sh v src =
    let op = if i >= 0 then Insn.ADD else Insn.SUB in
    emit b ord
      (Insn.Alu { op; flags = false; dst = w22; src; op2 = Insn.Imm (v, sh) })
      tg_clamp
  in
  let v = abs i in
  if v < 4096 then mk 0 v (w_of base)
  else if v land 0xfff = 0 && v lsr 12 < 4096 then mk 12 (v lsr 12) (w_of base)
  else if v lsr 12 < 4096 then begin
    mk 12 (v lsr 12) (w_of base);
    mk 0 (v land 0xfff) w22
  end
  else errorf "memory offset %d out of range" i

(** The guarded addressing mode [\[x21, w22, uxtw\]]. *)
let guarded_w22 = Insn.Reg_off (x21, w22, Insn.Uxtw, 0)

let guarded_reg r = Insn.Reg_off (x21, w_of r, Insn.Uxtw, 0)

let add_imm_to (dst : Reg.t) (i : int) : Insn.t =
  let op, v = if i >= 0 then (Insn.ADD, i) else (Insn.SUB, -i) in
  if v >= 4096 then errorf "index offset %d out of range" i;
  Insn.Alu { op; flags = false; dst; src = dst; op2 = Insn.Imm (v, 0) }

(** [w22 := wBase + (offset register m, extended)] for a register-offset
    access. *)
let combine_w22 (base : Reg.t) m (e : Insn.extend) a =
  let op2 =
    match e with
    | Insn.Uxtx | Insn.Sxtx -> Insn.Sh (w_of m, Insn.Lsl, a)
    | e -> Insn.Ext (w_of m, e, a)
  in
  Insn.Alu { op = Insn.ADD; flags = false; dst = w22; src = w_of base; op2 }

(** True when the addressing mode supports the register-offset guard
    form directly (only basic single-register loads/stores do). *)
let has_reg_offset_form = function
  | Insn.Ldr _ | Insn.Str _ | Insn.Fldr _ | Insn.Fstr _ -> true
  | _ -> false

let base_is_reserved_addr b =
  match Reg.number_of b with Some (18 | 23 | 24) -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* Memory access transformation                                        *)
(* ------------------------------------------------------------------ *)

(** Rewrite one guarded memory access with general base [base].  [o1]
    selects the Table 3 zero/one-instruction guards; otherwise the O0
    basic guard through x18 is used. *)
let transform_general_mem ~o1 b ord (insn : Insn.t) (addr : Insn.addr)
    (base : Reg.t) =
  let access a tag = emit b ord (Insn.with_addr insn a) tag in
  if o1 && has_reg_offset_form insn then
    match addr with
    | Insn.Imm_off (_, 0) -> access (guarded_reg base) tg_guarded
    | Insn.Imm_off (_, i) ->
        materialize_offset32 b ord base i;
        access guarded_w22 tg_guarded
    | Insn.Pre (_, i) ->
        emit b ord (add_imm_to base i) tg_clamp;
        access (guarded_reg base) tg_guarded
    | Insn.Post (_, i) ->
        access (guarded_reg base) tg_guarded;
        emit b ord (add_imm_to base i) tg_clamp
    | Insn.Reg_off (_, m, e, a) ->
        emit b ord (combine_w22 base m e a) tg_clamp;
        access guarded_w22 tg_guarded
  else begin
    (* Basic scheme: the two-cycle guard into x18, accessed through.
       Immediates up to the 32KiB encoding limit stay within the 48KiB
       guard region, so they may remain as offsets from the guarded
       base. *)
    let via_x18 guarded off =
      emit b ord (addr_guard x18 guarded) tg_guard;
      access (Insn.Imm_off (x18, off)) tg_guarded
    in
    match addr with
    | Insn.Imm_off (_, i)
      when i >= 0 && i + Insn.access_bytes insn <= Layout.max_mem_immediate
           || i < 0 ->
        via_x18 base i
    | Insn.Imm_off (_, i) ->
        (* scaled q-register offsets can reach 65520 bytes, past the
           guard margin the verifier accepts: fold the offset into w22
           and guard the combined address instead *)
        materialize_offset32 b ord base i;
        via_x18 (Reg.x 22) 0
    | Insn.Pre (_, i) ->
        emit b ord (add_imm_to base i) tg_clamp;
        via_x18 base 0
    | Insn.Post (_, i) ->
        via_x18 base 0;
        emit b ord (add_imm_to base i) tg_clamp
    | Insn.Reg_off (_, m, e, a) ->
        (* combine base and offset in 32 bits, then guard the result *)
        emit b ord (combine_w22 base m e a) tg_clamp;
        via_x18 (Reg.x 22) 0
  end

(* ------------------------------------------------------------------ *)
(* Redundant guard elimination (§4.3)                                  *)
(* ------------------------------------------------------------------ *)

(** An access is hoistable when it is an immediate-offset access through
    a plain base register whose offset stays inside the guard region.
    Returns [(base, offset)]. *)
let hoistable_base ~sandbox_loads (i : Insn.t) : (int * int) option =
  let eligible = Insn.is_store i || (Insn.is_load i && sandbox_loads) in
  if not eligible then None
  else
    match Insn.addr_of i with
    | Some (Insn.Imm_off (Reg.R (Reg.W64, n), off))
      when (not (Reg.is_reserved_number n))
           && n <> 30
           && abs off < Layout.max_mem_immediate ->
        Some (n, off)
    | _ -> None

(** Hoistable uses of base [base] with a nonzero offset from item [i]
    to the end of its basic block (labels and directives start blocks,
    branches end them), before [base] is redefined.  Zero-offset
    accesses are free at O1 (the guarded addressing mode), so only
    nonzero offsets pay for the hoisting guard. *)
let future_paying_uses ~sandbox_loads (items : Source.item array) base i =
  let rec go j acc =
    if j >= Array.length items then acc
    else
      match items.(j) with
      | Source.Insn insn ->
          let acc =
            match hoistable_base ~sandbox_loads insn with
            | Some (bb, off) when bb = base && off <> 0 -> acc + 1
            | _ -> acc
          in
          if Insn.writes_reg_number insn base || Insn.is_branch insn then acc
          else go (j + 1) acc
      | _ -> acc
  in
  go i 0

(** Redundant guard elimination for instruction [insn] at item [i]:
    [hoisted.(k)] is the base register number that [hoist_regs.(k)]
    holds a guarded copy of within the current basic block, or -1.  An
    access through a hoisted base is redirected at its hoisting
    register; a base without one gets a free register and its hoisting
    guard when at least two accesses would save their add.  Returns
    [insn] redirected at its hoisting register, if it has one. *)
let hoist ~sandbox_loads b ord items (hoisted : int array) stats i insn =
  let sub =
    match hoistable_base ~sandbox_loads insn with
    | None -> None
    | Some (base, off) ->
        let redirect k =
          Some (Insn.with_addr insn (Insn.Imm_off (hoist_regs.(k), off)))
        in
        if hoisted.(0) = base then redirect 0
        else if hoisted.(1) = base then redirect 1
        else
          let k = if hoisted.(0) < 0 then 0 else if hoisted.(1) < 0 then 1 else -1 in
          if k >= 0 && future_paying_uses ~sandbox_loads items base i >= 2
          then begin
            hoisted.(k) <- base;
            emit b ord (addr_guard hoist_regs.(k) (Reg.x base)) tg_guard;
            stats.hoists <- stats.hoists + 1;
            redirect k
          end
          else None
  in
  (* a write to the base register invalidates the hoisted copy *)
  for k = 0 to 1 do
    if hoisted.(k) >= 0 && Insn.writes_reg_number insn hoisted.(k) then
      hoisted.(k) <- -1
  done;
  sub

(* ------------------------------------------------------------------ *)
(* Stack pointer handling (§4.2)                                       *)
(* ------------------------------------------------------------------ *)

let is_sp_based_access (i : Insn.t) =
  match Insn.addr_of i with
  | Some (Insn.Imm_off (b, _) | Insn.Pre (b, _) | Insn.Post (b, _)) ->
      Reg.is_sp b
  | _ -> false

(** After a small-immediate sp adjustment at [i], is the guard
    unnecessary?  Yes iff the next sp-touching instruction in the same
    basic block is an sp-based memory access (which traps in a guard
    page) — a second unguarded adjustment would let sp drift. *)
let sp_guard_elidable (items : Source.item array) (i : int) : bool =
  let rec go j =
    if j >= Array.length items then false
    else
      match items.(j) with
      | Source.Label _ | Source.Directive _ -> false
      | Source.Insn insn ->
          if is_sp_based_access insn then true
          else if Insn.writes_sp insn then false
          else if Insn.is_branch insn then false
          else go (j + 1)
  in
  go (i + 1)

(* ------------------------------------------------------------------ *)
(* Main pass                                                           *)
(* ------------------------------------------------------------------ *)

(** Emit the rewrite of [insn], item [idx] of the input and its
    instruction number [ord].  When the instruction itself goes out, it
    goes out as [it] with tag [keep_tag]. *)
let transform_insn (cfg : Config.t) stats b (items : Source.item array) idx
    ord (insn : Insn.t) ~it ~keep_tag =
  let keep () = emit_item b ord it insn keep_tag in
  match insn with
  (* ---- system calls -> runtime calls (§4.4) ---- *)
  | Insn.Svc n ->
      if n < 0 || n >= Layout.rtcall_entry_count then
        errorf "runtime call number %d out of range" n;
      emit b ord
        (Insn.Ldr
           { sz = Insn.X; signed = false; dst = x30;
             addr = Insn.Imm_off (x21, Layout.rtcall_entry_offset n) })
        (Some (Overhead.Rtcall_gate, true));
      emit b ord (Insn.Blr x30) (Some (Overhead.Rtcall_gate, false))
  (* ---- indirect branches ---- *)
  | Insn.Br r ->
      emit b ord (addr_guard x18 r) tg_guard;
      emit b ord (Insn.Br x18) tg_guarded
  | Insn.Blr r ->
      emit b ord (addr_guard x18 r) tg_guard;
      emit b ord (Insn.Blr x18) tg_guarded
  | Insn.Ret (Reg.R (Reg.W64, 30)) -> keep ()
  | Insn.Ret r ->
      emit b ord (addr_guard x18 r) tg_guard;
      emit b ord (Insn.Ret x18) tg_guarded
  (* ---- stack pointer writes ---- *)
  | Insn.Alu { dst = Reg.SP Reg.W64; op; flags = false; src; op2 } -> (
      match (op, src, op2) with
      | (Insn.ADD | Insn.SUB), Reg.SP Reg.W64, Insn.Imm (v, 0)
        when cfg.sp_block_optimization
             && v < Layout.max_sp_drift
             && sp_guard_elidable items idx ->
          stats.sp_guards_elided <- stats.sp_guards_elided + 1;
          keep ()
      | (Insn.ADD | Insn.SUB), Reg.SP Reg.W64, Insn.Imm _ ->
          keep ();
          emit b ord sp_guard_mov tg_sp;
          emit b ord sp_guard_add tg_sp
      | Insn.ADD, _, Insn.Imm (0, 0) ->
          (* mov sp, xN *)
          emit b ord
            (Insn.Alu
               { op = Insn.ORR; flags = false; dst = w22;
                 src = Reg.ZR Reg.W32;
                 op2 = Insn.Sh (w_of src, Insn.Lsl, 0) })
            tg_sp_mod;
          emit b ord sp_guard_add tg_sp
      | (Insn.ADD | Insn.SUB), _, Insn.Ext (m, _, a) ->
          (* variable adjustment (e.g. alloca): compute in 32 bits,
             then guard *)
          emit b ord
            (Insn.Alu
               { op; flags = false; dst = w22; src = w_of src;
                 op2 = Insn.Ext (w_of m, Insn.Uxtw, a) })
            tg_sp_mod;
          emit b ord sp_guard_add tg_sp
      | _ -> errorf "unsupported sp write %S" (Printer.to_string insn))
  | _ when Insn.writes_sp insn && not (Insn.is_memory insn) ->
      errorf "unsupported sp write %S" (Printer.to_string insn)
  (* ---- exclusives ---- *)
  | (Insn.Ldxr _ | Insn.Stxr _ | Insn.Ldar _ | Insn.Stlr _)
    when not cfg.allow_exclusives ->
      errorf "LL/SC and acquire/release disabled by configuration (§7.1)"
  (* ---- memory accesses ---- *)
  | _ when Insn.is_memory insn -> (
      let addr = Option.get (Insn.addr_of insn) in
      let base = Insn.addr_base addr in
      let needs_guard =
        Insn.is_store insn || (Insn.is_load insn && cfg.sandbox_loads)
      in
      if Reg.is_sp base then
        (* sp-based: immediate and pre/post modes are safe as-is;
           register offsets are rare and rewritten through w22 *)
        match addr with
        | Insn.Reg_off (_, m, e, a) when needs_guard ->
            let ext =
              match e with
              | Insn.Uxtx | Insn.Sxtx -> Insn.Uxtw
              | e -> e
            in
            emit b ord
              (Insn.Alu
                 { op = Insn.ADD; flags = false; dst = w22; src = wsp;
                   op2 = Insn.Ext (w_of m, ext, a) })
              tg_clamp;
            emit b ord (Insn.with_addr insn guarded_w22) tg_guarded
        | _ -> keep ()
      else if base_is_reserved_addr base || Reg.equal base x21
              || not needs_guard
      then keep ()
      else
        let o1 = match cfg.opt with Config.O0 -> false | _ -> true in
        transform_general_mem ~o1 b ord insn addr base)
  | _ -> keep ()

(* ------------------------------------------------------------------ *)
(* Branch range relaxation                                             *)
(* ------------------------------------------------------------------ *)

let tbz_range = 8192 - 64 (* imm14: ±32KiB = ±8192 instructions, with margin *)
let cond_range = (1 lsl 18) - 64

let beyond offsets here range l =
  match Hashtbl.find_opt offsets l with
  | Some target -> abs (target - here) > range
  | None -> false

(** The inverted short branch and the label of a tbz/cbz/b.cond at
    instruction offset [here] whose target is out of its reach. *)
let far_branch offsets here = function
  | Insn.Tbz ({ target = Insn.Sym l; _ } as r)
    when beyond offsets here tbz_range l ->
      Some (Insn.Tbz { r with nz = not r.nz; target = Insn.Off 8 }, l)
  | Insn.Cbz ({ target = Insn.Sym l; _ } as r)
    when beyond offsets here cond_range l ->
      Some (Insn.Cbz { r with nz = not r.nz; target = Insn.Off 8 }, l)
  | Insn.Bcond (c, Insn.Sym l) when beyond offsets here cond_range l ->
      Some (Insn.Bcond (Insn.invert_cond c, Insn.Off 8), l)
  | _ -> None

(** Replace out-of-range tbz/cbz/b.cond with an inverted short branch
    over an unconditional one.  Each pass measures the targets from one
    scan of the label offsets and rebuilds the buffer from its first
    out-of-range branch on, if it has one; it iterates to a fixpoint
    because each relaxation adds an instruction.  Text no longer than
    tbz's reach has nothing to relax.  Both halves of a relaxation are
    [Trampoline] sites: the inverted branch is the original one
    modified, the unconditional [b] is inserted. *)
let rec relax_branches stats (b : buf) : buf =
  if b.insns <= tbz_range then b
  else begin
    let offsets = Hashtbl.create 64 and off = ref 0 in
    for k = 0 to b.len - 1 do
      match b.items.(k) with
      | Source.Label l -> Hashtbl.replace offsets l !off
      | Source.Insn _ -> incr off
      | Source.Directive _ -> ()
    done;
    (* [here] counts the instructions before item [k] in the output *)
    let out = ref None and here = ref 0 in
    for k = 0 to b.len - 1 do
      let far =
        match b.items.(k) with
        | Source.Insn i -> far_branch offsets !here i
        | _ -> None
      in
      (match (far, !out) with
      | None, None -> ()
      | None, Some o -> push o b.items.(k) b.origs.(k) b.tags.(k)
      | Some (short, l), _ ->
          let o =
            match !out with
            | Some o -> o
            | None ->
                let o = create_buf (b.len + 16) in
                for j = 0 to k - 1 do
                  push o b.items.(j) b.origs.(j) b.tags.(j)
                done;
                out := Some o;
                o
          in
          stats.branches_relaxed <- stats.branches_relaxed + 1;
          push o (Source.Insn short) b.origs.(k)
            (Some (Overhead.Trampoline, false));
          push o (Source.Insn (Insn.B (Insn.Sym l))) b.origs.(k)
            (Some (Overhead.Trampoline, true));
          incr here);
      match b.items.(k) with Source.Insn _ -> incr here | _ -> ()
    done;
    match !out with Some o -> relax_branches stats o | None -> b
  end

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

(** Rewrite a parsed assembly file into its sandboxed equivalent: one
    walk over the input emits into one buffer, relaxation rebuilds it
    only if a branch is out of range, and one walk back over it builds
    the result and the site table (indices into the input/output
    instruction streams; see {!resolve_sites}). *)
let rewrite ?(config = Config.default) (src : Source.t) :
    Source.t * stats =
  let items = Array.of_list src in
  check_input items;
  let stats = empty_stats () in
  let n = Array.length items in
  let b = create_buf (n + (n / 8) + 16) in
  (* redundant guard elimination (O2 only), reset at each block start *)
  let hoisted = [| -1; -1 |] in
  let ord = ref 0 in
  for idx = 0 to n - 1 do
    match items.(idx) with
    | (Source.Label _ | Source.Directive _) as it ->
        hoisted.(0) <- -1;
        hoisted.(1) <- -1;
        push b it (-1) None
    | Source.Insn insn as it ->
        let redirected =
          match config.opt with
          | Config.O2 ->
              hoist ~sandbox_loads:config.sandbox_loads b !ord items hoisted
                stats idx insn
          | _ -> None
        in
        (match redirected with
        | Some r ->
            (* an access redirected at a hoisted base is a modified
               guard site even though the rewrite leaves it alone *)
            transform_insn config stats b items idx !ord r
              ~it:(Source.Insn r) ~keep_tag:tg_guarded
        | None ->
            transform_insn config stats b items idx !ord insn ~it
              ~keep_tag:None);
        if Insn.is_branch insn then begin
          hoisted.(0) <- -1;
          hoisted.(1) <- -1
        end;
        incr ord
  done;
  let b = relax_branches stats b in
  let result = ref [] and sites = ref [] and out_idx = ref b.insns in
  for k = b.len - 1 downto 0 do
    let it = b.items.(k) in
    result := it :: !result;
    match it with
    | Source.Insn _ -> (
        decr out_idx;
        match b.tags.(k) with
        | Some (cat, inserted) ->
            sites :=
              { s_out = !out_idx; s_cat = cat; s_inserted = inserted;
                s_orig = b.origs.(k) }
              :: !sites
        | None -> ())
    | _ -> ()
  done;
  stats.input_insns <- !ord;
  stats.output_insns <- b.insns;
  stats.guards <- b.insns - !ord;
  stats.sites <- !sites;
  (!result, stats)

(** Resolve the site table of a finished rewrite to sandbox-relative
    addresses, by replaying the assembler's layout over both the input
    and the output source. *)
let resolve_sites ?origin ~(input : Source.t) ~(output : Source.t)
    (stats : stats) : Overhead.site list =
  let out_pcs = Assemble.insn_addresses ?origin output in
  let in_pcs = Assemble.insn_addresses ?origin input in
  List.map
    (fun s ->
      { Overhead.pc = out_pcs.(s.s_out);
        category = s.s_cat;
        inserted = s.s_inserted;
        orig_pc = (if s.s_orig >= 0 then in_pcs.(s.s_orig) else 0) })
    stats.sites

(** Per-category (inserted, modified) site counts, for cross-checking
    static stats against the dynamic overhead report. *)
let site_counts (stats : stats) :
    (Overhead.category * int * int) list =
  List.map
    (fun cat ->
      let ins = ref 0 and md = ref 0 in
      List.iter
        (fun s ->
          if s.s_cat = cat then if s.s_inserted then incr ins else incr md)
        stats.sites;
      (cat, !ins, !md))
    Overhead.all_categories
