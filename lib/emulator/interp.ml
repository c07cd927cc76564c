(** The single step, and the retirement observer both dispatch paths
    share.

    {!step_raw} runs the lowered form {!Sem.fill} keeps in the decode
    slot — what the superblock engine ({!Block}) runs — so it adds no
    semantics; {!Block.run} steps its quantum tails here.  {!observe}
    is the per-instruction observation — decode-cache and class counts
    ({!Machine.metrics}), per-site attribution ({!Machine.overhead}),
    pc sampling ({!Machine.profile}) — that both paths call on what
    they retire, so arming an observer never changes dispatch.  An
    escape to the host — memory fault, [svc], undefined instruction,
    runtime-region pc — is an {!event} for the runtime to interpret.
    A step that raises no event allocates nothing: the pc is a slot of
    the unboxed register file, written from the fall-through pc kept
    in the decode slot. *)

open Lfi_arm64
open Machine

type trap =
  | Mem_fault of Memory.fault
  | Undefined of int64  (** pc of a [Udf] or unsupported instruction *)
  | Svc_trap of int  (** pc already advanced past the svc *)

type event =
  | Quantum_expired
  | Runtime_entry of int64  (** pc within the host runtime region *)
  | Trap of trap

let pp_trap fmt = function
  | Mem_fault f -> Memory.pp_fault fmt f
  | Undefined pc -> Format.fprintf fmt "undefined instruction at 0x%Lx" pc
  | Svc_trap n -> Format.fprintf fmt "svc #%d" n

(** Telemetry: decode-cache outcome plus the instruction-class mix of
    one retired instruction, counted in one pass.  A guard is the
    rewriter's x21-based add — either the
    fundamental [add xD, x21, wN, uxtw] or the sp re-anchor
    [add sp, x21, x22, uxtx]. *)
let count_fetch (t : Lfi_telemetry.Metrics.emu) ~(hit : bool) (i : Insn.t) =
  let open Lfi_telemetry.Metrics in
  if hit then t.decode_hits <- t.decode_hits + 1
  else t.decode_misses <- t.decode_misses + 1;
  match i with
  | Insn.Alu
      { op = Insn.ADD; flags = false; src = Reg.R (Reg.W64, 21);
        op2 = Insn.Ext (_, (Insn.Uxtw | Insn.Uxtx), 0); _ } ->
      t.guards <- t.guards + 1
  | Insn.Ldr _ | Insn.Ldp _ | Insn.Fldr _ | Insn.Fldp _ | Insn.Ldxr _
  | Insn.Ldar _ ->
      t.loads <- t.loads + 1
  | Insn.Str _ | Insn.Stp _ | Insn.Fstr _ | Insn.Fstp _ | Insn.Stxr _
  | Insn.Stlr _ ->
      t.stores <- t.stores + 1
  | Insn.B _ | Insn.Bl _ | Insn.Bcond _ | Insn.Cbz _ | Insn.Tbz _
  | Insn.Br _ | Insn.Blr _ | Insn.Ret _ ->
      t.branches <- t.branches + 1
  | _ -> t.other <- t.other + 1

(** Observe, in program order, the [n] instructions just retired from
    [pci] on ([m.insns] counts them), read from the decode pages they
    ran from — [dp0] for [pci]'s, [dp1] for the next — which a W+X
    store may since have dropped.  A slot's first retirement after a
    metrics-armed fill is its decode miss, however it was dispatched. *)
let observe (m : Machine.t) (pci : int) (n : int) (dp0 : dpage)
    (dp1 : dpage) =
  let before = m.insns - n and page0 = pci lsr Memory.page_bits in
  for k = 0 to n - 1 do
    let pc = pci + (4 * k) in
    let dp = if pc lsr Memory.page_bits = page0 then dp0 else dp1 in
    let s = (pc land (Memory.page_size - 1)) lsr 2 in
    (match m.metrics with
    | None -> ()
    | Some t ->
        let fresh = Bytes.unsafe_get dp.d_fresh s <> '\000' in
        if fresh then Bytes.unsafe_set dp.d_fresh s '\000';
        count_fetch t ~hit:(not fresh) (Array.unsafe_get dp.d_insn s));
    (match m.overhead with
    | None -> ()
    | Some a ->
        Lfi_telemetry.Overhead.charge a pc (Array.unsafe_get dp.d_cost s));
    match m.profile with
    | None -> ()
    | Some p ->
        if (before + k + 1) land p.Lfi_telemetry.Profile.mask = 0 then
          Lfi_telemetry.Profile.sample p pc
  done

(** One instruction, letting {!Memory.Fault} escape — the block
    engine's quantum loop installs a single handler for the whole
    quantum instead of one per step.  A pc outside [0, 2^62) takes its
    fetch fault before any decode-cache lookup; a misaligned pc faults
    before the probe, so it can never alias a cached aligned slot.  On
    a hit the charge is an unboxed load from the page's cost array.
    Returns [None] for normal completion (pc already updated) or
    [Some event]. *)
let step_raw (m : Machine.t) : event option =
  let pc = get64u m.regs pc_off in
  if not (Sem.pc_fits pc) then Sem.fetch_fault pc;
  let pci = Int64.to_int pc in
  if pci >= host_region_start_i then Some (Runtime_entry pc)
  else begin
    if pci land 3 <> 0 then Sem.fetch_fault pc;
    let pidx = pci lsr Memory.page_bits in
    let s = (pci land (Memory.page_size - 1)) lsr 2 in
    if m.dc_idx <> pidx then Machine.decode_page m pidx;
    let cached = Array.unsafe_get m.dc_op s in
    let op = if cached != Machine.undecoded then cached else Sem.fill m pci s in
    charge m m.dc_cost s;
    m.insns <- m.insns + 1;
    if observed m then observe m pci 1 m.dc_page m.dc_page;
    match op with
    | Body (f, next) ->
        f m;
        set64u m.regs pc_off next;
        None
    | Term t -> (
        let npc = Sem.exec_term m t in
        if npc >= 0 then begin
          set64u m.regs pc_off (Int64.of_int npc);
          None
        end
        else
          match t with
          | Tsvc { n; _ } -> Some (Trap (Svc_trap n))
          | Tudf { pc } -> Some (Trap (Undefined pc))
          | _ -> None)
  end

let count_fault (m : Machine.t) =
  match m.metrics with
  | None -> ()
  | Some t -> t.Lfi_telemetry.Metrics.faults <- t.Lfi_telemetry.Metrics.faults + 1

(** Execute exactly one instruction.  Returns [None] for normal
    completion (pc already updated) or [Some event]. *)
let step (m : Machine.t) : event option =
  try step_raw m
  with Memory.Fault f ->
    count_fault m;
    Some (Trap (Mem_fault f))
