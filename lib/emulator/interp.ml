(** The single-step loop: one instruction at a time, each charged,
    counted and observed before it runs.

    It executes the lowered form {!Sem.fill} keeps in the decode slot —
    the same closures and terminators the superblock engine ({!Block})
    runs — so it adds no semantics of its own.  What it adds is
    per-instruction observation: decode-cache and instruction-class
    counts ({!Machine.metrics}), pc sampling ({!Machine.profile}) and
    per-site overhead attribution ({!Machine.overhead}).  {!Exec.run}
    runs a quantum here when one of those is armed, and {!Block}
    single-steps its quantum tails here.  Anything that must escape to
    the host — memory faults, [svc], undefined instructions, or control
    reaching the runtime region — is reported as an {!event}; the
    runtime decides what it means.  Dispatching a straight-line
    instruction allocates nothing: its fall-through pc is pre-boxed in
    its slot (a terminator boxes its next pc). *)

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

(** Telemetry: decode-cache outcome plus the instruction-class mix,
    counted in one pass so the metrics-off fetch path pays a single
    [None] check.  A guard is the rewriter's x21-based add — either the
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

(** One instruction, letting {!Memory.Fault} escape — the quantum loop
    in {!run} installs a single handler for the whole quantum instead
    of one per step.  A pc outside [0, 2^62) takes its fetch fault
    before any decode-cache lookup; a misaligned pc faults before the
    probe, so it can never alias a cached aligned slot.  On a hit the
    charge is an unboxed load from the page's cost array.  Returns
    [None] for normal completion (pc already updated) or
    [Some event]. *)
let step_raw (m : Machine.t) : event option =
  let pc = m.pc in
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
    let c = Array.unsafe_get m.dc_cost s in
    add_cycles m c;
    (match m.metrics with
    | None -> ()
    | Some t ->
        count_fetch t ~hit:(cached != Machine.undecoded)
          (Array.unsafe_get m.dc_insn s));
    (match m.overhead with
    | None -> ()
    | Some a -> Lfi_telemetry.Overhead.charge a pci c);
    m.insns <- m.insns + 1;
    (match m.profile with
    | None -> ()
    | Some p ->
        if m.insns land p.Lfi_telemetry.Profile.mask = 0 then
          Lfi_telemetry.Profile.sample p pci);
    match op with
    | Body (f, next) ->
        f m;
        m.pc <- next;
        None
    | Term t -> (
        let npc = Sem.exec_term m t in
        if npc >= 0 then begin
          m.pc <- Int64.of_int npc;
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

(** Run until an event occurs or [quantum] instructions have executed. *)
let run (m : Machine.t) ~(quantum : int) : event =
  let rec go n =
    if n <= 0 then Quantum_expired
    else match step_raw m with None -> go (n - 1) | Some e -> e
  in
  try go quantum
  with Memory.Fault f ->
    count_fault m;
    Trap (Mem_fault f)
