(** Microarchitectural cost models.

    The emulator charges each executed instruction a throughput cost in
    cycles.  Two models are provided, mirroring the paper's evaluation
    machines: an Apple-M1-class wide core ("m1", 8-wide, 3.2 GHz) and a
    Neoverse-class server core ("t2a", 4-wide, 3.0 GHz, the GCP T2A
    Ampere Altra instance).

    Constants are either taken from the paper and the microarchitectural
    references it cites ([8, 27]) or labelled CALIBRATED:

    - the extended-register [add ... uxtw] guard "executes with 2-cycle
      latency and half-throughput on both Apple and Arm CPU designs"
      (Section 4) — it is charged roughly twice a plain ALU op;
    - the guarded addressing mode [\[x21, wN, uxtw\]] has the same cost
      as a plain load: "microarchitectural documentation shows that both
      forms have equivalent performance" (Section 4.1);
    - Table 5 context-switch costs: Linux getpid-style syscall 129ns
      (M1) / 160ns (T2A); LFI runtime call 22ns / 26ns; LFI direct yield
      17ns / 18ns ("roughly 50 cycles", Section 5.3); Linux pipe
      round-trip 1504ns / 2494ns; gVisor 12019ns / 22899ns.
    - virtualization "doubles the cost of a TLB miss due to the
      additional pagetable levels" (Section 6.4) — nested page walks
      charge twice the walk cost. *)

open Lfi_arm64

type t = {
  name : string;
  clock_ghz : float;
  alu : float;          (** simple ALU / move / bitfield / csel *)
  ext_add : float;      (** extended-register add (the basic LFI guard) *)
  mul : float;
  div : float;
  load : float;         (** L1-hit load, any addressing mode *)
  store : float;
  pair : float;         (** ldp/stp *)
  atomic : float;       (** exclusives / acquire-release *)
  branch : float;       (** direct unconditional *)
  cond_branch : float;  (** includes amortized misprediction cost *)
  indirect_branch : float;
  fp : float;           (** FP add/sub/mul/convert *)
  fp_div : float;
  nop : float;
  (* memory system *)
  tlb_entries : int;
  tlb_walk_cycles : float;       (** page-walk cost on a TLB miss *)
  nested_walk_factor : float;    (** multiplier under virtualization *)
  (* isolation-domain switch constants (Table 5), in cycles *)
  linux_syscall : float;
  linux_pipe_roundtrip : float;
  gvisor_syscall : float;
  gvisor_pipe_roundtrip : float;
  lfi_runtime_call_entry : float;
      (** fixed cost of entering/leaving the runtime on a runtime call,
          beyond the executed instructions (register spill, dispatch) *)
  lfi_yield_direct : float;
      (** callee-saved save/restore for the optimized yield *)
  scxtnum_switch : float;
      (** CALIBRATED: cost of writing SCXTNUM_EL0 when crossing between
          the runtime and a sandbox under the §7.1 Spectre hardening
          ("this will likely have some cost"; the paper could not
          measure it on available hardware, so this models a system
          register write plus its serialization) *)
}

(* CALIBRATED: per-class throughput costs chosen so that the native
   instruction mix of the SPEC proxies executes at a plausible IPC
   (~3.5-4 on m1, ~2-2.5 on t2a) and so that relative guard costs follow
   the documented latencies (ext_add = 2x alu, guarded load = load). *)

let m1 =
  {
    name = "m1";
    clock_ghz = 3.2;
    alu = 0.18;
    ext_add = 0.36;
    mul = 0.5;
    div = 2.2;
    load = 0.45;
    store = 0.50;
    pair = 0.60;
    atomic = 2.0;
    branch = 0.18;
    cond_branch = 0.40;
    indirect_branch = 0.70;
    fp = 0.40;
    fp_div = 3.0;
    nop = 0.08;
    tlb_entries = 64;
    (* 64 entries x 16KiB = 1MiB reach: the same ratio to our MB-scale
       proxy footprints as a real L2 TLB (tens of MiB reach) has to
       SPEC's GB-scale footprints *)
    tlb_walk_cycles = 18.0;
    nested_walk_factor = 2.0;
    linux_syscall = 413.0; (* 129 ns * 3.2 GHz *)
    linux_pipe_roundtrip = 4813.0; (* 1504 ns *)
    gvisor_syscall = Float.nan; (* gVisor unsupported on 16K pages *)
    gvisor_pipe_roundtrip = Float.nan;
    lfi_runtime_call_entry = 55.0; (* 22 ns total incl. instructions *)
    lfi_yield_direct = 42.0; (* 17 ns total incl. instructions *)
    scxtnum_switch = 12.0;
  }

let t2a =
  {
    name = "t2a";
    clock_ghz = 3.0;
    alu = 0.30;
    ext_add = 0.60;
    mul = 0.8;
    div = 3.0;
    load = 0.60;
    store = 0.65;
    pair = 0.85;
    atomic = 2.5;
    branch = 0.30;
    cond_branch = 0.55;
    indirect_branch = 0.95;
    fp = 0.55;
    fp_div = 4.0;
    nop = 0.12;
    tlb_entries = 64;
    tlb_walk_cycles = 22.0;
    nested_walk_factor = 2.0;
    linux_syscall = 480.0; (* 160 ns * 3.0 GHz *)
    linux_pipe_roundtrip = 7482.0; (* 2494 ns *)
    gvisor_syscall = 36057.0; (* 12019 ns *)
    gvisor_pipe_roundtrip = 68697.0; (* 22899 ns *)
    lfi_runtime_call_entry = 62.0; (* 26 ns *)
    lfi_yield_direct = 46.0; (* 18 ns *)
    scxtnum_switch = 15.0;
  }

let by_name = function
  | "m1" -> Some m1
  | "t2a" -> Some t2a
  | _ -> None

(** Throughput cost (cycles) of one instruction, memory system aside. *)
let cost (u : t) (i : Insn.t) : float =
  match i with
  | Insn.Alu { op2 = Insn.Ext _; _ } -> u.ext_add
  | Insn.Alu _ | Insn.Shiftv _ | Insn.Mov _ | Insn.Bitfield _ | Insn.Extr _
  | Insn.Csel _ | Insn.Ccmp _ | Insn.Cls _ | Insn.Rbit _ | Insn.Rev _
  | Insn.Adr _ ->
      u.alu
  | Insn.Madd _ | Insn.Smulh _ | Insn.Maddl _ -> u.mul
  | Insn.Div _ -> u.div
  | Insn.Ldr _ | Insn.Fldr _ -> u.load
  | Insn.Str _ | Insn.Fstr _ -> u.store
  | Insn.Ldp _ | Insn.Stp _ | Insn.Fldp _ | Insn.Fstp _ -> u.pair
  | Insn.Ldxr _ | Insn.Stxr _ | Insn.Ldar _ | Insn.Stlr _ -> u.atomic
  | Insn.B _ | Insn.Bl _ -> u.branch
  | Insn.Bcond _ | Insn.Cbz _ | Insn.Tbz _ -> u.cond_branch
  | Insn.Br _ | Insn.Blr _ | Insn.Ret _ -> u.indirect_branch
  | Insn.Fop2 { op = Insn.FDIV; _ } -> u.fp_div
  | Insn.Fop1 { op = Insn.FSQRT; _ } -> u.fp_div
  | Insn.Fop2 _ | Insn.Fop1 _ | Insn.Fmadd _ | Insn.Fcmp _ | Insn.Fcvt _
  | Insn.Scvtf _ | Insn.Fcvtzs _ | Insn.Fmov_to_fp _ | Insn.Fmov_from_fp _ ->
      u.fp
  | Insn.Nop -> u.nop
  | Insn.Svc _ | Insn.Mrs _ | Insn.Msr _ | Insn.Dmb -> u.alu
  | Insn.Udf _ -> u.alu

let cycles_to_ns u cycles = cycles /. u.clock_ghz
