(** Architectural state of one emulated ARM64 hardware thread.

    Register values are [int64]; the 32 SIMD/FP registers are stored as
    a low and a high 64-bit half (the subset only computes on the low
    half; [q] loads/stores move both).  The machine also carries the
    cycle accounting state: a cost model, an optional TLB, and the
    running cycle counter that every experiment reports.

    {2 Superblock cache}

    Above the decode cache sits the superblock layer (DESIGN.md §5f):
    decoded instructions are lowered into pre-resolved closures,
    grouped into basic blocks keyed by entry pc, and dispatched
    block-at-a-time by {!Exec.run}, armed observers or not — see
    {!Block} for the engine.
    This module owns only the storage and the invalidation protocol:
    blocks live in per-executable-page tables ({!bpage}) reached
    through a one-entry last-page pointer, each block is registered on
    {e every} page it overlaps (a block may straddle a page boundary),
    and {!invalidate_code} — already fired by the memory system for
    any map / unmap / protect / write-to-executable-page — marks every
    overlapping block dead and unlinks it, so a stale block can never
    run.  Chain links ([b_succ0]/[b_succ1]) are validated against
    [b_valid] on every hop, which makes dangling links after an
    invalidation harmless.

    {2 Decode cache}

    Each 4-byte instruction word of an executable page has a decode
    slot holding the decoded instruction, its cost, its lowered form
    ({!op}, filled by {!Sem.fill}) and the fresh flag the decode-miss
    counter reads at retirement ({!Interp.observe}), in flat per-page arrays
    reached through a one-entry last-page pointer — the hot fetch path
    is two integer compares and an array load, with no hashing and no
    boxed [int64] key allocation.  The cache participates in the memory
    system's invalidation protocol: {!create} registers a hook on the
    machine's {!Memory.t} so that any [map] / [unmap] / [protect] of a
    page, or any write into an executable page, drops the decoded
    instructions covering the affected range.  A cached instruction
    therefore always agrees with what {!Memory.fetch} would return. *)

open Lfi_arm64

(** Program counters at or above this address belong to the host
    runtime: the emulator stops with a [Runtime_entry] event instead of
    fetching, which is how the runtime-call table of Section 4.4 hands
    control to the (native, trusted) runtime without a trampoline. *)
let host_region_start = 0x7F00_0000_0000L
let host_region_start_i = Int64.to_int host_region_start

(** Instruction slots per page (one per aligned 4-byte word). *)
let decode_slots = Memory.page_size / 4

(* ---------------- escape oracle ---------------- *)

(** What kind of access escaped the sandbox. *)
type escape_kind = Eload | Estore | Ebranch

type escape = {
  esc_pc : int64;  (** pc of the offending instruction *)
  esc_addr : int64;  (** resolved data address or branch target *)
  esc_kind : escape_kind;
}

(** Ground-truth sandbox-escape detector for the fuzzing subsystem
    (DESIGN.md §5d).  When installed, every data access funnelled
    through the emulator's load/store path is checked against the
    [o_lo, o_hi) window and every taken branch against
    [o_branch_lo, o_branch_hi) or the runtime-call host window; any
    miss is recorded (and counted) without stopping execution.  The
    windows are plain addresses — the emulator knows nothing about
    slots or layouts, so the fuzzer constructs them from
    [Lfi_core.Layout].  [None] (the default) costs one predictable
    branch per access, the same discipline as [metrics]/[flight]. *)
type oracle = {
  o_lo : int64;  (** first legal data address (inclusive) *)
  o_hi : int64;  (** first illegal data address past the window *)
  o_branch_lo : int64;  (** first legal branch target (inclusive) *)
  o_branch_hi : int64;  (** first illegal branch target *)
  o_host_lo : int64;  (** runtime-call entry window (inclusive) ... *)
  o_host_hi : int64;  (** ... and its exclusive end *)
  mutable o_escapes : escape list;  (** most recent first, capped *)
  mutable o_count : int;  (** total escapes, including uncollected *)
}

(** Keep only this many escape records per oracle; a wild mutant can
    escape on every instruction and we only need one witness. *)
let oracle_max_escapes = 64

let oracle ~lo ~hi ~branch_lo ~branch_hi ~host_lo ~host_hi : oracle =
  {
    o_lo = lo;
    o_hi = hi;
    o_branch_lo = branch_lo;
    o_branch_hi = branch_hi;
    o_host_lo = host_lo;
    o_host_hi = host_hi;
    o_escapes = [];
    o_count = 0;
  }

let record_escape (o : oracle) ~(pc : int64) ~(addr : int64)
    (kind : escape_kind) =
  o.o_count <- o.o_count + 1;
  if o.o_count <= oracle_max_escapes then
    o.o_escapes <-
      { esc_pc = pc; esc_addr = addr; esc_kind = kind } :: o.o_escapes

(* ---------------- superblocks ---------------- *)

(** Number of instructions a block may cover (body + terminator).
    256 bytes of code, so a block overlaps at most two 16KiB pages. *)
let max_block_len = 64

type t = {
  mutable pc : int64;
  regs : int64 array;  (** x0 .. x30 *)
  mutable sp : int64;
  mutable flag_n : bool;
  mutable flag_z : bool;
  mutable flag_c : bool;
  mutable flag_v : bool;
  vlo : int64 array;
  vhi : int64 array;
  mutable exclusive : int64 option;  (** local exclusive monitor *)
  mem : Memory.t;
  uarch : Cost_model.t;
  tlb : Tlb.t;
  mutable nested_paging : bool;
      (** simulate running as a guest under virtualization *)
  cycle_acc : float array;
      (** running cycle counter; a 1-element flat float array so the
          hot-path accumulate is an unboxed float store (a [mutable
          float] field in this mixed record would box on every add) *)
  mutable insns : int;
  decode_pages : (int, dpage) Hashtbl.t;  (** keyed by page index *)
  mutable dc_idx : int;  (** page index of the [dc_*] fields; -1 = none *)
  mutable dc_page : dpage;  (** the last decode page touched ... *)
  mutable dc_cost : float array;  (** ... and its hot arrays *)
  mutable dc_op : op array;
  mutable metrics : Lfi_telemetry.Metrics.emu option;
      (** telemetry handle; [None] (the default) counts nothing and
          allocates nothing — each count site is one predictable
          branch, preserving the hot loop's throughput *)
  mutable profile : Lfi_telemetry.Profile.t option;
      (** pc-sampling profiler handle; [None] by default *)
  mutable flight : Lfi_telemetry.Flight.t option;
      (** flight recorder of the sandbox currently on this machine;
          the runtime swaps it on context switch.  [None] costs one
          predictable branch per taken branch / guarded access *)
  mutable escape_oracle : oracle option;
      (** fuzzing ground truth; [None] by default.  Not part of
          {!snapshot}, so it survives context switches and restores. *)
  mutable overhead : Lfi_telemetry.Overhead.acc option;
      (** per-rewrite-site cycle attribution; [None] (the default)
          charges nothing — one predictable branch per fetch, same
          discipline as {!metrics} *)
  (* --- superblock cache (see {!Block} for the engine) --- *)
  blocks : (int, bpage) Hashtbl.t;  (** per-page block tables *)
  mutable bp_idx : int;  (** page index of [bp_arr]; -1 = none *)
  mutable bp_arr : blk array;  (** entry slots of the last block page *)
  mutable blk_i : int;
      (** index of the body op currently executing, maintained by the
          block dispatch loop so a memory fault mid-block can
          reconstruct the faulting pc and the partial insn count *)
  (* unconditional block-engine counters (flat ints, like the
     translation cache's), live whether or not an observer is armed *)
  mutable blk_execs : int;  (** blocks dispatched *)
  mutable blk_builds : int;  (** lookup misses (block built) *)
  mutable blk_insns : int;  (** instructions retired via blocks *)
  mutable blk_deopts : int;
      (** quantum tails: times {!Block.run} single-stepped because the
          next block was longer than the rest of the quantum *)
}

(** A page of decode slots: each aligned word's decoded instruction,
    its cost under the machine's [uarch] (a flat float array, so
    charging it is an unboxed load), its lowered form ([undecoded]
    until first fetched) and whether it was filled while {!metrics}
    was armed and has not retired since (its next retirement is the
    decode miss). *)
and dpage = {
  d_insn : Insn.t array; d_cost : float array; d_op : op array;
  d_fresh : Bytes.t }

(** The lowered form of one instruction, what both dispatch paths
    execute: a straight-line instruction's effect with its pre-boxed
    fall-through pc, or a terminator. *)
and op = Body of (t -> unit) * int64 | Term of bterm

(** One lowered basic block.  [b_body] holds the straight-line
    instructions as pre-resolved closures (operands resolved to array
    indices, immediates pre-extended and pre-boxed); [b_term] is the
    control-flow decision that ends the block.  [b_costs] keeps each
    instruction's cost under the machine's cost model ([b_costs.(i)]
    for body op [i], last slot for the terminator) — the dispatch loop
    charges them one at a time, in program order, so the cycle
    accumulator sees bit-for-bit the same sequence of float adds as
    the single-step path. *)
and blk = {
  b_pci : int;  (** entry pc, untagged *)
  b_len : int;  (** instructions retired by a full execution *)
  b_body : (t -> unit) array;
  b_costs : float array;
  b_term : bterm;
  b_pages : int;  (** number of pages this block overlaps (1 or 2) *)
  b_dp0 : dpage;  (** decode pages built from, for the observers: *)
  b_dp1 : dpage;  (** the entry's, the second's ([b_dp0] if one) *)
  b_wx : bool;
      (** some overlapped page was writable+executable at build time:
          one of the block's own stores could invalidate it, so the
          body loop must re-check [b_valid] after every op.  When
          false the check is skipped — permission changes only happen
          through host-side calls ([Memory.protect] &c.) that
          invalidate first, never mid-block. *)
  mutable b_valid : bool;
  mutable b_succ0 : blk;  (** chain links: likely successors, *)
  mutable b_succ1 : blk;  (** validated by [b_valid] + [b_pci] *)
}

(** Block terminators.  Branch targets, fall-through pcs, and the
    terminator's own pc ([ti], for the flight recorder) are untagged
    ints: the dispatch loop threads the pc as an int and only
    materializes the boxed [pc] field at exit points.  The link value
    ([bl]/[blr]) and the trap pcs stay pre-boxed [int64]s — they are
    stored into the register file / [pc] directly. *)
and bterm =
  | Tb of { target : int; ti : int }
  | Tbl of { target : int; ti : int; link : int64 }
  | Tbcond of { cond : Lfi_arm64.Insn.cond; target : int; ti : int;
                next : int }
  | Tcbz of { nz : bool; reg : Lfi_arm64.Reg.t; target : int; ti : int;
              next : int }
  | Ttbz of { nz : bool; reg : Lfi_arm64.Reg.t; bit : int; target : int;
              ti : int; next : int }
  | Tbr of { reg : Lfi_arm64.Reg.t; ti : int }
  | Tblr of { reg : Lfi_arm64.Reg.t; ti : int; link : int64 }
  | Tret of { reg : Lfi_arm64.Reg.t; ti : int }
  | Tsvc of { n : int; next : int64 }
  | Tudf of { pc : int64 }
  | Tfall of { next : int }
      (** block ended without a branch (length cap, or the next fetch
          would fault); counts no instruction and charges no cost *)

(** Per-page block table: one entry slot per aligned word (a block is
    found by its entry pc) plus the list of every block overlapping
    the page, which is what invalidation walks.  A block straddling
    into a page appears in that page's [bp_blocks] even though its
    entry slot lives on the previous page. *)
and bpage = {
  bp_entries : blk array;  (** [no_blk] sentinel in empty slots *)
  mutable bp_blocks : blk list;
}

let no_page =
  { d_insn = [||]; d_cost = [||]; d_op = [||]; d_fresh = Bytes.empty }

(* Sentinel block: never valid, so an empty entry slot or chain link
   reads as a guaranteed miss with no option boxing on the hot path. *)
let rec no_blk =
  {
    b_pci = -1;
    b_len = 0;
    b_body = [||];
    b_costs = [||];
    b_term = Tfall { next = 0 };
    b_pages = 0;
    b_dp0 = no_page;
    b_dp1 = no_page;
    b_wx = false;
    b_valid = false;
    b_succ0 = no_blk;
    b_succ1 = no_blk;
  }

let no_block_page : blk array = [||]

(* Decode slots hold this sentinel until first fetched; it is
   distinguished by physical equality. *)
let undecoded : op = Body ((fun _ -> ()), 0L)

(** Mark [b] dead and clear its entry slot (which lives on its entry
    page, not necessarily the page being invalidated — the straddling
    case).  The slot is cleared only if it still holds [b]: a newer
    block may have replaced an already-dead one. *)
let kill_block (m : t) (b : blk) =
  b.b_valid <- false;
  let epage = b.b_pci lsr Memory.page_bits in
  match Hashtbl.find_opt m.blocks epage with
  | None -> ()
  | Some bp ->
      let slot = (b.b_pci land (Memory.page_size - 1)) lsr 2 in
      if Array.unsafe_get bp.bp_entries slot == b then
        Array.unsafe_set bp.bp_entries slot no_blk

(** Drop every lowered block overlapping a page in [first, last] —
    including blocks whose entry is on an earlier page but whose body
    straddles into the invalidated range. *)
let invalidate_blocks (m : t) (first : int) (last : int) =
  if Hashtbl.length m.blocks > 0 then begin
    for i = first to last do
      match Hashtbl.find_opt m.blocks i with
      | None -> ()
      | Some bp ->
          List.iter (fun b -> kill_block m b) bp.bp_blocks;
          Hashtbl.remove m.blocks i
    done;
    (* a block entered on page [first - 1] may straddle into [first];
       its home page was not dropped above, so walk it too *)
    (if first > 0 then
       match Hashtbl.find_opt m.blocks (first - 1) with
       | None -> ()
       | Some bp ->
           bp.bp_blocks <-
             List.filter
               (fun b ->
                 if b.b_pages > 1 then begin
                   kill_block m b;
                   false
                 end
                 else true)
               bp.bp_blocks);
    if m.bp_idx >= first - 1 && m.bp_idx <= last then begin
      m.bp_idx <- -1;
      m.bp_arr <- no_block_page
    end
  end

let install (m : t) (idx : int) (p : dpage) =
  m.dc_idx <- idx;
  m.dc_page <- p;
  m.dc_cost <- p.d_cost;
  m.dc_op <- p.d_op

(** Drop cached decoded instructions for every page overlapping
    [addr, addr+len); called from the memory system's
    [on_code_change] hook. *)
let invalidate_code (m : t) (addr : int64) (len : int) =
  (let first = Memory.page_index addr in
   let last =
     if len <= 0 then first
     else Memory.page_index (Int64.add addr (Int64.of_int (len - 1)))
   in
   invalidate_blocks m first last);
  if Hashtbl.length m.decode_pages > 0 then begin
    let first = Memory.page_index addr in
    let last =
      if len <= 0 then first
      else Memory.page_index (Int64.add addr (Int64.of_int (len - 1)))
    in
    for i = first to last do
      if Hashtbl.mem m.decode_pages i then begin
        (match m.metrics with
        | None -> ()
        | Some t ->
            t.Lfi_telemetry.Metrics.decode_invalidations <-
              t.Lfi_telemetry.Metrics.decode_invalidations + 1);
        Hashtbl.remove m.decode_pages i
      end
    done;
    if m.dc_idx >= first && m.dc_idx <= last then install m (-1) no_page
  end

let create ?(uarch = Cost_model.m1) (mem : Memory.t) =
  let m =
    {
      pc = 0L;
      regs = Array.make 31 0L;
      sp = 0L;
      flag_n = false;
      flag_z = false;
      flag_c = false;
      flag_v = false;
      vlo = Array.make 32 0L;
      vhi = Array.make 32 0L;
      exclusive = None;
      mem;
      uarch;
      tlb = Tlb.create ~entries:uarch.Cost_model.tlb_entries;
      nested_paging = false;
      cycle_acc = Array.make 1 0.0;
      insns = 0;
      decode_pages = Hashtbl.create 64;
      dc_idx = -1;
      dc_page = no_page;
      dc_cost = no_page.d_cost;
      dc_op = no_page.d_op;
      metrics = None;
      profile = None;
      flight = None;
      escape_oracle = None;
      overhead = None;
      blocks = Hashtbl.create 16;
      bp_idx = -1;
      bp_arr = no_block_page;
      blk_i = 0;
      blk_execs = 0;
      blk_builds = 0;
      blk_insns = 0;
      blk_deopts = 0;
    }
  in
  (* Join the memory system's invalidation protocol, preserving any
     hook already installed (several machines may share one memory). *)
  let prev = mem.Memory.on_code_change in
  mem.Memory.on_code_change <-
    (fun addr len ->
      prev addr len;
      invalidate_code m addr len);
  m

(** Install the decode page for page index [idx] as the last-page
    pointer ([dc_idx] and the [dc_*] arrays), creating it on first
    touch. *)
let decode_page (m : t) (idx : int) : unit =
  let p =
    match Hashtbl.find_opt m.decode_pages idx with
    | Some p -> p
    | None ->
        let p =
          { d_insn = Array.make decode_slots Insn.Nop;
            d_cost = Array.make decode_slots 0.0;
            d_op = Array.make decode_slots undecoded;
            d_fresh = Bytes.make decode_slots '\000' }
        in
        Hashtbl.replace m.decode_pages idx p;
        p
  in
  install m idx p

(** Retirement must call {!Interp.observe}: an observer is armed. *)
let[@inline] observed (m : t) =
  match (m.metrics, m.profile, m.overhead) with
  | None, None, None -> false
  | _ -> true

(* ---------------- cycle accounting ---------------- *)

let cycles (m : t) : float = Array.unsafe_get m.cycle_acc 0

let[@inline] add_cycles (m : t) (c : float) =
  Array.unsafe_set m.cycle_acc 0 (Array.unsafe_get m.cycle_acc 0 +. c)

let set_cycles (m : t) (c : float) = m.cycle_acc.(0) <- c

let mask32 = 0xFFFFFFFFL

(** Read a general register operand. *)
let[@inline] get (m : t) (r : Reg.t) : int64 =
  match r with
  | Reg.R (Reg.W64, n) -> m.regs.(n)
  | Reg.R (Reg.W32, n) -> Int64.logand m.regs.(n) mask32
  | Reg.ZR _ -> 0L
  | Reg.SP Reg.W64 -> m.sp
  | Reg.SP Reg.W32 -> Int64.logand m.sp mask32

(** Write a general register operand; 32-bit writes zero the top half
    (the property the LFI guard depends on). *)
let[@inline] set (m : t) (r : Reg.t) (v : int64) =
  match r with
  | Reg.R (Reg.W64, n) -> m.regs.(n) <- v
  | Reg.R (Reg.W32, n) -> m.regs.(n) <- Int64.logand v mask32
  | Reg.ZR _ -> ()
  | Reg.SP Reg.W64 -> m.sp <- v
  | Reg.SP Reg.W32 -> m.sp <- Int64.logand v mask32

(** The double (or single, widened) value held by an FP register. *)
let get_float (m : t) (f : Reg.Fp.t) : float =
  match f.Reg.Fp.size with
  | Reg.Fp.D | Reg.Fp.Q -> Int64.float_of_bits m.vlo.(f.Reg.Fp.n)
  | Reg.Fp.S ->
      Int32.float_of_bits (Int64.to_int32 (Int64.logand m.vlo.(f.Reg.Fp.n) mask32))

let set_float (m : t) (f : Reg.Fp.t) (v : float) =
  match f.Reg.Fp.size with
  | Reg.Fp.D | Reg.Fp.Q -> m.vlo.(f.Reg.Fp.n) <- Int64.bits_of_float v
  | Reg.Fp.S ->
      m.vlo.(f.Reg.Fp.n) <-
        Int64.logand (Int64.of_int32 (Int32.bits_of_float v)) mask32

let[@inline] cond_holds (m : t) (c : Insn.cond) : bool =
  let n = m.flag_n and z = m.flag_z and cf = m.flag_c and v = m.flag_v in
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

let[@inline] set_nzcv (m : t) ~n ~z ~c ~v =
  m.flag_n <- n;
  m.flag_z <- z;
  m.flag_c <- c;
  m.flag_v <- v

(** Charge TLB cost for a data access. *)
let[@inline] charge_tlb (m : t) (addr : int64) =
  if not (Tlb.access m.tlb addr) then begin
    let walk = m.uarch.Cost_model.tlb_walk_cycles in
    let walk =
      if m.nested_paging then walk *. m.uarch.Cost_model.nested_walk_factor
      else walk
    in
    add_cycles m walk
  end

(** Snapshot of the register state (used by fork and context switch). *)
type snapshot = {
  s_pc : int64;
  s_regs : int64 array;
  s_sp : int64;
  s_flags : bool * bool * bool * bool;
  s_vlo : int64 array;
  s_vhi : int64 array;
}

let snapshot (m : t) : snapshot =
  {
    s_pc = m.pc;
    s_regs = Array.copy m.regs;
    s_sp = m.sp;
    s_flags = (m.flag_n, m.flag_z, m.flag_c, m.flag_v);
    s_vlo = Array.copy m.vlo;
    s_vhi = Array.copy m.vhi;
  }

let restore (m : t) (s : snapshot) =
  m.pc <- s.s_pc;
  Array.blit s.s_regs 0 m.regs 0 31;
  m.sp <- s.s_sp;
  (let n, z, c, v = s.s_flags in
   set_nzcv m ~n ~z ~c ~v);
  Array.blit s.s_vlo 0 m.vlo 0 32;
  Array.blit s.s_vhi 0 m.vhi 0 32;
  m.exclusive <- None
