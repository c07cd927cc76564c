(** Architectural state of one emulated ARM64 hardware thread.

    {2 Register file}

    The whole architectural state lives in one unboxed register file,
    [regs], a [Bytes.t] of {!regs_bytes} bytes holding 99 64-bit slots
    in host byte order (DESIGN.md §5a): x0–x30 in slots 0–30, sp in 31,
    pc in 32, NZCV (N=8, Z=4, C=2, V=1) in 33, the low halves of v0–v31
    in 34–65 and their high halves in 66–97 (the subset only computes
    on the low half; [q] loads/stores move both), and in 98 the address
    the exclusive monitor holds while [exclusive] is set.  A register
    write is an unboxed store into the file: no [Int64] box, no write
    barrier.
    Each sandbox owns its file and the machine points at the running
    one, so a context switch ({!switch_to}) is a pointer store, never a
    copy, and an entry state is a few stores into a cleared file.  The
    lowered closures ({!Sem}) and the dispatch loops read and write
    slots directly ({!get64u}/{!set64u}, unchecked, at offsets
    resolved at lowering time); every other reader — the runtime,
    libbox, the fuzzers, postmortem, tests — goes through the one
    accessor family ({!x}, {!sp}, {!pc}, {!nzcv}, {!vlo}, {!vhi} and
    their setters), which works on any file, running or not.

    The machine also carries the cycle accounting state: a cost model,
    an optional TLB, and the running cycle counter that every
    experiment reports.

    {2 Code cache}

    Each executable page has one code record, a {!dpage}, found
    through one table ([decode_pages], keyed by page index) and one
    last-page pointer ([dc_idx] and the [dc_*] arrays): the hot fetch
    path is two integer compares and an array load, with no hashing
    and no boxed [int64] key.  The record holds, per 4-byte word, the
    decoded instruction, its cost, its lowered form ({!op}, filled by
    {!Sem.fill}), the fresh flag the decode-miss counter reads at
    retirement ({!Interp.observe}) and the superblock entered there
    (DESIGN.md §5f; see {!Block} for the engine), plus the list of
    every block overlapping the page — a block may straddle into the
    next page, and is listed on both.

    {!create} registers {!invalidate_code} on the machine's
    {!Memory.t}, so any [map] / [unmap] / [protect] of a page, or any
    write into an executable page, drops the records covering the
    range in one walk: their blocks are marked dead and the pages
    removed, and so are the straddlers entered on the page before.
    A cached instruction therefore always agrees with what
    {!Memory.fetch} would return, and a stale block can never run.
    Chain links ([b_succ0]/[b_succ1]) are validated against [b_valid]
    on every hop, which makes dangling links after an invalidation
    harmless. *)

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
    branch per access, the same discipline as [metrics]. *)
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

(* ---------------- register file ---------------- *)

(** Slots of the register file (8 bytes each): x[n] is slot [n]. *)
let slot_sp = 31
let slot_pc = 32
let slot_nzcv = 33
let slot_vlo = 34
let slot_vhi = 66
let slot_excl = 98

(** Size of the register file, in bytes. *)
let regs_bytes = 99 * 8

(** An all-zero register file, to write an entry state into. *)
let empty_regs () : Bytes.t = Bytes.make regs_bytes '\000'

(** Unchecked host-order access to the 8 bytes at byte offset [o]:
    the lowered code's and the dispatch loops' direct access to the
    file, at offsets resolved at lowering time (a register number from
    a decoded operand, or one of the slots above).  Primitives, so
    they compile to one load or store in every module that uses them,
    and the value never goes through a box. *)
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(** Byte offset of the pc slot. *)
let pc_off = slot_pc * 8

(* ---------------- superblocks ---------------- *)

(** Number of instructions a block may cover (body + terminator).
    256 bytes of code, so a block overlaps at most two 16KiB pages. *)
let max_block_len = 64

type t = {
  mutable regs : Bytes.t;
      (** the running sandbox's register file: x0–x30, sp, pc, NZCV,
          v0–v31 low and high halves, 8 bytes each (see the layout
          above) *)
  mutable exclusive : bool;
      (** the local exclusive monitor is set, on the address in slot
          {!slot_excl} *)
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
  decode_pages : dpage Itbl.t;  (** keyed by page index *)
  mutable dc_idx : int;  (** page index of the [dc_*] fields; -1 = none *)
  mutable dc_page : dpage;  (** the last code page touched ... *)
  mutable dc_cost : float array;  (** ... and its hot arrays *)
  mutable dc_op : op array;
  mutable dc_entries : blk array;
  mutable metrics : Lfi_telemetry.Metrics.emu option;
      (** telemetry handle; [None] (the default) counts nothing and
          allocates nothing — each count site is one predictable
          branch, preserving the hot loop's throughput *)
  mutable profile : Lfi_telemetry.Profile.t option;
      (** pc-sampling profiler handle; [None] by default *)
  mutable flight : Lfi_telemetry.Flight.t;
      (** flight recorder of the running sandbox, installed with its
          register file by {!switch_to} *)
  mutable escape_oracle : oracle option;
      (** fuzzing ground truth; [None] by default.  The machine's, not
          a sandbox's, so it survives context switches. *)
  mutable overhead : Lfi_telemetry.Overhead.acc option;
      (** per-rewrite-site cycle attribution; [None] (the default)
          charges nothing — one predictable branch per fetch, same
          discipline as {!metrics} *)
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

(** A page's code record: for each aligned word, its decoded
    instruction, its cost under the machine's [uarch] (a flat float
    array, so charging it is an unboxed load), its lowered form
    ([undecoded] until first fetched), whether it was filled while
    {!metrics} was armed and has not retired since (its next
    retirement is the decode miss) and the block entered there
    ([no_blk] if none); and every block overlapping the page, which
    is what invalidation walks.  A block straddling into the page is
    listed here though its entry slot is on the previous page. *)
and dpage = {
  d_insn : Insn.t array; d_cost : float array; d_op : op array;
  d_fresh : Bytes.t; d_entries : blk array; mutable d_blocks : blk list }

(** The lowered form of one instruction, what both dispatch paths
    execute: a straight-line instruction's effect with its
    fall-through pc, or a terminator. *)
and op = Body of (t -> unit) * int64 | Term of bterm

(** One lowered basic block.  [b_body] holds the straight-line
    instructions as pre-resolved closures (operands resolved to slots
    of the register file, immediates pre-extended); [b_term] is the
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
    ints: the dispatch loop threads the pc as an int and only stores
    it into the file's pc slot at exit points.  The link value
    ([bl]/[blr]) and the trap pcs stay [int64] constants, stored into
    the file as they are. *)
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

let no_page =
  { d_insn = [||]; d_cost = [||]; d_op = [||]; d_fresh = Bytes.empty;
    d_entries = [||]; d_blocks = [] }

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

(* Decode slots hold this sentinel until first fetched; it is
   distinguished by physical equality. *)
let undecoded : op = Body ((fun _ -> ()), 0L)

(** Mark [b] dead and clear its entry slot, which is on the page it
    was built from ([b_dp0]), not necessarily the page being
    invalidated — the straddling case.  The slot is cleared only if it
    still holds [b]: a newer block may have replaced an already-dead
    one. *)
let kill_block (b : blk) =
  b.b_valid <- false;
  let slot = (b.b_pci land (Memory.page_size - 1)) lsr 2 in
  if Array.unsafe_get b.b_dp0.d_entries slot == b then
    Array.unsafe_set b.b_dp0.d_entries slot no_blk

let install (m : t) (idx : int) (p : dpage) =
  m.dc_idx <- idx;
  m.dc_page <- p;
  m.dc_cost <- p.d_cost;
  m.dc_op <- p.d_op;
  m.dc_entries <- p.d_entries

(** Drop the code record of every page overlapping [addr, addr+len),
    killing its blocks, and the blocks entered on the page before that
    straddle into the range; called from the memory system's
    [on_code_change] hook. *)
let invalidate_code (m : t) (addr : int64) (len : int) =
  if Itbl.length m.decode_pages > 0 then begin
    let first = Memory.page_index addr in
    let last =
      if len <= 0 then first
      else Memory.page_index (Int64.add addr (Int64.of_int (len - 1)))
    in
    for i = first to last do
      match Itbl.find_opt m.decode_pages i with
      | None -> ()
      | Some p ->
          List.iter kill_block p.d_blocks;
          (match m.metrics with
          | None -> ()
          | Some t ->
              t.Lfi_telemetry.Metrics.decode_invalidations <-
                t.Lfi_telemetry.Metrics.decode_invalidations + 1);
          Itbl.remove m.decode_pages i
    done;
    (* the page before stays, but its straddlers overlap [first] *)
    (match Itbl.find_opt m.decode_pages (first - 1) with
    | None -> ()
    | Some p ->
        p.d_blocks <-
          List.filter
            (fun b -> if b.b_pages > 1 then kill_block b; b.b_pages = 1)
            p.d_blocks);
    if m.dc_idx >= first && m.dc_idx <= last then install m (-1) no_page
  end

let create ?(uarch = Cost_model.m1) (mem : Memory.t) =
  let m =
    {
      regs = empty_regs ();
      exclusive = false;
      mem;
      uarch;
      tlb = Tlb.create ~entries:uarch.Cost_model.tlb_entries;
      nested_paging = false;
      cycle_acc = Array.make 1 0.0;
      insns = 0;
      decode_pages = Itbl.create 64;
      dc_idx = -1;
      dc_page = no_page;
      dc_cost = no_page.d_cost;
      dc_op = no_page.d_op;
      dc_entries = no_page.d_entries;
      metrics = None;
      profile = None;
      flight = Lfi_telemetry.Flight.create ();
      escape_oracle = None;
      overhead = None;
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

(** Install the code record of page index [idx] as the last-page
    pointer ([dc_idx] and the [dc_*] arrays), creating it on first
    touch. *)
let decode_page (m : t) (idx : int) : unit =
  let p =
    match Itbl.find m.decode_pages idx with
    | p -> p
    | exception Not_found ->
        let p =
          { d_insn = Array.make decode_slots Insn.Nop;
            d_cost = Array.make decode_slots 0.0;
            d_op = Array.make decode_slots undecoded;
            d_fresh = Bytes.make decode_slots '\000';
            d_entries = Array.make decode_slots no_blk; d_blocks = [] }
        in
        Itbl.replace m.decode_pages idx p;
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

(** Charge [costs.(i)], an instruction's cost: the charge both dispatch
    paths make per instruction.  It takes the cost's array and index,
    not the float, so the float is never boxed across a call. *)
let[@inline] charge (m : t) (costs : float array) (i : int) =
  Array.unsafe_set m.cycle_acc 0
    (Array.unsafe_get m.cycle_acc 0 +. Array.unsafe_get costs i)

let mask32 = 0xFFFFFFFFL

(* ---------------- the one accessor ---------------- *)

(* Checked reads and writes of a register file, the machine's [regs]
   or that of a sandbox that is not running.  Every reader
   outside the lowered code goes through these: x[n] for n in 0..30,
   v[n] for n in 0..31. *)

let[@inline] x (f : Bytes.t) (n : int) : int64 =
  if n < 0 || n > 30 then invalid_arg "Machine.x";
  Bytes.get_int64_ne f (n lsl 3)

let[@inline] set_x (f : Bytes.t) (n : int) (v : int64) =
  if n < 0 || n > 30 then invalid_arg "Machine.set_x";
  Bytes.set_int64_ne f (n lsl 3) v

let[@inline] sp (f : Bytes.t) = Bytes.get_int64_ne f (slot_sp lsl 3)
let[@inline] set_sp (f : Bytes.t) v = Bytes.set_int64_ne f (slot_sp lsl 3) v
let[@inline] pc (f : Bytes.t) = Bytes.get_int64_ne f (slot_pc lsl 3)
let[@inline] set_pc (f : Bytes.t) v = Bytes.set_int64_ne f (slot_pc lsl 3) v

(** The flags as an [nzcv] immediate: N=8, Z=4, C=2, V=1. *)
let[@inline] nzcv (f : Bytes.t) : int =
  Int64.to_int (Bytes.get_int64_ne f (slot_nzcv lsl 3))

let[@inline] set_nzcv (f : Bytes.t) (bits : int) =
  Bytes.set_int64_ne f (slot_nzcv lsl 3) (Int64.of_int (bits land 15))

let[@inline] vlo (f : Bytes.t) (n : int) : int64 =
  if n < 0 || n > 31 then invalid_arg "Machine.vlo";
  Bytes.get_int64_ne f ((slot_vlo + n) lsl 3)

let[@inline] vhi (f : Bytes.t) (n : int) : int64 =
  if n < 0 || n > 31 then invalid_arg "Machine.vhi";
  Bytes.get_int64_ne f ((slot_vhi + n) lsl 3)

let[@inline] set_vlo (f : Bytes.t) (n : int) (v : int64) =
  if n < 0 || n > 31 then invalid_arg "Machine.set_vlo";
  Bytes.set_int64_ne f ((slot_vlo + n) lsl 3) v

let[@inline] set_vhi (f : Bytes.t) (n : int) (v : int64) =
  if n < 0 || n > 31 then invalid_arg "Machine.set_vhi";
  Bytes.set_int64_ne f ((slot_vhi + n) lsl 3) v

(** The address the exclusive monitor holds, if it is set. *)
let monitor (m : t) : int64 option =
  if m.exclusive then Some (Bytes.get_int64_ne m.regs (slot_excl lsl 3))
  else None

(** Set the exclusive monitor on [a], as an [ldxr] from [a] does. *)
let set_monitor (m : t) (a : int64) =
  Bytes.set_int64_ne m.regs (slot_excl lsl 3) a;
  m.exclusive <- true

(** Charge TLB cost for a data access to page number [page] (the
    address as an untagged int, shifted right by [Memory.page_bits]). *)
let[@inline] charge_tlb (m : t) (page : int) =
  if not (Tlb.access m.tlb page) then begin
    let walk = m.uarch.Cost_model.tlb_walk_cycles in
    let walk =
      if m.nested_paging then walk *. m.uarch.Cost_model.nested_walk_factor
      else walk
    in
    add_cycles m walk
  end

(** Run [regs] and [flight] on the machine — a context switch: two
    pointer stores, nothing copied, and the exclusive monitor cleared. *)
let switch_to (m : t) (regs : Bytes.t) (flight : Lfi_telemetry.Flight.t) =
  m.regs <- regs;
  m.flight <- flight;
  m.exclusive <- false

(** Zero the whole register file (every register, pc, flags and
    vectors) and clear the exclusive monitor: the state an entry
    starts from. *)
let clear (m : t) =
  Bytes.fill m.regs 0 regs_bytes '\000';
  m.exclusive <- false
