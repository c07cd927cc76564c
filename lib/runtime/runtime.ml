(** The LFI runtime (Section 5.3).

    One host process manages all sandboxes: ELF executables are
    verified, loaded into 4GiB slots of a single (emulated) address
    space, given a read-only runtime-call table in their first page,
    and scheduled preemptively.  Runtime calls arrive either through
    the table (sandboxed code: [ldr x30, \[x21, #8k\]; blr x30]) or as
    [svc] traps (native comparison code); both funnel into the same
    Unix-like handlers: open/read/write/close/pipe/fork/wait/mmap/
    yield, plus the optimized direct [yield_to] IPC. *)

open Lfi_emulator

type config = {
  uarch : Cost_model.t;
  quantum : int;  (** preemption quantum, in instructions *)
  verify : bool;  (** verify ELF text segments before loading *)
  verifier_config : Lfi_verifier.Verifier.config;
  allowed_prefixes : string list;  (** VFS access control; [] = all *)
  echo_stdout : bool;  (** copy sandbox stdout to the host's stdout *)
  spectre_hardening : bool;
      (** §7.1: assign each sandbox and the runtime distinct software
          context numbers (SCXTNUM_EL0) so that branch-predictor state
          is not shared; modeled as a system-register write on every
          runtime entry/exit and on every context switch *)
  insn_budget : int;
      (** instructions a process may retire before it is killed
          ({!slice}); in a library call, the instructions of the call *)
}

(** Every process's stack, below the top guard region. *)
let stack_size = 1 lsl 21

let default_config =
  {
    uarch = Cost_model.m1;
    quantum = 100_000;
    verify = true;
    verifier_config = Lfi_verifier.Verifier.default_config;
    allowed_prefixes = [];
    echo_stdout = false;
    spectre_hardening = false;
    insn_budget = 200_000_000 (* 8x the longest experiment run, 25.4M *);
  }

type exit_reason =
  | Exited of int
  | Killed of string  (** fault description *)

type t = {
  cfg : config;
  mem : Memory.t;
  machine : Machine.t;
  vfs : Vfs.t;
  procs : (int, Proc.t) Hashtbl.t;
  runq : Lfi_sched.Runq.t;
      (** pids awaiting the scheduler, on the shared run-queue
          abstraction ({!Lfi_sched.Runq}) the pool layer also runs on *)
  mutable next_pid : int;
  mutable next_slot : int;
  mutable free_slots : int list;
  mutable native_loaded : bool;
  mutable ctx_switches : int;
  mutable rtcalls : int;
  mutable preemptions : int;
  mutable exit_log : (int * exit_reason) list;
  mutable trace : Lfi_telemetry.Trace.t option;
      (** runtime event trace, timestamped in simulated cycles; [None]
          (the default) emits nothing *)
  mutable call_hist : Lfi_telemetry.Histogram.t array option;
      (** per-runtime-call latency histograms, indexed by sysno *)
  mutable postmortems : (int * Lfi_telemetry.Postmortem.t) list;
      (** crash reports of killed sandboxes, most recent first *)
  mutable clamps_reaped : int;
      (** guard-clamp counts of processes already removed from the
          table, so {!total_clamps} survives reaping *)
}

let create ?(config = default_config) () =
  let mem = Memory.create () in
  {
    cfg = config;
    mem;
    machine = Machine.create ~uarch:config.uarch mem;
    vfs = Vfs.create ~allowed_prefixes:config.allowed_prefixes ();
    procs = Hashtbl.create 64;
    runq = Lfi_sched.Runq.create ();
    next_pid = 1;
    next_slot = 1 (* slot 0 is reserved for native processes *);
    free_slots = [];
    native_loaded = false;
    ctx_switches = 0;
    rtcalls = 0;
    preemptions = 0;
    exit_log = [];
    trace = None;
    call_hist = None;
    postmortems = [];
    clamps_reaped = 0;
  }

let cycles rt = Machine.cycles rt.machine
let insns rt = rt.machine.Machine.insns
let stdout_of p = Buffer.contents p.Proc.stdout

(* ------------------------------------------------------------------ *)
(* Telemetry                                                           *)
(* ------------------------------------------------------------------ *)

(* All sandboxes share one emulated address space, so the trace uses a
   single Chrome "process" with one thread track per sandbox pid. *)
let trace_pid = 1

(** Turn on emulator metric counters (and per-call latency histograms).
    Idempotent; returns the live counter record. *)
let enable_metrics rt : Lfi_telemetry.Metrics.emu =
  (match rt.call_hist with
  | Some _ -> ()
  | None ->
      rt.call_hist <-
        Some (Array.init Sysno.count (fun _ -> Lfi_telemetry.Histogram.create ())));
  match rt.machine.Machine.metrics with
  | Some e -> e
  | None ->
      let e = Lfi_telemetry.Metrics.create_emu () in
      rt.machine.Machine.metrics <- Some e;
      e

(** Current counters, with the memory-system (translation cache, TLB)
    counters folded in.  The emulator counters are all zero unless
    {!enable_metrics} was called before running. *)
let metrics_snapshot rt : Lfi_telemetry.Metrics.snapshot =
  let emu =
    match rt.machine.Machine.metrics with
    | Some e -> e
    | None -> Lfi_telemetry.Metrics.create_emu ()
  in
  let tlb = rt.machine.Machine.tlb in
  {
    Lfi_telemetry.Metrics.emu;
    tc_hits = rt.mem.Memory.tc_hits;
    tc_misses = rt.mem.Memory.tc_misses;
    tlb_hits = tlb.Tlb.hits;
    tlb_misses = tlb.Tlb.misses;
    blk_execs = rt.machine.Machine.blk_execs;
    blk_builds = rt.machine.Machine.blk_builds;
    blk_insns = rt.machine.Machine.blk_insns;
    blk_deopts = rt.machine.Machine.blk_deopts;
  }

(** Turn on runtime-call / scheduler tracing.  Idempotent. *)
let enable_trace rt : Lfi_telemetry.Trace.t =
  match rt.trace with
  | Some t -> t
  | None ->
      let t = Lfi_telemetry.Trace.create () in
      Lfi_telemetry.Trace.process_name t ~pid:trace_pid ~name:"lfi-runtime";
      rt.trace <- Some t;
      t

(** Turn on pc sampling (every [period] instructions, rounded to a
    power of two).  Idempotent; the period of the first call wins. *)
let enable_profile ?period rt : Lfi_telemetry.Profile.t =
  match rt.machine.Machine.profile with
  | None ->
      let p = Lfi_telemetry.Profile.create ?period () in
      rt.machine.Machine.profile <- Some p;
      p
  | Some p -> p

(** Arm per-rewrite-site cycle attribution for sandbox [p], using the
    [.lfi_sites] table its image carried ([Proc.sites], rebased to the
    slot).  Returns [None] when the image has no site table.
    Idempotent; the machine holds one accumulator, so attribute one
    sandbox per runtime (exactly what [lfi_run --overhead] does). *)
let enable_overhead rt (p : Proc.t) : Lfi_telemetry.Overhead.acc option =
  match rt.machine.Machine.overhead with
  | Some a -> Some a
  | None ->
      if p.Proc.sites = [] then None
      else begin
        let a =
          Lfi_telemetry.Overhead.create
            ~base:(Int64.to_int p.Proc.base)
            p.Proc.sites
        in
        rt.machine.Machine.overhead <- Some a;
        Some a
      end

let overhead_acc rt = rt.machine.Machine.overhead

(* ------------------------------------------------------------------ *)
(* Address-space management                                            *)
(* ------------------------------------------------------------------ *)

let page = Memory.page_size
let pages_per_slot = Lfi_core.Layout.sandbox_size / page

let align_down v = v / page * page
let align_up v = (v + page - 1) / page * page

exception Load_error of string

let map_range mem (base : int64) ~(off : int) ~(len : int) ~perm =
  let lo = align_down off and hi = align_up (off + len) in
  Memory.map mem
    ~addr:(Int64.add base (Int64.of_int lo))
    ~len:(hi - lo) ~perm

(** Build the read-only runtime-call table in the slot's first page.
    Entries hold host entry addresses; unused entries point into the
    (unmapped) guard region so a stray call traps. *)
let install_rtcall_table mem (base : int64) =
  map_range mem base ~off:0 ~len:Lfi_core.Layout.rtcall_table_size
    ~perm:Memory.perm_rw;
  let guard_trap = Int64.add base (Int64.of_int Lfi_core.Layout.rtcall_table_size) in
  for k = 0 to Lfi_core.Layout.rtcall_entry_count - 1 do
    let value =
      if k >= 1 && k < Sysno.count then
        Int64.add Machine.host_region_start (Int64.of_int (8 * k))
      else guard_trap
    in
    Memory.write mem
      (Int64.add base (Int64.of_int (Lfi_core.Layout.rtcall_entry_offset k)))
      8 value
  done;
  Memory.protect mem ~addr:base ~len:Lfi_core.Layout.rtcall_table_size
    ~perm:Memory.perm_r

(** Map [elf]'s segments into the slot at [base] — memsz mapped, filesz
    copied, executable segments then made read+execute (W^X) — and the
    {!stack_size} stack below the top guard region.  Returns the slot
    offset where the highest segment ends (the initial heap break). *)
let map_image mem (base : int64) (elf : Lfi_elf.Elf.t) : int =
  let data_end = ref Lfi_core.Layout.code_origin in
  List.iter
    (fun (s : Lfi_elf.Elf.segment) ->
      let len = s.Lfi_elf.Elf.memsz in
      if s.vaddr < Lfi_core.Layout.code_origin then
        raise (Load_error "segment below code origin");
      if s.flags land Lfi_elf.Elf.pf_x <> 0
         && s.vaddr + len > Lfi_core.Layout.code_limit
      then raise (Load_error "executable segment in the top 128MiB");
      map_range mem base ~off:s.vaddr ~len ~perm:Memory.perm_rw;
      Memory.write_bytes mem (Int64.add base (Int64.of_int s.vaddr)) s.data;
      if s.flags land Lfi_elf.Elf.pf_x <> 0 then
        Memory.protect mem
          ~addr:(Int64.add base (Int64.of_int (align_down s.vaddr)))
          ~len:(align_up (s.vaddr + len) - align_down s.vaddr)
          ~perm:Memory.perm_rx;
      data_end := max !data_end (s.vaddr + len))
    elf.Lfi_elf.Elf.segments;
  map_range mem base
    ~off:(Lfi_core.Layout.stack_top - stack_size)
    ~len:stack_size ~perm:Memory.perm_rw;
  !data_end

(** The mapped pages of the slot at [base], ascending by page index:
    what fork copies, reaping unmaps, postmortems describe and libbox
    baselines capture. *)
let slot_pages mem (base : int64) : (int * Memory.page) list =
  let first = Memory.page_index base in
  let acc = ref [] in
  Memory.iter_pages mem (fun idx pg ->
      if idx >= first && idx < first + pages_per_slot then
        acc := (idx, pg) :: !acc);
  List.sort (fun (a, _) (b, _) -> compare a b) !acc

(* the last slot below the host region, where every pc is a runtime entry *)
let last_slot =
  Int64.to_int Machine.host_region_start / Lfi_core.Layout.sandbox_size - 1

let alloc_slot rt : int option =
  match rt.free_slots with
  | s :: tl ->
      rt.free_slots <- tl;
      Some s
  | [] when rt.next_slot > last_slot -> None
  | [] ->
      let s = rt.next_slot in
      rt.next_slot <- s + 1;
      Some s

(* ------------------------------------------------------------------ *)
(* Loading                                                             *)
(* ------------------------------------------------------------------ *)

(** Rebase a slot-anchored value into [base]'s slot by replacing its
    top 32 bits — valid because sandbox pointers are 32-bit offsets
    (§5.3; exactly what the hardware guard would do). *)
let rebase (base : int64) (v : int64) =
  Int64.logor base (Int64.logand v 0xFFFFFFFFL)

(** The registers the rewriter reserves as slot anchors (x18 scratch,
    x21 call-table base, x23/x24 guard bases) plus the link register:
    every snapshot installed on the machine must keep these inside the
    owning slot. *)
let reserved_regs = [ 18; 21; 23; 24; 30 ]

let rec anchor_regs (base : int64) (f : Machine.snapshot) = function
  | [] -> ()
  | n :: tl ->
      Machine.set_x f n (rebase base (Machine.x f n));
      anchor_regs base f tl

(** Anchor register file [f] to [base], in place: the reserved
    registers, pc and sp get their top bits replaced with the slot
    base, everything else is left as it is (stray values heal through
    the address guards).  [f] is a snapshot or the machine's live file
    — they share one layout.  The one place anchoring happens: fork's
    child state here, program and library-call entry through
    {!entry_snapshot}. *)
let anchor_snapshot (base : int64) (f : Machine.snapshot) =
  anchor_regs base f reserved_regs;
  Machine.set_pc f (rebase base (Machine.pc f));
  Machine.set_sp f (rebase base (Machine.sp f))

(** Write the register state at a sandbox entry into [f], in place:
    pc at [pc], x30 at [link], sp at the stack top, all anchored to
    [base].  [f] must hold zeros but for the arguments in x0..
    ({!Machine.empty_snapshot} or the live file after {!Machine.clear},
    then the arguments), so an entry is a handful of stores.  A
    program starts with its entry as link; a library call links to the
    return trampoline and writes straight into the machine, allocating
    nothing. *)
let entry_snapshot (f : Machine.snapshot) (base : int64) ~(pc : int)
    ~(link : int) =
  Machine.set_x f 30 (Int64.of_int link);
  Machine.set_pc f (Int64.of_int pc);
  Machine.set_sp f (Int64.of_int Lfi_core.Layout.stack_top);
  anchor_snapshot base f

(** Create a runnable process in [slot] and queue it — the one place a
    process is built, for load and fork alike.  A forked child
    inherits [parent]'s descriptor table; any other process starts
    with the standard descriptors. *)
let spawn rt ~(parent : Proc.t option) ~slot ~base ~personality ~snapshot
    ~heap_end ~symbols ~sites : Proc.t =
  let pid = rt.next_pid in
  rt.next_pid <- pid + 1;
  let p =
    {
      Proc.pid;
      slot;
      base;
      personality;
      state = Proc.Runnable;
      snapshot;
      fds = Itbl.create 8;
      next_fd = 3;
      heap_end;
      parent = Option.map (fun (q : Proc.t) -> q.Proc.pid) parent;
      children = [];
      stdout = Buffer.create 256;
      user_insns = 0;
      rtcalls = 0;
      symbols;
      sites;
      flight = Lfi_telemetry.Flight.create ();
    }
  in
  (match parent with
  | None -> Proc.install_std_fds p
  | Some q ->
      Proc.dup_fds q p;
      q.Proc.children <- pid :: q.Proc.children);
  Hashtbl.replace rt.procs pid p;
  Lfi_sched.Runq.push rt.runq pid;
  (match rt.trace with
  | None -> ()
  | Some t ->
      Lfi_telemetry.Trace.thread_name t ~pid:trace_pid ~tid:pid
        ~name:
          (Printf.sprintf "sandbox %d (%s)" pid
             (Proc.personality_name personality)));
  p

(** Load an ELF image into a fresh slot and create the process.
    Sandboxed programs ([`Lfi]) are statically verified first; native
    personalities run unsandboxed in slot 0 (base address 0), where
    sandbox-relative and absolute addresses coincide. *)
let load rt ?(arg = 0L) ~(personality : Proc.personality)
    (elf : Lfi_elf.Elf.t) : Proc.t =
  let native = personality <> Proc.Lfi in
  if native && rt.native_loaded then
    raise (Load_error "only one native process is supported (slot 0)");
  (* Verification: the trust boundary of the whole system. *)
  if rt.cfg.verify && not native then begin
    match
      Lfi_verifier.Verifier.verify_elf ~config:rt.cfg.verifier_config elf
    with
    | Ok _ -> ()
    | Error e ->
        raise (Load_error (Lfi_verifier.Verifier.elf_error_message e))
  end;
  let slot =
    match if native then Some 0 else alloc_slot rt with
    | Some s -> s
    | None -> raise (Load_error "slot table full")
  in
  let base = Lfi_core.Layout.slot_base slot in
  if not native then install_rtcall_table rt.mem base;
  let data_end = map_image rt.mem base elf in
  if native then rt.native_loaded <- true;
  let snapshot = Machine.empty_snapshot () in
  Machine.set_x snapshot 0 arg;
  let entry = elf.Lfi_elf.Elf.entry in
  entry_snapshot snapshot base ~pc:entry ~link:entry;
  spawn rt ~parent:None ~slot ~base ~personality ~snapshot
    ~heap_end:(Int64.add base (Int64.of_int (align_up data_end)))
    ~symbols:(Lfi_telemetry.Profile.sym_table elf.Lfi_elf.Elf.symbols)
    ~sites:elf.Lfi_elf.Elf.sites

(** Arm the emulator's escape oracle for [p]'s slot: data accesses may
    spill into the adjacent guard regions (that is what they are for —
    reserved-base immediates, sp drift and pre/post-index offsets are
    all bounded well below the 48KiB guards), taken branches must stay
    inside the slot proper or land on a runtime-call entry.  One oracle
    per machine: the fuzzers run one process per runtime. *)
let install_oracle rt (p : Proc.t) : Machine.oracle =
  let sandbox = Int64.of_int Lfi_core.Layout.sandbox_size in
  let guard = Int64.of_int Lfi_core.Layout.guard_size in
  let base = p.Proc.base in
  let o =
    Machine.oracle
      ~lo:(Int64.sub base guard)
      ~hi:(Int64.add base (Int64.add sandbox guard))
      ~branch_lo:base
      ~branch_hi:(Int64.add base sandbox)
      ~host_lo:Machine.host_region_start
      ~host_hi:
        (Int64.add Machine.host_region_start (Int64.of_int (8 * Sysno.count)))
  in
  rt.machine.Machine.escape_oracle <- Some o;
  o

(* ------------------------------------------------------------------ *)
(* Runtime-call helpers                                                *)
(* ------------------------------------------------------------------ *)

(** Reconstruct a sandbox pointer from a (possibly garbage) 64-bit
    value: the top 32 bits are replaced with the sandbox base, exactly
    as the hardware guard would (§5.3 — this is what makes fork in a
    single address space work). *)
let uaddr (p : Proc.t) (v : int64) : int64 =
  match p.Proc.personality with
  | Proc.Lfi -> Int64.logor p.Proc.base (Int64.logand v 0xFFFFFFFFL)
  | _ -> v

(* A copyin/copyout that faults is the sandbox handing the runtime a
   bad pointer: that is EFAULT, not EINVAL (which is reserved for
   malformed arguments, e.g. an over-long path below). *)
let read_user_bytes rt p (addr : int64) (len : int) : (bytes, int) result =
  try Ok (Memory.read_bytes rt.mem (uaddr p addr) len)
  with Memory.Fault _ -> Error Vfs.efault

let write_user_bytes rt p (addr : int64) (b : bytes) : (unit, int) result =
  try
    Memory.write_bytes rt.mem (uaddr p addr) b;
    Ok ()
  with Memory.Fault _ -> Error Vfs.efault

let read_user_string rt p (addr : int64) : (string, int) result =
  let addr = uaddr p addr in
  let buf = Buffer.create 32 in
  let rec go i =
    if i > 4096 then Error Vfs.einval
    else
      let c = Memory.read rt.mem (Int64.add addr (Int64.of_int i)) 1 in
      if Int64.equal c 0L then Ok (Buffer.contents buf)
      else begin
        Buffer.add_char buf (Char.chr (Int64.to_int c));
        go (i + 1)
      end
  in
  try go 0 with Memory.Fault _ -> Error Vfs.efault

let syscall_entry_cost rt (p : Proc.t) =
  let u = rt.cfg.uarch in
  match p.Proc.personality with
  | Proc.Lfi | Proc.Native_in_lfi_runtime ->
      u.Cost_model.lfi_runtime_call_entry
  | Proc.Native_linux -> u.Cost_model.linux_syscall
  | Proc.Native_gvisor -> u.Cost_model.gvisor_syscall

(** Cost charged when the scheduler switches between processes.  For
    LFI this is just the runtime's bookkeeping — the register swap is a
    snapshot copy with no hardware mode or page-table switch, which is
    the whole point (§6.4).  The hardware-protection personalities pay
    their modeled context-switch cost. *)
let lfi_sched_bookkeeping = 8.0

let switch_cost rt (p : Proc.t) =
  let u = rt.cfg.uarch in
  match p.Proc.personality with
  | Proc.Lfi | Proc.Native_in_lfi_runtime -> lfi_sched_bookkeeping
  | Proc.Native_linux -> u.Cost_model.linux_pipe_roundtrip /. 3.0
  | Proc.Native_gvisor -> u.Cost_model.gvisor_pipe_roundtrip /. 3.0

(* ------------------------------------------------------------------ *)
(* Fork (§5.3)                                                         *)
(* ------------------------------------------------------------------ *)

let do_fork rt (parent : Proc.t) : int =
  if parent.Proc.personality <> Proc.Lfi then Vfs.einval
  else begin match alloc_slot rt with
  | None -> Vfs.eagain
  | Some slot ->
    let base = Lfi_core.Layout.slot_base slot in
    install_rtcall_table rt.mem base;
    (* Copy every mapped page of the parent slot (eager copy; the paper
       also describes copy-on-write via memfd, which we do not model). *)
    let parent_first = Memory.page_index parent.Proc.base in
    List.iter
      (fun (idx, pg) ->
        if idx > parent_first (* skip the call table page; freshly built *)
        then begin
          let off = (idx - parent_first) * page in
          let child_addr = Int64.add base (Int64.of_int off) in
          Memory.map rt.mem ~addr:child_addr ~len:page ~perm:Memory.perm_rw;
          let child_idx = Memory.page_index child_addr in
          let cp = Memory.page_at rt.mem child_idx in
          Bytes.blit (Memory.page_data pg) 0 (Memory.page_data cp) 0 page;
          Memory.set_page_perm rt.mem child_idx (Memory.page_perm pg)
        end)
      (slot_pages rt.mem parent.Proc.base);
    (* Child registers: parent's current state anchored to the child
       slot; everything non-reserved heals via guards. *)
    let snap = Machine.snapshot rt.machine in
    Machine.set_x snap 0 0L (* fork returns 0 in the child *);
    anchor_snapshot base snap;
    let child =
      spawn rt ~parent:(Some parent) ~slot ~base ~personality:Proc.Lfi
        ~snapshot:snap
        ~heap_end:(rebase base parent.Proc.heap_end)
        ~symbols:parent.Proc.symbols ~sites:parent.Proc.sites
    in
    let pid = child.Proc.pid in
    (match rt.trace with
    | None -> ()
    | Some t ->
        Lfi_telemetry.Trace.instant t ~name:"fork" ~cat:"proc"
          ~ts:(Machine.cycles rt.machine) ~pid:trace_pid
          ~tid:parent.Proc.pid
          ~args:[ ("child", Lfi_telemetry.Trace.Int pid) ]);
    pid
  end

(* ------------------------------------------------------------------ *)
(* Blocking-call completion                                            *)
(* ------------------------------------------------------------------ *)

(** Reap one zombie child of [p], if any: returns [(pid, code)]. *)
let find_zombie_child rt (p : Proc.t) : (int * int) option =
  List.find_map
    (fun cpid ->
      match Hashtbl.find_opt rt.procs cpid with
      | Some { Proc.state = Proc.Zombie code; _ } -> Some (cpid, code)
      | _ -> None)
    p.Proc.children

let release_slot rt (child : Proc.t) =
  (* unmap the whole slot and recycle it *)
  List.iter
    (fun (idx, _) ->
      Memory.unmap rt.mem
        ~addr:(Int64.shift_left (Int64.of_int idx) Memory.page_bits)
        ~len:page)
    (slot_pages rt.mem child.Proc.base);
  if child.Proc.slot <> 0 then
    rt.free_slots <- child.Proc.slot :: rt.free_slots;
  (* the clamp audit outlives the process table entry *)
  rt.clamps_reaped <-
    rt.clamps_reaped + Lfi_telemetry.Flight.clamps child.Proc.flight

let reap rt (parent : Proc.t) (cpid : int) (code : int)
    ~(status_addr : int64) ~(set_result : int64 -> unit) =
  (match Hashtbl.find_opt rt.procs cpid with
  | Some child -> release_slot rt child
  | None -> ());
  Hashtbl.remove rt.procs cpid;
  parent.Proc.children <-
    List.filter (fun c -> c <> cpid) parent.Proc.children;
  if not (Int64.equal status_addr 0L) then
    ignore
      (write_user_bytes rt parent status_addr
         (let b = Bytes.create 4 in
          Bytes.set_int32_le b 0 (Int32.of_int code);
          b));
  set_result (Int64.of_int cpid)

(** A pipe read of up to [len] bytes into [addr], or a write of [len]
    bytes from [addr]: [Some] the call's result (a byte count or an
    error code) when it completes now, [None] when it would block.  A
    call and a wake-up of a process blocked on it complete alike. *)
let pipe_read rt p pipe addr len =
  match Vfs.pipe_read pipe len with
  | `Data b -> (
      match write_user_bytes rt p addr b with
      | Ok () -> Some (Bytes.length b)
      | Error e -> Some e)
  | `Eof -> Some 0
  | `Would_block -> None

let pipe_write rt p pipe addr len =
  match read_user_bytes rt p addr len with
  | Error e -> Some e
  | Ok b -> (
      match Vfs.pipe_write pipe b with
      | `Wrote n -> Some n
      | `Broken -> Some Vfs.epipe
      | `Would_block -> None)

(* a blocked call's result, if it has one, and the process runs again *)
let complete (p : Proc.t) = function
  | Some r ->
      Machine.set_x p.Proc.snapshot 0 (Int64.of_int r);
      p.Proc.state <- Proc.Runnable
  | None -> ()

(** Try to complete a blocked process's pending operation. *)
let try_wake rt (p : Proc.t) =
  let set_result v = Machine.set_x p.Proc.snapshot 0 v in
  match p.Proc.state with
  | Proc.Blocked (Proc.On_read { fd; addr; len }) -> (
      match Proc.fd p fd with
      | Some (Vfs.Pipe_read pipe) -> complete p (pipe_read rt p pipe addr len)
      | _ -> complete p (Some Vfs.ebadf))
  | Proc.Blocked (Proc.On_write { fd; addr; len }) -> (
      match Proc.fd p fd with
      | Some (Vfs.Pipe_write pipe) -> complete p (pipe_write rt p pipe addr len)
      | _ -> complete p (Some Vfs.ebadf))
  | Proc.Blocked (Proc.On_wait { status_addr }) -> (
      match find_zombie_child rt p with
      | Some (cpid, code) ->
          reap rt p cpid code ~status_addr ~set_result;
          p.Proc.state <- Proc.Runnable
      | None -> ())
  | Proc.Runnable | Proc.Zombie _ -> ()

(* ------------------------------------------------------------------ *)
(* Runtime call dispatch                                               *)
(* ------------------------------------------------------------------ *)

(** How a process's turn on the machine ended.  {!handle_call} yields
    the first three; {!slice} adds the last two. *)
type outcome =
  | Continue  (** a runtime call returned; the process runs on *)
  | Switch  (** it blocked or yielded *)
  | Died of exit_reason  (** it exited, or was killed *)
  | Preempted  (** its quantum ran out *)
  | Returned  (** a library call's trampoline reached [box_ret] *)

let do_exit rt (p : Proc.t) (code : int) : outcome =
  Proc.close_all p;
  p.Proc.state <- Proc.Zombie code;
  rt.exit_log <- (p.Proc.pid, Exited code) :: rt.exit_log;
  Died (Exited code)

(* The heap's upper bound, the bottom of the stack: [mmap] and [brk]
   fail with ENOMEM past it, so neither maps the stack or the top guard
   region. *)
let heap_limit (p : Proc.t) =
  Int64.add p.Proc.base (Int64.of_int (Lfi_core.Layout.stack_top - stack_size))

let handle_call rt (p : Proc.t) (k : int) : outcome =
  let m = rt.machine in
  let arg n = Machine.x m.Machine.regs n in
  let ret v =
    Machine.set_x m.Machine.regs 0 v;
    Continue
  in
  let reti v = ret (Int64.of_int v) in
  rt.rtcalls <- rt.rtcalls + 1;
  p.Proc.rtcalls <- p.Proc.rtcalls + 1;
  if rt.cfg.spectre_hardening then
    (* SCXTNUM_EL0 is rewritten when entering and when leaving the
       runtime (§7.1) *)
    Machine.add_cycles m (2.0 *. rt.cfg.uarch.Cost_model.scxtnum_switch);
  (* the optimized direct yield skips the general runtime-call
     entry/exit path: it only saves/restores callee-saved registers
     (§5.3) and is priced in its own handler *)
  if k <> Sysno.yield_to then
    Machine.add_cycles m (syscall_entry_cost rt p);
  if k = Sysno.exit then do_exit rt p (Int64.to_int (arg 0))
  else if k = Sysno.write then begin
    let fd = Int64.to_int (arg 0) and addr = arg 1
    and len = min (Int64.to_int (arg 2)) (1 lsl 20) in
    if len < 0 then reti Vfs.einval
    else
      match Proc.fd p fd with
      | Some Vfs.Console_out -> (
          match read_user_bytes rt p addr len with
          | Error e -> reti e
          | Ok b ->
              Buffer.add_bytes p.Proc.stdout b;
              if rt.cfg.echo_stdout then print_string (Bytes.to_string b);
              reti len)
      | Some (Vfs.File f) when f.writable -> (
          match read_user_bytes rt p addr len with
          | Error e -> reti e
          | Ok b ->
              Vfs.file_write f.file ~pos:f.pos b;
              f.pos <- f.pos + len;
              reti len)
      | Some (Vfs.Pipe_write pipe) -> (
          match pipe_write rt p pipe addr len with
          | Some r -> reti r
          | None ->
              p.Proc.state <- Proc.Blocked (Proc.On_write { fd; addr; len });
              Switch)
      | Some _ | None -> reti Vfs.ebadf
  end
  else if k = Sysno.read then begin
    let fd = Int64.to_int (arg 0) and addr = arg 1
    and len = min (Int64.to_int (arg 2)) (1 lsl 20) in
    if len < 0 then reti Vfs.einval
    else
      match Proc.fd p fd with
      | Some Vfs.Console_in -> reti 0
      | Some (Vfs.File f) ->
          let b = Vfs.file_read f.file ~pos:f.pos ~len in
          (match write_user_bytes rt p addr b with
          | Error e -> reti e
          | Ok () ->
              f.pos <- f.pos + Bytes.length b;
              reti (Bytes.length b))
      | Some (Vfs.Pipe_read pipe) -> (
          match pipe_read rt p pipe addr len with
          | Some r -> reti r
          | None ->
              p.Proc.state <- Proc.Blocked (Proc.On_read { fd; addr; len });
              Switch)
      | Some _ | None -> reti Vfs.ebadf
  end
  else if k = Sysno.openat then begin
    match read_user_string rt p (arg 0) with
    | Error e -> reti e
    | Ok path -> (
        let writable = not (Int64.equal (arg 1) 0L) in
        match Vfs.open_file rt.vfs ~path ~writable with
        | Ok obj -> reti (Proc.alloc_fd p obj)
        | Error e -> reti e)
  end
  else if k = Sysno.close then reti (Proc.close_fd p (Int64.to_int (arg 0)))
  else if k = Sysno.pipe then begin
    let pipe = Vfs.make_pipe () in
    let fd_r = Proc.alloc_fd p (Vfs.Pipe_read pipe) in
    let fd_w = Proc.alloc_fd p (Vfs.Pipe_write pipe) in
    let b = Bytes.create 8 in
    Bytes.set_int32_le b 0 (Int32.of_int fd_r);
    Bytes.set_int32_le b 4 (Int32.of_int fd_w);
    match write_user_bytes rt p (arg 0) b with
    | Error e -> reti e
    | Ok () -> reti 0
  end
  else if k = Sysno.fork then reti (do_fork rt p)
  else if k = Sysno.wait then begin
    let status_addr = arg 0 in
    match find_zombie_child rt p with
    | Some (cpid, code) ->
        reap rt p cpid code ~status_addr ~set_result:(fun v ->
            Machine.set_x m.Machine.regs 0 v);
        Continue
    | None ->
        if p.Proc.children = [] then reti (-10 (* ECHILD *))
        else begin
          p.Proc.state <- Proc.Blocked (Proc.On_wait { status_addr });
          Switch
        end
  end
  else if k = Sysno.yield then begin
    ignore (ret 0L);
    Switch
  end
  else if k = Sysno.getpid then reti p.Proc.pid
  else if k = Sysno.mmap then begin
    let len = align_up (Int64.to_int (arg 0)) in
    if len <= 0 || len > 1 lsl 30 then reti Vfs.einval
    else begin
      let addr = p.Proc.heap_end in
      if Int64.compare (Int64.add addr (Int64.of_int len)) (heap_limit p) > 0
      then reti (-12 (* ENOMEM *))
      else begin
        Memory.map rt.mem ~addr ~len ~perm:Memory.perm_rw;
        p.Proc.heap_end <- Int64.add addr (Int64.of_int len);
        ret addr
      end
    end
  end
  else if k = Sysno.munmap then begin
    let addr = uaddr p (arg 0) and len = align_up (Int64.to_int (arg 1)) in
    let off = Int64.to_int (Int64.sub addr p.Proc.base) in
    if off < Lfi_core.Layout.code_origin || len <= 0 then reti Vfs.einval
    else begin
      (try Memory.unmap rt.mem ~addr:(Int64.of_int (align_down (Int64.to_int addr))) ~len
       with Invalid_argument _ -> ());
      reti 0
    end
  end
  else if k = Sysno.brk then begin
    let want = arg 0 in
    if Int64.equal want 0L then ret (Int64.sub p.Proc.heap_end p.Proc.base)
    else begin
      let new_end = uaddr p want in
      if Int64.compare new_end (heap_limit p) > 0 then reti (-12 (* ENOMEM *))
      else begin
        if Int64.compare new_end p.Proc.heap_end > 0 then begin
          let len =
            align_up (Int64.to_int (Int64.sub new_end p.Proc.heap_end))
          in
          Memory.map rt.mem ~addr:p.Proc.heap_end ~len ~perm:Memory.perm_rw;
          p.Proc.heap_end <- Int64.add p.Proc.heap_end (Int64.of_int len)
        end;
        ret (Int64.sub p.Proc.heap_end p.Proc.base)
      end
    end
  end
  else if k = Sysno.yield_to then begin
    let target = Int64.to_int (arg 0) in
    match Hashtbl.find_opt rt.procs target with
    | Some tp when Proc.is_runnable tp && tp.Proc.pid <> p.Proc.pid ->
        ignore (ret 0L);
        (* direct invocation: put the target at the head of the queue *)
        Lfi_sched.Runq.promote rt.runq target;
        Machine.add_cycles m rt.cfg.uarch.Cost_model.lfi_yield_direct;
        Switch
    | _ -> reti Vfs.einval
  end
  else if k = Sysno.cycles then ret (Int64.of_float (Machine.cycles m))
  else reti (-38 (* ENOSYS *))

(* ------------------------------------------------------------------ *)
(* Scheduler                                                           *)
(* ------------------------------------------------------------------ *)

let next_runnable rt : Proc.t option =
  (* poll blocked processes first (the "signals" of our runtime) *)
  Hashtbl.iter (fun _ p -> try_wake rt p) rt.procs;
  Lfi_sched.Runq.select rt.runq
    ~keep:(fun pid -> Hashtbl.mem rt.procs pid)
    ~runnable:(fun pid ->
      match Hashtbl.find_opt rt.procs pid with
      | Some p -> Proc.is_runnable p
      | None -> false)
  |> Option.map (Hashtbl.find rt.procs)

(* ------------------------------------------------------------------ *)
(* Postmortem collection                                               *)
(* ------------------------------------------------------------------ *)

let perm_string (pm : Memory.perm) : string =
  Printf.sprintf "%c%c%c"
    (if pm land Memory.pb_r <> 0 then 'r' else '-')
    (if pm land Memory.pb_w <> 0 then 'w' else '-')
    (if pm land Memory.pb_x <> 0 then 'x' else '-')

(** Frame-pointer backtrace, symbolized through the process's ELF
    [.symtab].  MiniC prologues keep the AArch64 frame chain
    ([stp x29, x30, \[sp\]; add x29, sp, #0]), so [\[x29\]] is the
    caller's frame pointer and [\[x29+8\]] the return address.  Frame
    pointers are clamped with {!uaddr} exactly like the hardware guard
    would, and the walk stops at the initial zero frame, at unmapped
    memory, or after 32 frames. *)
let backtrace rt (p : Proc.t) ~(pc : int64) ~(fp : int64) :
    Lfi_telemetry.Postmortem.frame list =
  let frame (a : int64) : Lfi_telemetry.Postmortem.frame =
    let off = Int64.to_int (Int64.sub a p.Proc.base) in
    match Lfi_telemetry.Profile.resolve_sym p.Proc.symbols off with
    | Some (name, d) ->
        { Lfi_telemetry.Postmortem.fr_pc = a; fr_sym = Some name; fr_off = d }
    | None ->
        { Lfi_telemetry.Postmortem.fr_pc = a; fr_sym = None; fr_off = off }
  in
  let rec walk acc (fp : int64) depth =
    if depth >= 32 then acc
    else
      let fp = uaddr p fp in
      let off = Int64.to_int (Int64.logand fp 0xFFFFFFFFL) in
      if off < Lfi_core.Layout.code_origin || off land 7 <> 0 then acc
      else
        match
          (Memory.read rt.mem fp 8, Memory.read rt.mem (Int64.add fp 8L) 8)
        with
        | prev, ret ->
            let ret = uaddr p ret in
            if Int64.equal (Int64.logand ret 0xFFFFFFFFL) 0L then acc
            else walk (frame ret :: acc) prev (depth + 1)
        | exception Memory.Fault _ -> acc
  in
  frame pc :: List.rev (walk [] fp 0)

(** Disassemble the ±4 instructions around [pc] (the verifier's
    [pp_violation] context style; the faulting line is marked). *)
let disasm_context rt (p : Proc.t) (pc : int64) :
    Lfi_telemetry.Postmortem.disasm_line list =
  List.filter_map
    (fun k ->
      let a = Int64.add pc (Int64.of_int (4 * k)) in
      if Int64.compare a p.Proc.base < 0 then None
      else
        match Memory.read rt.mem a 4 with
        | w ->
            let word = Int64.to_int w in
            let text =
              match Lfi_arm64.Isa.decode word with
              | i -> Lfi_arm64.Printer.to_string i
              | exception _ -> Printf.sprintf ".word 0x%08x" word
            in
            Some
              {
                Lfi_telemetry.Postmortem.dl_pc = a;
                dl_word = word;
                dl_text = text;
                dl_current = k = 0;
              }
        | exception Memory.Fault _ -> None)
    [ -4; -3; -2; -1; 0; 1; 2; 3; 4 ]

(** Four 16-byte hexdump rows around [addr]; unreadable bytes are
    [None] (rendered [??]). *)
let hexdump_around rt (addr : int64) : Lfi_telemetry.Postmortem.hex_row list =
  let start = Int64.sub (Int64.logand addr (Int64.lognot 15L)) 16L in
  let start = if Int64.compare start 0L < 0 then 0L else start in
  List.init 4 (fun r ->
      let row_addr = Int64.add start (Int64.of_int (16 * r)) in
      let bytes =
        Array.init 16 (fun i ->
            let a = Int64.add row_addr (Int64.of_int i) in
            match Memory.read rt.mem a 1 with
            | v -> Some (Int64.to_int v)
            | exception Memory.Fault _ -> None)
      in
      { Lfi_telemetry.Postmortem.hr_addr = row_addr; hr_bytes = bytes })

(** Permissions of the fault page and its two neighbours on each side
    (clipped to the sandbox slot). *)
let fault_pages rt (p : Proc.t) (addr : int64) :
    Lfi_telemetry.Postmortem.page_info list =
  let idx = Memory.page_index addr in
  let lo_idx = Memory.page_index p.Proc.base in
  let hi_idx = lo_idx + pages_per_slot in
  List.filter_map
    (fun d ->
      let i = idx + d in
      if i < 0 || (p.Proc.personality = Proc.Lfi && (i < lo_idx || i >= hi_idx))
      then None
      else
        let pg_addr = Int64.shift_left (Int64.of_int i) Memory.page_bits in
        let pg_perm =
          match Memory.page_at rt.mem i with
          | pg -> perm_string (Memory.page_perm pg)
          | exception Not_found -> "---"
        in
        Some { Lfi_telemetry.Postmortem.pg_addr; pg_perm })
    [ -2; -1; 0; 1; 2 ]

(** The sandbox's mapped regions, coalesced by permission, with
    heuristic labels from {!Lfi_core.Layout}. *)
let sandbox_layout rt (p : Proc.t) : Lfi_telemetry.Postmortem.region list =
  let first = Memory.page_index p.Proc.base in
  let pages =
    List.map
      (fun (idx, pg) -> (idx, perm_string (Memory.page_perm pg)))
      (slot_pages rt.mem p.Proc.base)
  in
  let addr_of_idx i = Int64.shift_left (Int64.of_int i) Memory.page_bits in
  let label lo_off perm =
    if lo_off = 0 && p.Proc.personality = Proc.Lfi then "rtcall table"
    else if String.contains perm 'x' then "code"
    else if lo_off >= Lfi_core.Layout.stack_top - stack_size then
      "stack"
    else "data/heap"
  in
  let rec coalesce acc = function
    | [] -> List.rev acc
    | (idx, perm) :: rest ->
        let rec extend last = function
          | (j, q) :: tl when j = last + 1 && q = perm -> extend j tl
          | rest -> (last, rest)
        in
        let last, rest = extend idx rest in
        let lo_off = (idx - first) * Memory.page_size in
        let r =
          {
            Lfi_telemetry.Postmortem.rg_lo = addr_of_idx idx;
            rg_hi = addr_of_idx (last + 1);
            rg_perm = perm;
            rg_label = label lo_off perm;
          }
        in
        coalesce (r :: acc) rest
  in
  coalesce [] pages

(** Assemble the crash report for [p] from the machine's current state
    (the register file is still the dead sandbox's: [kill] runs before
    the next context switch).  Stored on the runtime for every killed
    process; also callable directly. *)
let postmortem rt (p : Proc.t) ~(reason : string)
    ?(fault : Memory.fault option) () : Lfi_telemetry.Postmortem.t =
  let m = rt.machine in
  let fl = p.Proc.flight in
  let f = m.Machine.regs in
  let pc = Machine.pc f in
  let flags =
    let nzcv = Machine.nzcv f in
    String.init 4 (fun i ->
        if nzcv land (8 lsr i) <> 0 then "NZCV".[i] else '-')
  in
  let fault_addr =
    match fault with Some f -> Some f.Memory.addr | None -> None
  in
  let fault_access =
    match fault with
    | Some f -> Some (Memory.access_to_string f.Memory.access)
    | None -> None
  in
  {
    Lfi_telemetry.Postmortem.pid = p.Proc.pid;
    personality = Proc.personality_name p.Proc.personality;
    reason;
    base = p.Proc.base;
    insns = p.Proc.user_insns;
    cycles = Machine.cycles m;
    fault_addr;
    fault_access;
    pc;
    sp = Machine.sp f;
    regs = Array.init 31 (Machine.x f);
    flags;
    backtrace = backtrace rt p ~pc ~fp:(Machine.x f 29);
    disasm = disasm_context rt p pc;
    hexdump =
      (match fault_addr with
      | Some a -> hexdump_around rt a
      | None -> []);
    pages =
      (match fault_addr with Some a -> fault_pages rt p a | None -> []);
    layout = sandbox_layout rt p;
    flight_total = Lfi_telemetry.Flight.total fl;
    flight = Lfi_telemetry.Flight.events fl;
    clamps = Lfi_telemetry.Flight.clamps fl;
  }

(** Crash reports of killed sandboxes, most recent first. *)
let postmortems rt = rt.postmortems

(** The report of one killed sandbox, if it was killed. *)
let postmortem_for rt (pid : int) : Lfi_telemetry.Postmortem.t option =
  List.assoc_opt pid rt.postmortems

(** Kill [p]: assemble its crash report while the machine still holds
    its register state, close its descriptors, and record the exit.
    Factored out of the scheduler so libbox can retire a crashed warm
    instance through exactly the fault path ordinary programs take. *)
let kill_proc rt ?(fault : Memory.fault option) (p : Proc.t)
    (reason : string) =
  rt.postmortems <-
    (p.Proc.pid, postmortem rt p ~reason ?fault ()) :: rt.postmortems;
  Proc.close_all p;
  p.Proc.state <- Proc.Zombie (-1);
  rt.exit_log <- (p.Proc.pid, Killed reason) :: rt.exit_log

(** Remove an exited or killed process from the runtime entirely,
    unmapping its slot and recycling it.  Ordinary programs are reaped
    by their parent via [wait]; pool instances have no parent, so
    libbox retires them here. *)
let remove_proc rt (p : Proc.t) =
  release_slot rt p;
  Hashtbl.remove rt.procs p.Proc.pid;
  Lfi_sched.Runq.remove rt.runq p.Proc.pid

(** Guard-clamp audit total across all sandboxes, living and reaped:
    how many times a guarded access would have escaped its sandbox had
    the guard not clamped it.  Zero for all well-behaved programs. *)
let total_clamps rt : int =
  Hashtbl.fold
    (fun _ p acc -> acc + Lfi_telemetry.Flight.clamps p.Proc.flight)
    rt.procs rt.clamps_reaped

(** Serve runtime call [k] for [p], instrumented: flight-recorder
    enter/exit events, a trace slice and the per-call latency
    histogram around {!handle_call}. *)
let serve_call rt (p : Proc.t) (k : int) : outcome =
  let m = rt.machine in
  let t0 = Machine.cycles m in
  (match m.Machine.flight with
  | None -> ()
  | Some f ->
      Lfi_telemetry.Flight.record f Lfi_telemetry.Flight.k_rt_enter
        (Int64.to_int (Machine.pc m.Machine.regs)) k);
  let outcome = handle_call rt p k in
  (match m.Machine.flight with
  | None -> ()
  | Some f ->
      Lfi_telemetry.Flight.record f Lfi_telemetry.Flight.k_rt_exit
        (Int64.to_int (Machine.pc m.Machine.regs)) k);
  let dur = Machine.cycles m -. t0 in
  (match rt.trace with
  | None -> ()
  | Some t ->
      Lfi_telemetry.Trace.complete t ~name:(Sysno.name k) ~cat:"rtcall"
        ~ts:t0 ~dur ~pid:trace_pid ~tid:p.Proc.pid
        ~args:
          [ ("result", Lfi_telemetry.Trace.I64 (Machine.x m.Machine.regs 0)) ]);
  (match rt.call_hist with
  | None -> ()
  | Some hs ->
      if k >= 0 && k < Sysno.count then
        Lfi_telemetry.Histogram.observe hs.(k) dur);
  outcome

let die rt ?fault (p : Proc.t) reason =
  kill_proc rt ?fault p reason;
  Died (Killed reason)

(** Run [p], whose registers are on the machine, for one quantum and
    say how it ended — the one run step, shared by the scheduler and
    libbox's library calls.  [left] is what remains of [p]'s
    instruction budget: the slice runs at most that many, and a slice
    that retires the last of them kills [p], so a run stops at exactly
    its budget.  The instructions retired are credited to [p] before
    anything else happens, a runtime call is served through
    {!serve_call}, and a trap or an entry at no call's address kills
    [p] through {!kill_proc}.  With [~box:true] (inside a library
    call) the [box_ret] entry ends the call with [Returned]; otherwise
    it is an ordinary, unknown runtime call (ENOSYS). *)
let slice ~(box : bool) rt (p : Proc.t) ~(left : int) : outcome =
  let m = rt.machine in
  let i0 = m.Machine.insns in
  let q = rt.cfg.quantum in
  let ev = Exec.run m ~quantum:(if left < q then left else q) in
  p.Proc.user_insns <- p.Proc.user_insns + (m.Machine.insns - i0);
  (* overhead counter track: one sample per quantum keeps the trace
     linear in scheduling events, not instructions *)
  (match (rt.trace, m.Machine.overhead) with
  | Some t, Some a ->
      Lfi_telemetry.Trace.counter t ~name:"sfi-overhead-cycles"
        ~cat:"overhead" ~ts:(Machine.cycles m) ~pid:trace_pid
        ~args:
          [ ( "attributed",
              Lfi_telemetry.Trace.Float
                (Lfi_telemetry.Overhead.attributed_cycles a) ) ]
  | _ -> ());
  match ev with
  | Exec.Quantum_expired ->
      if left <= q then die rt p "instruction budget exceeded" else Preempted
  | Exec.Runtime_entry pc ->
      let off = Int64.to_int (Int64.sub pc Machine.host_region_start) in
      let k = off lsr 3 in
      if off land 7 <> 0 || k >= Sysno.count then
        die rt p (Printf.sprintf "stray runtime entry at 0x%Lx" pc)
      else begin
        (* return address: blr x30 left it in x30 *)
        Machine.set_pc m.Machine.regs (Machine.x m.Machine.regs 30);
        if box && k = Sysno.box_ret then Returned else serve_call rt p k
      end
  | Exec.Trap (Exec.Svc_trap k) ->
      (* a verified binary can never reach here *)
      if p.Proc.personality = Proc.Lfi then die rt p "svc from sandboxed code"
      else serve_call rt p k
  | Exec.Trap (Exec.Mem_fault f) ->
      die rt ~fault:f p (Format.asprintf "%a" Memory.pp_fault f)
  | Exec.Trap (Exec.Undefined pc) ->
      die rt p (Printf.sprintf "undefined instruction at 0x%Lx" pc)

(** Kill every blocked process, lowest pid first, when nothing can run:
    no process can wake another, so each would wait forever.  The
    machine gets the process's registers first, so its postmortem
    shows where it blocked. *)
let kill_deadlocked rt =
  Hashtbl.fold
    (fun _ p acc ->
      match p.Proc.state with Proc.Blocked _ -> p :: acc | _ -> acc)
    rt.procs []
  |> List.sort (fun a b -> compare a.Proc.pid b.Proc.pid)
  |> List.iter (fun p ->
         Machine.restore rt.machine p.Proc.snapshot;
         kill_proc rt p "deadlock")

(** Run until no process can run: every one has exited or been killed
    — by a fault, by its instruction budget, or, blocked with nothing
    left to wake it, as deadlocked.  Returns the exit log (most recent
    first). *)
let run rt : (int * exit_reason) list =
  let m = rt.machine in
  let rec schedule () =
    match next_runnable rt with
    | None -> kill_deadlocked rt
    | Some p ->
        rt.ctx_switches <- rt.ctx_switches + 1;
        (match rt.trace with
        | None -> ()
        | Some t ->
            Lfi_telemetry.Trace.instant t ~name:"ctx-switch" ~cat:"sched"
              ~ts:(Machine.cycles m) ~pid:trace_pid ~tid:p.Proc.pid ~args:[]);
        Machine.add_cycles m (switch_cost rt p);
        if rt.cfg.spectre_hardening then
          Machine.add_cycles m rt.cfg.uarch.Cost_model.scxtnum_switch;
        Machine.restore m p.Proc.snapshot;
        m.Machine.flight <- Some p.Proc.flight;
        Lfi_telemetry.Flight.record p.Proc.flight
          Lfi_telemetry.Flight.k_ctx_switch
          (Int64.to_int (Machine.pc m.Machine.regs)) p.Proc.pid;
        execute p;
        schedule ()
  and execute (p : Proc.t) =
    let left = rt.cfg.insn_budget - p.Proc.user_insns in
    match slice ~box:false rt p ~left with
    | Continue -> execute p
    | Preempted ->
        (* timer preemption (setitimer in the real runtime) *)
        rt.preemptions <- rt.preemptions + 1;
        Lfi_telemetry.Flight.record p.Proc.flight Lfi_telemetry.Flight.k_preempt
          (Int64.to_int (Machine.pc m.Machine.regs)) p.Proc.pid;
        p.Proc.snapshot <- Machine.snapshot m
    | Switch -> p.Proc.snapshot <- Machine.snapshot m
    | Died _ -> ()
    | Returned -> assert false (* only under ~box:true *)
  in
  schedule ();
  rt.exit_log

(** Run a single program to completion and return
    [(exit_reason, stdout, cycles, insns)]. *)
let run_one rt (p : Proc.t) =
  let log = run rt in
  let reason =
    match List.assoc_opt p.Proc.pid log with
    | Some r -> r
    | None -> Killed "did not exit"
  in
  (reason, stdout_of p, cycles rt, insns rt)

(* ------------------------------------------------------------------ *)
(* Telemetry reports                                                   *)
(* ------------------------------------------------------------------ *)

(** Full metrics report as a JSON object: the emulator cache counters,
    the scheduler counters, and (when metrics were enabled) one latency
    histogram per runtime call that occurred. *)
let metrics_json rt : string =
  let open Lfi_telemetry.Json in
  (* guard-clamp audit: per-sandbox and total counts of guarded
     accesses whose unguarded address would have escaped the sandbox *)
  let clamps =
    Hashtbl.fold (fun _ p acc -> p :: acc) rt.procs []
    |> List.sort (fun a b -> compare a.Proc.pid b.Proc.pid)
    |> List.map (fun p ->
           ( Printf.sprintf "sandbox_%d" p.Proc.pid,
             Int (Lfi_telemetry.Flight.clamps p.Proc.flight) ))
  in
  let latency =
    match rt.call_hist with
    | None -> []
    | Some hs ->
        let row k h =
          if h.Lfi_telemetry.Histogram.count = 0 then []
          else [ (Sysno.name k, Lfi_telemetry.Histogram.to_json h) ]
        in
        let rows = List.concat (List.mapi row (Array.to_list hs)) in
        [ ("rtcall_latency", Obj rows) ]
  in
  to_pretty
    (Obj
       ([
          ( "emulator",
            Lfi_telemetry.Metrics.snapshot_to_json (metrics_snapshot rt) );
          ( "runtime",
            Obj
              [
                ("ctx_switches", Int rt.ctx_switches);
                ("rtcalls", Int rt.rtcalls);
                ("preemptions", Int rt.preemptions); ("insns", Int (insns rt));
                ("cycles", Float (cycles rt, 1));
              ] );
          ("guard_clamps", Obj (("total", Int (total_clamps rt)) :: clamps));
        ]
       @ latency))

(** Per-sandbox flat profiles, one entry per process still in the
    table (exited-but-unreaped zombies included), ordered by pid.  A
    sample is attributed to the sandbox whose 4GiB slot contains its
    pc, then folded through that sandbox's ELF symbols. *)
let profile_report rt : (Proc.t * Lfi_telemetry.Profile.line list) list =
  match rt.machine.Machine.profile with
  | None -> []
  | Some prof ->
      Hashtbl.fold (fun _ p acc -> p :: acc) rt.procs []
      |> List.sort (fun a b -> compare a.Proc.pid b.Proc.pid)
      |> List.map (fun p ->
             let base = Int64.to_int p.Proc.base in
             ( p,
               Lfi_telemetry.Profile.flat prof ~symbols:p.Proc.symbols ~base
                 ~limit:(base + Lfi_core.Layout.sandbox_size) ))
