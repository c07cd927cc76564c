(** A warm library instance: one loaded sandbox plus everything needed
    to call into it and wind it back.

    {b Calling.}  A call puts the process's register file and flight
    recorder on the machine ({!Machine.switch_to}), writes its entry
    state into that file (arguments in x0..x7, then
    {!Lfi_runtime.Runtime.entry_state}: pc at the export, x30 at the
    return trampoline, anchored to the slot, everything else zero — a
    few stores) and runs the scheduler's own run step,
    {!Lfi_runtime.Runtime.slice} with [~box:true], until the
    trampoline surfaces through the runtime-call table
    ([Sysno.box_ret]).  Instructions are credited to the process,
    runtime calls the export makes along the way are served and
    observed exactly as for a scheduled program, and faults take the
    ordinary kill path (postmortem included) and retire the instance.
    The transition cost — call-gate entry + exit plus buffer
    marshalling, everything except the sandboxed execution itself — is
    returned with each reply ({!Api.call_stats}); the serve layer
    keeps its histogram.

    {b Reset.}  At creation (after the optional init export) the
    instance captures a baseline: a copy of every mapped page of its
    slot ({!Lfi_runtime.Runtime.slot_pages}) plus the heap break, with
    the pages marked clean; pages that read all zeros (the stack, the
    BSS) share {!Memory.zero_page} instead of a copy.  The
    first change to a clean page — a store, a permission change, an
    unmap — appends it to the address space's change log
    ({!Memory.drain_changes}), and every store clears the clean bits of
    the 512-byte chunks it touches, so [reset] visits exactly the pages
    the request changed and rewrites only their changed chunks: it
    remaps, re-protects and rewrites each from the baseline, unmaps
    pages the request mapped, and rewinds the fd table and heap break —
    so no request can observe a previous request's writes
    (test-enforced). *)

open Lfi_emulator
open Lfi_runtime

type pristine = { pg_bytes : bytes; pg_perm : Memory.perm }

type t = {
  lib : Library.t;
  rt : Runtime.t;
  p : Proc.t;
  arena_base : int64;  (** absolute base of the marshalling arena *)
  arena_len : int;
  pristine : pristine Itbl.t;  (** page index → baseline copy *)
  mutable heap_end0 : int64;
  mutable alive : bool;
  span : Lfi_telemetry.Span.t;
      (** per-request phase record, rewound on every call — the serve
          layer reads it right after dispatch *)
  mutable calls : int;
  mutable resets : int;
  mutable call_insns : int;  (** total sandboxed instructions across calls *)
  mutable pages_restored : int;  (** changed pages rewound across resets *)
}

let page = Memory.page_size
let slot_first (p : Proc.t) = Memory.page_index p.Proc.base
let slot_last (p : Proc.t) = slot_first p + Runtime.pages_per_slot
let addr_of_idx idx = Int64.shift_left (Int64.of_int idx) Memory.page_bits

(** Snapshot the slot's current memory as the reset baseline and mark
    its pages clean, so [reset] touches only what changed since.  Log
    entries left in the slot by an earlier occupant (a killed instance
    whose slot this one reuses) are dropped first. *)
let capture_baseline (inst : t) =
  let mem = inst.rt.Runtime.mem in
  Memory.drain_changes mem ~lo:(slot_first inst.p) ~hi:(slot_last inst.p)
    (fun () _ -> ()) ();
  Itbl.reset inst.pristine;
  List.iter
    (fun (idx, pg) ->
      let data = Memory.page_data pg in
      Itbl.replace inst.pristine idx
        { pg_bytes =
            (if data == Memory.zero_page || Bytes.equal data Memory.zero_page
             then Memory.zero_page
             else Bytes.copy data);
          pg_perm = Memory.page_perm pg };
      Memory.page_mark_clean pg)
    (Runtime.slot_pages mem inst.p.Proc.base);
  inst.heap_end0 <- inst.p.Proc.heap_end

let dirty_chunk clean c =
  c < Memory.chunks_per_page && clean land (1 lsl c) = 0

let rec dirty_run_end clean c =
  if dirty_chunk clean c then dirty_run_end clean (c + 1) else c

(* Rewrite the chunks of [dst] from chunk [c] on whose bit is clear in
   [clean] from [src], one blit per run of such chunks: the whole page
   when [clean] is 0 (a re-protected, unmapped or remapped page, or one
   stored to in every chunk).  A run of eight clean chunks is skipped
   with one mask test (bits past the last chunk are 0, so the test
   never skips past the page).  No closure, so nothing is allocated. *)
let rec restore_chunks (src : bytes) (dst : bytes) (clean : int) (c : int) =
  if c < Memory.chunks_per_page then
    if (clean lsr c) land 0xFF = 0xFF then restore_chunks src dst clean (c + 8)
    else if dirty_chunk clean c then begin
      let e = dirty_run_end clean c in
      Bytes.blit src (c lsl Memory.chunk_bits) dst (c lsl Memory.chunk_bits)
        ((e - c) lsl Memory.chunk_bits);
      restore_chunks src dst clean e
    end
    else restore_chunks src dst clean (c + 1)

(* Rewind changed baseline page [idx]: bring it back if unmapped,
   restore its permission, rewrite its changed chunks (straight blits:
   only data pages are writable, so no decode-cache entry can go
   stale), and mark it clean last (see [Memory.drain_changes]).  A page
   still backed by [Memory.zero_page] whose baseline is that page too
   (a stack page re-protected or unmapped unwritten) needs no bytes. *)
let restore_page (inst : t) (idx : int) =
  let mem = inst.rt.Runtime.mem in
  let pr = Itbl.find inst.pristine idx in
  let pg =
    match Memory.page_at mem idx with
    | pg -> pg
    | exception Not_found ->
        Memory.map mem ~addr:(addr_of_idx idx) ~len:page ~perm:pr.pg_perm;
        Memory.page_at mem idx
  in
  if Memory.page_perm pg <> pr.pg_perm then
    Memory.set_page_perm mem idx pr.pg_perm;
  if not (pr.pg_bytes == Memory.zero_page
          && Memory.page_data pg == Memory.zero_page)
  then
    restore_chunks pr.pg_bytes (Memory.page_own_data pg) (Memory.page_clean pg)
      0;
  Memory.page_mark_clean pg;
  inst.pages_restored <- inst.pages_restored + 1

(** Wind the instance back to its baseline: rewind every chunk the
    request changed from its pristine copy, drop pages it mapped,
    rewind the heap break, and rebuild the std fd table if the request
    touched it.

    Cost is O(bytes changed since the baseline), rounded up to 512-byte
    chunks, never O(pages of the slot or of the runtime): the slot's
    entries in the change log are exactly its baseline pages the
    request stored to, re-protected or unmapped, each page's clean mask
    names the chunks it stored to, and any page the request mapped
    beyond the baseline must sit in [heap_end0, heap_end) because both
    [mmap] and [brk] bump-allocate at the break — so with hundreds of
    resident instances a reset still touches only what its own request
    changed. *)
let reset (inst : t) =
  let mem = inst.rt.Runtime.mem in
  Memory.drain_changes mem ~lo:(slot_first inst.p) ~hi:(slot_last inst.p)
    restore_page inst;
  (* pages the request mapped (mmap/brk allocate at the break, so they
     all live in the heap-growth range): drop them *)
  let lo = Memory.page_index inst.heap_end0
  and hi =
    Memory.page_index
      (Int64.add inst.p.Proc.heap_end (Int64.of_int (page - 1)))
  in
  for idx = lo to hi - 1 do
    if not (Itbl.mem inst.pristine idx)
       && Memory.is_mapped mem (addr_of_idx idx)
    then Memory.unmap mem ~addr:(addr_of_idx idx) ~len:page
  done;
  inst.p.Proc.heap_end <- inst.heap_end0;
  if not (Proc.has_only_std_fds inst.p) then begin
    Proc.close_all inst.p;
    Proc.install_std_fds inst.p
  end;
  Buffer.clear inst.p.Proc.stdout;
  inst.p.Proc.state <- Proc.Runnable;
  inst.resets <- inst.resets + 1

(* ------------------------------------------------------------------ *)
(* Marshalling                                                         *)
(* ------------------------------------------------------------------ *)

(** Cycles to move [len] bytes across the boundary: one load + one
    store per 8-byte word, as the runtime's copyin/copyout would
    execute. *)
let marshal_cycles (u : Cost_model.t) (len : int) : float =
  float_of_int ((len + 7) / 8) *. (u.Cost_model.load +. u.Cost_model.store)

(** Explicit copy-in/copy-out through the sandbox window, reusing the
    runtime's user-memory accessors ({!Runtime.write_user_bytes} /
    {!Runtime.read_user_bytes}); a bad pointer is [Error Efault]. *)
let copy_in (inst : t) (addr : int64) (b : bytes) : (unit, Api.error) result =
  match Runtime.write_user_bytes inst.rt inst.p addr b with
  | Ok () -> Ok ()
  | Error _ -> Error Api.Efault

let copy_out (inst : t) (addr : int64) (len : int) :
    (bytes, Api.error) result =
  match Runtime.read_user_bytes inst.rt inst.p addr len with
  | Ok b -> Ok b
  | Error _ -> Error Api.Efault

(* ------------------------------------------------------------------ *)
(* Calling                                                             *)
(* ------------------------------------------------------------------ *)

exception Marshal_error of Api.error

(* The arena address of a [len]-byte reservation at offset [off]. *)
let arena_addr (inst : t) (off : int) (len : int) : int64 =
  if len < 0 || off + len > inst.arena_len then
    raise (Marshal_error Api.Arena_overflow);
  Int64.add inst.arena_base (Int64.of_int off)

let align8 n = (n + 7) / 8 * 8

(** Place the arguments straight into the entry registers: argument
    [i] goes to x[i] of the register file [f].  Scalars pass through;
    buffers are bump-allocated in the arena (8-byte aligned, from
    offset [cursor]) and passed by their sandbox-relative address.
    The marshalling cost goes to the span's marshal-in phase; returns
    the [(addr, len)] [Out] reservations, last first. *)
let rec place (inst : t) (u : Cost_model.t) (f : Bytes.t) (i : int)
    (cursor : int) (cost : float) (outs : (int64 * int) list) :
    Api.arg list -> (int64 * int) list = function
  | [] ->
      Lfi_telemetry.Span.set inst.span Lfi_telemetry.Span.Marshal_in cost;
      outs
  | Api.I v :: tl ->
      Machine.set_x f i v;
      place inst u f (i + 1) cursor cost outs tl
  | Api.In b :: tl ->
      let len = Bytes.length b in
      let addr = arena_addr inst cursor len in
      (match copy_in inst addr b with
      | Ok () -> ()
      | Error e -> raise (Marshal_error e));
      Machine.set_x f i (Int64.sub addr inst.p.Proc.base);
      place inst u f (i + 1)
        (align8 (cursor + len))
        (cost +. marshal_cycles u len)
        outs tl
  | Api.Out len :: tl ->
      let addr = arena_addr inst cursor len in
      Machine.set_x f i (Int64.sub addr inst.p.Proc.base);
      place inst u f (i + 1)
        (align8 (cursor + len))
        cost
        ((addr, len) :: outs)
        tl

let retire (inst : t) =
  Runtime.remove_proc inst.rt inst.p;
  inst.alive <- false

(** Retire the instance through the runtime's ordinary kill path: the
    postmortem reads the dead call's register file, then the slot is
    released for reuse. *)
let kill (inst : t) (reason : string) : Api.error =
  Runtime.kill_proc inst.rt inst.p reason;
  retire inst;
  Api.Killed reason

(** Run the entered call to its return: the runtime's run step
    ({!Runtime.slice} with [~box:true]) until the trampoline's
    [box_ret], under the runtime's instruction budget, counted from
    the call's entry; [i0] is the machine's instruction count there.
    The return value is x0. *)
let rec drive (inst : t) (m : Machine.t) (i0 : int) :
    (int64, Api.error) result =
  match
    Runtime.slice ~box:true inst.rt inst.p
      ~left:(inst.rt.Runtime.cfg.Runtime.insn_budget - (m.Machine.insns - i0))
  with
  | Runtime.Preempted | Runtime.Continue -> drive inst m i0
  | Runtime.Returned -> Ok (Machine.x inst.p.Proc.regs 0)
  | Runtime.Switch ->
      ignore (kill inst "blocking runtime call in library call");
      Error Api.Blocked
  | Runtime.Died reason ->
      retire inst;
      Error
        (match reason with
        | Runtime.Exited c -> Api.Exited c
        | Runtime.Killed why -> Api.Killed why)

(** Copy the [Out] buffers back, in argument order, charging each;
    [mout] is the copy-out cost so far. *)
let rec copy_outs (inst : t) (m : Machine.t) (u : Cost_model.t) (mout : float)
    (acc : bytes list) : (int64 * int) list -> (bytes list, Api.error) result =
  function
  | [] ->
      Lfi_telemetry.Span.set inst.span Lfi_telemetry.Span.Marshal_out mout;
      Ok (List.rev acc)
  | (addr, len) :: tl -> (
      let c = marshal_cycles u len in
      Machine.add_cycles m c;
      match copy_out inst addr len with
      | Ok b -> copy_outs inst m u (mout +. c) (b :: acc) tl
      | Error e -> Error e)

(** Call [name] with [args]; on success the reply carries the return
    value, the [Out] buffers, and the per-call cycle accounting.

    The process's register file and flight recorder go on the machine
    ({!Machine.switch_to}, two pointer stores), and the entry state is
    written into that file in place: {!Machine.clear}, the arguments
    into x0.. as they are marshalled, then {!Runtime.entry_state}'s
    stores (x30 at the return trampoline, pc at the export, sp at the
    stack top, the reserved registers anchored to the slot).  Entering
    copies no register and allocates nothing.  A marshalling error
    leaves that half-written state behind; nothing reads it before the
    next entry overwrites it. *)
let call (inst : t) (name : string) (args : Api.arg list) :
    (Api.reply, Api.error) result =
  if not inst.alive then Error (Api.Killed "instance already retired")
  else
    match Library.export_addr inst.lib name with
    | None -> Error (Api.Unknown_export name)
    | Some entry -> (
        if List.length args > 8 then Error Api.Too_many_args
        else
          let rt = inst.rt and p = inst.p in
          let m = rt.Runtime.machine in
          let u = rt.Runtime.cfg.Runtime.uarch in
          Lfi_telemetry.Span.start inst.span name;
          Machine.switch_to m p.Proc.regs p.Proc.flight;
          Machine.clear m;
          match place inst u p.Proc.regs 0 0 0.0 [] args with
          | exception Marshal_error e -> Error e
          | outs -> (
              let outs = List.rev outs in
              Runtime.entry_state p.Proc.regs p.Proc.base ~pc:entry
                ~link:inst.lib.Library.trampoline;
              let t0 = Machine.cycles m and i0 = m.Machine.insns in
              let gate_cost = u.Cost_model.lfi_runtime_call_entry in
              (* host→sandbox gate: same price as a runtime-call entry *)
              Machine.add_cycles m gate_cost;
              inst.span.Lfi_telemetry.Span.t0 <- t0;
              Lfi_telemetry.Span.set inst.span Lfi_telemetry.Span.Gate_in
                gate_cost;
              match drive inst m i0 with
              | Error e -> Error e
              | Ok ret -> (
                  Lfi_telemetry.Span.set inst.span Lfi_telemetry.Span.Exec
                    (Machine.cycles m -. t0 -. gate_cost);
                  (* sandbox→host gate *)
                  Machine.add_cycles m gate_cost;
                  Lfi_telemetry.Span.set inst.span Lfi_telemetry.Span.Gate_out
                    gate_cost;
                  match copy_outs inst m u 0.0 [] outs with
                  | Error e -> Error e
                  | Ok out_bufs ->
                      (* the transition: both gates and the marshalling *)
                      let gate =
                        Lfi_telemetry.Span.get inst.span
                          Lfi_telemetry.Span.Marshal_in
                        +. gate_cost +. gate_cost
                        +. Lfi_telemetry.Span.get inst.span
                             Lfi_telemetry.Span.Marshal_out
                      in
                      let call_insns = m.Machine.insns - i0 in
                      let total = Machine.cycles m -. t0 in
                      inst.calls <- inst.calls + 1;
                      inst.call_insns <- inst.call_insns + call_insns;
                      (match rt.Runtime.trace with
                      | None -> ()
                      | Some t ->
                          Lfi_telemetry.Trace.complete t
                            ~name:("call:" ^ name) ~cat:"libbox" ~ts:t0
                            ~dur:total ~pid:Runtime.trace_pid ~tid:p.Proc.pid
                            ~args:
                              [ ("ret", Lfi_telemetry.Trace.I64 ret);
                                ( "gate_cycles",
                                  Lfi_telemetry.Trace.Int (int_of_float gate)
                                ) ]);
                      Ok
                        {
                          Api.ret;
                          outs = out_bufs;
                          stats =
                            {
                              Api.gate_cycles = gate;
                              total_cycles = total;
                              call_insns;
                            };
                        })))

(** Load one warm instance into [rt] (which should have verification
    off: the {!Library} already verified the image).  Runs [init] when
    given, then captures the reset baseline — init effects persist
    across resets. *)
let create ?(arena = 1 lsl 16) ?init (rt : Runtime.t) (lib : Library.t) : t =
  let p = Runtime.load rt ~personality:Proc.Lfi lib.Library.elf in
  let arena_len = Runtime.align_up (max arena 1) in
  let arena_base = p.Proc.heap_end in
  Memory.map rt.Runtime.mem ~addr:arena_base ~len:arena_len
    ~perm:Memory.perm_rw;
  p.Proc.heap_end <- Int64.add arena_base (Int64.of_int arena_len);
  let inst =
    {
      lib;
      rt;
      p;
      arena_base;
      arena_len;
      pristine = Itbl.create 64;
      heap_end0 = p.Proc.heap_end;
      alive = true;
      span = Lfi_telemetry.Span.create ();
      calls = 0;
      resets = 0;
      call_insns = 0;
      pages_restored = 0;
    }
  in
  (match init with
  | None -> ()
  | Some name -> (
      match call inst name [] with
      | Ok _ -> ()
      | Error e ->
          raise
            (Library.Error
               (Printf.sprintf "%s: init %S failed: %s" lib.Library.name name
                  (Api.error_to_string e)))));
  (* the init call does not count toward the serving stats *)
  inst.calls <- 0;
  inst.call_insns <- 0;
  capture_baseline inst;
  inst
