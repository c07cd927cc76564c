(** Superblock engine: block cache and threaded dispatch.

    The single-step loop in {!Interp} pays a fixed per-instruction tax
    — decode-cache probe, host-region check, a [m.pc] write — that
    dominates once the decode cache hits every time.  This module
    removes it structurally: straight-line runs of lowered instructions
    ({!Sem}) are grouped into blocks keyed by entry pc and executed
    back-to-back with a single bounds/translation check per block.
    Blocks chain through [b_succ0]/[b_succ1], so a hot loop runs
    block-to-block without touching the hash table at all.

    A block holds the very closures and terminators the decode slots
    hold, so it runs the same semantics as the step loop; the
    bookkeeping is what must match it (the observer differential test
    drives both and demands identical results):

    - costs are charged {e per instruction, in program order} from
      [b_costs] — never pre-summed, because float addition is not
      associative and TLB-walk charges interleave with them;
    - [m.insns] advances by the block's retired count at block
      boundaries, and a {!Memory.Fault} mid-block repairs both the
      count and [m.pc] from [m.blk_i] before re-raising;
    - a block invalidated by its own store (self-modifying code on a
      W+X page) stops after the offending instruction, exactly where
      the step loop would re-fetch;
    - wherever [m.insns] advances ({!retire}), an armed observer
      ({!Machine.metrics}, {!Machine.profile}, {!Machine.overhead})
      sees the retired run through {!Interp.observe}, exactly as the
      step loop shows it each instruction; unarmed, that costs one
      test per block.  The flight recorder and the escape oracle
      observe inside the lowered code. *)

open Machine

let block_page (m : Machine.t) (idx : int) : bpage =
  match Hashtbl.find_opt m.blocks idx with
  | Some bp -> bp
  | None ->
      let bp =
        { bp_entries = Array.make Machine.decode_slots no_blk; bp_blocks = [] }
      in
      Hashtbl.replace m.blocks idx bp;
      bp

(** Collect and register the block entered at [pci] from the decode
    slots, filling them on a miss.  Building is the execution attempt
    at that pc: the dispatch loop does not maintain [m.pc], so
    materialize it here first — a fetch fault (misaligned or unmapped
    entry) must leave [m.pc] at the faulting instruction, exactly like
    a step-loop fetch.  A fetch that would fault at [k > 0] ends the
    block cleanly before it: the step loop executes the preceding
    instructions first. *)
let build (m : Machine.t) (pci : int) : blk =
  m.blk_builds <- m.blk_builds + 1;
  let pc = Int64.of_int pci in
  m.pc <- pc;
  if pci land 3 <> 0 then Sem.fetch_fault pc;
  let ops = Array.make max_block_len Sem.ignore_op in
  let costs = Array.make (max_block_len + 1) 0.0 in
  let rec scan (k : int) (pc : int) : int * bterm =
    if k = max_block_len || pc >= host_region_start_i then
      (k, Tfall { next = pc })
    else begin
      let pidx = pc lsr Memory.page_bits in
      let s = (pc land (Memory.page_size - 1)) lsr 2 in
      if m.dc_idx <> pidx then Machine.decode_page m pidx;
      let cached = Array.unsafe_get m.dc_op s in
      match if cached != Machine.undecoded then cached else Sem.fill m pc s with
      | exception Memory.Fault _ when k > 0 -> (k, Tfall { next = pc })
      | op -> (
          Array.unsafe_set costs k (Array.unsafe_get m.dc_cost s);
          match op with
          | Term t -> (k, t)
          | Body (f, _) ->
              Array.unsafe_set ops k f;
              scan (k + 1) (pc + 4))
    end
  in
  let nbody, term = scan 0 pci in
  let total = match term with Tfall _ -> nbody | _ -> nbody + 1 in
  (* entry is in sandbox code and its fetch succeeded (or raised), so
     a block always retires at least one instruction — a zero-length
     block would livelock the dispatch loop *)
  assert (total > 0);
  let pidx = pci lsr Memory.page_bits in
  let lastpc = pci + (4 * (total - 1)) in
  let npages = if lastpc lsr Memory.page_bits <> pidx then 2 else 1 in
  let page_wx idx =
    match Memory.find_page_by_index m.mem idx with
    | None -> false
    | Some p ->
        let pm = Memory.page_perm p in
        pm.Memory.w && pm.Memory.x
  in
  let dpage idx = Machine.decode_page m idx; m.dc_page in
  let dp0 = dpage pidx in
  let b =
    {
      b_pci = pci;
      b_len = total;
      b_body = Array.sub ops 0 nbody;
      b_costs = Array.sub costs 0 total;
      b_term = term;
      b_pages = npages;
      b_dp0 = dp0;
      b_dp1 = (if npages > 1 then dpage (pidx + 1) else dp0);
      b_wx = page_wx pidx || (npages > 1 && page_wx (pidx + 1));
      b_valid = true;
      b_succ0 = no_blk;
      b_succ1 = no_blk;
    }
  in
  let bp = block_page m pidx in
  let slot = (pci land (Memory.page_size - 1)) lsr 2 in
  Array.unsafe_set bp.bp_entries slot b;
  bp.bp_blocks <- b :: bp.bp_blocks;
  if b.b_pages > 1 then begin
    let bp2 = block_page m (pidx + 1) in
    bp2.bp_blocks <- b :: bp2.bp_blocks
  end;
  b

(** Find the block entered at [pci], building it on a miss.  The
    last-page pointer ([bp_idx]/[bp_arr]) makes the common case two
    compares and an array load. *)
let lookup (m : Machine.t) (pci : int) : blk =
  let pidx = pci lsr Memory.page_bits in
  if m.bp_idx <> pidx then begin
    let bp = block_page m pidx in
    m.bp_idx <- pidx;
    m.bp_arr <- bp.bp_entries
  end;
  let slot = (pci land (Memory.page_size - 1)) lsr 2 in
  let b = Array.unsafe_get m.bp_arr slot in
  if b.b_valid && b.b_pci = pci then b else build m pci

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)
(* ------------------------------------------------------------------ *)

(* Straight-line body ops on a W+X block: charge the instruction's
   cost, record the index for fault repair, execute, and re-check
   [b_valid] — one of our own stores may have invalidated the block.
   Returns the number of ops completed; on early stop the caller
   re-dispatches at the next pc, which re-lowers from the freshly
   written bytes, exactly like the step loop's next fetch. *)
let rec body_loop (m : Machine.t) (b : blk) (body : (Machine.t -> unit) array)
    (costs : float array) (n : int) (i : int) : int =
  if i >= n then n
  else begin
    add_cycles m (Array.unsafe_get costs i);
    m.blk_i <- i;
    (Array.unsafe_get body i) m;
    if b.b_valid then body_loop m b body costs n (i + 1) else i + 1
  end

(* The common case: no overlapped page is writable+executable, so the
   block cannot be invalidated mid-execution (host-side permission
   changes invalidate before any further sandbox instruction runs) and
   the per-op validity check is dropped. *)
let rec body_fast (m : Machine.t) (body : (Machine.t -> unit) array)
    (costs : float array) (n : int) (i : int) : unit =
  if i < n then begin
    add_cycles m (Array.unsafe_get costs i);
    m.blk_i <- i;
    (Array.unsafe_get body i) m;
    body_fast m body costs n (i + 1)
  end

(* Retire the block's first [n] instructions: count them and show
   them to the armed observers. *)
let[@inline] retire (m : Machine.t) (b : blk) (n : int) =
  m.insns <- m.insns + n;
  m.blk_insns <- m.blk_insns + n;
  if observed m then Interp.observe m b.b_pci n b.b_dp0 b.b_dp1

(* Retire the terminator after a fully-executed body of [n] ops;
   returns the next pc, or -1 as {!Sem.exec_term} does. *)
let[@inline] finish_block (m : Machine.t) (b : blk) (n : int) : int =
  match b.b_term with
  | Tfall { next } ->
      retire m b n;
      next
  | term ->
      add_cycles m (Array.unsafe_get b.b_costs n);
      retire m b (n + 1);
      Sem.exec_term m term

(** Run one block to completion (or to its self-invalidation point);
    returns the next pc as an untagged int, or -1 when [m.pc] holds it
    (see {!Sem.exec_term}).  On a memory fault the
    instruction count and pc are repaired to the faulting instruction
    — bit-identical to the step loop, which counts an instruction
    before executing it — and the fault re-raised for {!run}'s single
    handler. *)
let exec_block (m : Machine.t) (b : blk) : int =
  m.blk_execs <- m.blk_execs + 1;
  let body = b.b_body in
  let n = Array.length body in
  try
    if b.b_wx then begin
      let c = body_loop m b body b.b_costs n 0 in
      if b.b_valid then finish_block m b n
      else begin
        (* invalidated mid-block by one of our own stores: resume at
           the next pc, which re-lowers the freshly written bytes *)
        retire m b c;
        b.b_pci + (4 * c)
      end
    end
    else begin
      body_fast m body b.b_costs n 0;
      finish_block m b n
    end
  with Memory.Fault _ as e ->
    let k = m.blk_i in
    retire m b (k + 1);
    m.pc <- Int64.of_int (b.b_pci + (4 * k));
    raise e

(** Run until an event occurs or [quantum] instructions have executed
    ({!Exec.run}).

    Each iteration does one bounds/translation check (host region +
    quantum budget), then runs a whole block.  Chain links are tried
    before the block table; a quantum tail too short for the next
    block is single-stepped through {!Interp.step_raw}, so a quantum
    retires exactly [quantum] instructions and per-call instruction
    budgets (libbox) kill at an exact count. *)
let run (m : Machine.t) ~(quantum : int) : Interp.event =
  let rec dispatch (pci : int) (remaining : int) : Interp.event =
    if remaining <= 0 then begin
      m.pc <- Int64.of_int pci;
      Interp.Quantum_expired
    end
    else if pci >= host_region_start_i then begin
      let pc = Int64.of_int pci in
      m.pc <- pc;
      Interp.Runtime_entry pc
    end
    else enter (lookup m pci) pci remaining
  and chain (prev : blk) (pci : int) (remaining : int) : Interp.event =
    if remaining <= 0 then begin
      m.pc <- Int64.of_int pci;
      Interp.Quantum_expired
    end
    else if pci >= host_region_start_i then begin
      let pc = Int64.of_int pci in
      m.pc <- pc;
      Interp.Runtime_entry pc
    end
    else begin
      let s0 = prev.b_succ0 in
      if s0.b_valid && s0.b_pci = pci then enter s0 pci remaining
      else
        let s1 = prev.b_succ1 in
        if s1.b_valid && s1.b_pci = pci then enter s1 pci remaining
        else begin
          let nb = lookup m pci in
          if not prev.b_succ0.b_valid then prev.b_succ0 <- nb
          else prev.b_succ1 <- nb;
          enter nb pci remaining
        end
    end
  and enter (b : blk) (pci : int) (remaining : int) : Interp.event =
    if b.b_len <= remaining then begin
      let before = m.insns in
      let npc = exec_block m b in
      if npc >= 0 then chain b npc (remaining - (m.insns - before))
      else
        match b.b_term with
        | Tsvc { n; _ } -> Interp.Trap (Interp.Svc_trap n)
        | Tudf { pc } -> Interp.Trap (Interp.Undefined pc)
        | _ ->
            (* a branch out of [0, 2^62): [m.pc] holds its target, which
               the step loop faults on exactly as in step mode *)
            tail (remaining - (m.insns - before))
    end
    else begin
      (* quantum tail: not enough budget for the whole block *)
      m.blk_deopts <- m.blk_deopts + 1;
      m.pc <- Int64.of_int pci;
      tail remaining
    end
  and tail (remaining : int) : Interp.event =
    if remaining <= 0 then Interp.Quantum_expired
    else
      match Interp.step_raw m with
      | None -> tail (remaining - 1)
      | Some e -> e
  in
  try
    if Sem.pc_fits m.pc then dispatch (Int64.to_int m.pc) quantum
    else tail quantum
  with Memory.Fault f ->
    Interp.count_fault m;
    Interp.Trap (Interp.Mem_fault f)
