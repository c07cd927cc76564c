(** Emulator metric counters (the "where do the cycles go" layer).

    A {!emu} record is a flat bag of mutable [int] counters the
    emulator's hot paths bump through a [Metrics.emu option] handle
    that is [None] by default: with telemetry disabled nothing is
    allocated and each potential count site costs one predictable
    branch, which keeps the PR-1 hot loop at its measured throughput.

    The memory system's translation cache and the TLB already maintain
    their own unconditional counters (flat mutable ints, following the
    original {!Lfi_emulator.Tlb} design); a {!snapshot} folds those in
    next to the handle's counters so consumers see one coherent record
    per run. *)

type emu = {
  (* decode cache (per-page decoded-instruction arrays) *)
  mutable decode_hits : int;
  mutable decode_misses : int;
  mutable decode_invalidations : int;
      (** pages dropped by the code-change invalidation protocol *)
  (* escapes *)
  mutable faults : int;  (** memory faults that escaped to the runtime *)
  (* instruction-class mix of everything executed *)
  mutable loads : int;
  mutable stores : int;
  mutable branches : int;
  mutable guards : int;  (** LFI guard instructions (x21-based add) *)
  mutable other : int;
}

let create_emu () =
  {
    decode_hits = 0;
    decode_misses = 0;
    decode_invalidations = 0;
    faults = 0;
    loads = 0;
    stores = 0;
    branches = 0;
    guards = 0;
    other = 0;
  }

(** One run's counters, with the memory-system counters (sampled from
    the TLB and translation cache at snapshot time) alongside. *)
type snapshot = {
  emu : emu;
  tc_hits : int;  (** page-translation cache *)
  tc_misses : int;
  tlb_hits : int;
  tlb_misses : int;  (** every miss is a page walk *)
  (* superblock engine (unconditional machine counters; observers
     never change dispatch, so they read the same armed or not) *)
  blk_execs : int;  (** blocks entered *)
  blk_builds : int;  (** blocks built (cache misses + rebuilds) *)
  blk_insns : int;  (** instructions retired under block dispatch *)
  blk_deopts : int;  (** quantum tails single-stepped *)
}

let hit_rate ~hits ~misses =
  let total = hits + misses in
  if total = 0 then 0.0 else float_of_int hits /. float_of_int total

let insn_total (e : emu) = e.loads + e.stores + e.branches + e.guards + e.other

(** Fraction of block entries served from the block cache (an entry
    that was not preceded by a fresh lowering). *)
let block_hit_rate (s : snapshot) : float =
  if s.blk_execs = 0 then 0.0
  else
    float_of_int (max 0 (s.blk_execs - s.blk_builds))
    /. float_of_int s.blk_execs

(** Mean instructions retired per block execution. *)
let avg_block_len (s : snapshot) : float =
  if s.blk_execs = 0 then 0.0
  else float_of_int s.blk_insns /. float_of_int s.blk_execs

(** A snapshot as a JSON object. *)
let snapshot_to_json (s : snapshot) : Json.t =
  let open Json in
  let e = s.emu in
  let cache ~hits ~misses extra =
    Obj
      ([ ("hits", Int hits); ("misses", Int misses) ]
      @ extra
      @ [ ("hit_rate", Float (hit_rate ~hits ~misses, 6)) ])
  in
  Obj
    [
      ( "decode_cache",
        cache ~hits:e.decode_hits ~misses:e.decode_misses
          [ ("invalidated_pages", Int e.decode_invalidations) ] );
      ("translation_cache", cache ~hits:s.tc_hits ~misses:s.tc_misses []);
      ( "tlb",
        cache ~hits:s.tlb_hits ~misses:s.tlb_misses
          [ ("walks", Int s.tlb_misses) ] );
      ( "superblocks",
        Obj
          [
            ("executions", Int s.blk_execs); ("builds", Int s.blk_builds);
            ("insns", Int s.blk_insns); ("deopts", Int s.blk_deopts);
            ("hit_rate", Float (block_hit_rate s, 6));
            ("avg_block_len", Float (avg_block_len s, 2));
          ] );
      ("faults", Int e.faults);
      ( "insn_mix",
        Obj
          [
            ("loads", Int e.loads); ("stores", Int e.stores);
            ("branches", Int e.branches); ("guards", Int e.guards);
            ("other", Int e.other); ("total", Int (insn_total e));
          ] );
    ]
