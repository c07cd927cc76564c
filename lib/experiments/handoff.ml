(** Direct-yield handoff cost, in cycles.

    The paper's multi-tenant serving story leans on one number: an
    optimized [yield_to] between two sandboxes in the same address
    space costs on the order of {e 50 cycles} — no kernel, no page
    table switch, just a register-state swap plus scheduler
    bookkeeping.  Our runtime's version of that number is Table 5's
    yield cost, {!Table5.measure} (two sandboxes ping-ponging through
    the real runtime-call table, verifier-clean code, the real
    {!Lfi_sched.Runq} promote path); this module reports it in
    {e simulated cycles} rather than nanoseconds, so the serve bench
    can print it next to the paper's claim.

    The measured figure decomposes as [lfi_yield_direct] (the modeled
    hardware cost of the register swap: 42 cycles on m1, 46 on t2a)
    plus {!Lfi_runtime.Runtime.lfi_sched_bookkeeping} (8 cycles of
    scheduler accounting), and the loop overhead around it — landing in
    the same tens-of-cycles regime as the paper on both cost models. *)

open Lfi_emulator

(** The number the paper's §2 design discussion cites for an optimized
    same-address-space domain switch. *)
let paper_cycles = 50.0

(** The serve suite's [yield_handoff] entry for [uarch], from Table 5's
    costs on it: handoffs measured, the whole run and one handoff in
    simulated cycles, the modeled switch alone ([lfi_yield_direct] +
    scheduler bookkeeping) and one handoff in ns at the model's
    clock. *)
let to_json (uarch : Cost_model.t) (c : Table5.costs) : Lfi_telemetry.Json.t =
  let open Lfi_telemetry.Json in
  Obj
    [
      ("iters", Int Table5.yield_ops);
      ("total_cycles", Float (c.Table5.yield_run, 1));
      ("cycles_per_handoff", Float (c.Table5.yield, 1));
      ( "switch_cycles",
        Float
          ( uarch.Cost_model.lfi_yield_direct
            +. Lfi_runtime.Runtime.lfi_sched_bookkeeping,
            1 ) );
      ( "ns_per_handoff",
        Float (Cost_model.cycles_to_ns uarch c.Table5.yield, 2) );
    ]
