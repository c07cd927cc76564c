(** Execution facade: the runtime's entry point into the emulator.

    Re-exports the single-step path ({!Interp}: [step], the
    [event]/[trap] types) and runs whole quanta on the superblock
    engine ({!Block}).  There is one dispatch engine: the metrics
    counters, the pc-sampling profiler and per-site overhead
    attribution observe each retired run of instructions inside it
    ({!Interp.observe}), and the flight recorder and the escape oracle
    observe inside the lowered code itself (DESIGN.md §5f). *)

include Interp

(** Run until an event occurs or [quantum] instructions have executed. *)
let run = Block.run
