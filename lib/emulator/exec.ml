(** Execution facade: the runtime's entry point into the emulator.

    Re-exports the single-step loop ({!Interp}: [step], the
    [event]/[trap] types) and routes whole quanta ({!run}) to the
    superblock engine ({!Block}) unless an observer needs
    per-instruction accounting.  Both run the same lowered semantics
    ({!Sem}).

    Deopt triggers — any of these forces the step loop for the whole
    quantum (DESIGN.md §5f):
    - [m.metrics] armed: per-instruction class counts and decode-cache
      telemetry only exist on the step loop;
    - [m.profile] armed: the pc-sampling profiler needs [m.insns]
      maintained every instruction;
    - [m.overhead] armed: per-site cycle attribution charges at fetch
      time, which only the step loop performs per instruction;
    - [m.blocks_enabled = false]: the per-machine kill switch
      (seeded from [LFI_SUPERBLOCKS]).

    The flight recorder and the escape oracle are NOT deopt triggers:
    the lowered code itself records taken branches and guard-clamp
    audits, and checks every data access and branch target, against
    each instruction's own pc. *)

include Interp

let[@inline] blocks_armed (m : Machine.t) : bool =
  m.Machine.blocks_enabled
  && (match m.Machine.metrics with None -> true | Some _ -> false)
  && (match m.Machine.profile with None -> true | Some _ -> false)
  && (match m.Machine.overhead with None -> true | Some _ -> false)

(** Run until an event occurs or [quantum] instructions have executed. *)
let run (m : Machine.t) ~(quantum : int) : event =
  if blocks_armed m then Block.run m ~quantum
  else begin
    if m.Machine.blocks_enabled then
      m.Machine.blk_deopts <- m.Machine.blk_deopts + 1;
    Interp.run m ~quantum
  end
