(** Running one program under one sandboxing system and measuring it.

    This is the "runcpu + specinvoke" of the reproduction: every
    experiment compiles a MiniC workload for a given system, runs it to
    completion in the emulator, and reports simulated cycles. *)

open Lfi_emulator

type system =
  | Native  (** unsandboxed, hosted by the LFI runtime (the paper's
                baseline, §6.1) *)
  | Native_kvm  (** unsandboxed under nested paging (Figure 5) *)
  | Lfi of Lfi_core.Config.t
  | Wasm of Lfi_wasm.Engine.t

let system_name = function
  | Native -> "native"
  | Native_kvm -> "KVM"
  | Lfi c -> Lfi_core.Config.name c
  | Wasm e -> e.Lfi_wasm.Engine.name

type result = {
  exit_code : int;
  cycles : float;
  insns : int;
  text_bytes : int;  (** text-segment size of the executable *)
  file_bytes : int;  (** whole ELF size *)
  tlb_miss_rate : float;
}

exception Run_failure of string

(** Compile [prog] for [system] and return the ELF image. *)
let build (system : system) (prog : Lfi_minic.Ast.program) : Lfi_elf.Elf.t =
  let config = match system with Lfi c -> Some c | _ -> None in
  Lfi_core.Build.elf config
    (match system with
    | Wasm engine ->
        Lfi_wasm.Compile_wasm.compile engine (Lfi_wasm.From_minic.lower prog)
    | Native | Native_kvm | Lfi _ -> Lfi_minic.Compile.compile prog)

let personality = function
  | Native | Native_kvm | Wasm _ -> Lfi_runtime.Proc.Native_in_lfi_runtime
  | Lfi _ -> Lfi_runtime.Proc.Lfi

(** Execute a prebuilt image, returning the runtime too (so callers
    can read telemetry off it).  [metrics] turns the emulator counters
    on before the run; [overhead] arms per-site cycle attribution
    (effective only when the image carries a [.lfi_sites] table). *)
let execute_rt ?(uarch = Cost_model.m1) ?(metrics = false)
    ?(overhead = false) (system : system) (elf : Lfi_elf.Elf.t) :
    result * Lfi_runtime.Runtime.t =
  let verifier_config =
    match system with
    | Lfi c -> Lfi_verifier.Verifier.config_of c
    | _ -> Lfi_verifier.Verifier.default_config
  in
  let config =
    { Lfi_runtime.Runtime.default_config with uarch; verifier_config }
  in
  let rt = Lfi_runtime.Runtime.create ~config () in
  if metrics then ignore (Lfi_runtime.Runtime.enable_metrics rt);
  if system = Native_kvm then
    rt.Lfi_runtime.Runtime.machine.Machine.nested_paging <- true;
  let p = Lfi_runtime.Runtime.load rt ~personality:(personality system) elf in
  if overhead then ignore (Lfi_runtime.Runtime.enable_overhead rt p);
  let reason, _out, cycles, insns = Lfi_runtime.Runtime.run_one rt p in
  let exit_code =
    match reason with
    | Lfi_runtime.Runtime.Exited c -> c
    | Lfi_runtime.Runtime.Killed why ->
        raise
          (Run_failure
             (Printf.sprintf "%s killed: %s" (system_name system) why))
  in
  ( {
      exit_code;
      cycles;
      insns;
      text_bytes = Lfi_elf.Elf.text_size elf;
      file_bytes = Lfi_elf.Elf.total_size elf;
      tlb_miss_rate = Tlb.miss_rate rt.Lfi_runtime.Runtime.machine.Machine.tlb;
    },
    rt )

(** Execute a prebuilt image. *)
let execute ?uarch (system : system) (elf : Lfi_elf.Elf.t) : result =
  fst (execute_rt ?uarch system elf)

let run ?uarch (system : system) (prog : Lfi_minic.Ast.program) : result =
  execute ?uarch system (build system prog)

(** Percent increase of [v] over baseline [base]. *)
let overhead ~base v = (v -. base) /. base *. 100.0

let geomean (xs : float list) =
  match xs with
  | [] -> nan
  | _ ->
      (* geometric mean of ratios (1 + overhead/100), reported back as
         percent overhead, as SPEC tools do *)
      let logs = List.map (fun x -> log (1.0 +. (x /. 100.0))) xs in
      (exp (List.fold_left ( +. ) 0.0 logs /. float_of_int (List.length logs))
      -. 1.0)
      *. 100.0

(* ------------------------------------------------------------------ *)
(* Cached running (several experiments share the same measurements)   *)
(* ------------------------------------------------------------------ *)

let cache : (string, result) Hashtbl.t = Hashtbl.create 64

(** Run a named workload under [system], memoized on
    (workload, system, uarch, nested). *)
let run_cached ?(uarch = Cost_model.m1) (system : system)
    (w : Lfi_workloads.Common.t) : result =
  let key =
    Printf.sprintf "%s/%s/%s" w.Lfi_workloads.Common.short
      (system_name system) uarch.Cost_model.name
  in
  match Hashtbl.find_opt cache key with
  | Some r -> r
  | None ->
      let r = run ~uarch system w.Lfi_workloads.Common.program in
      Hashtbl.replace cache key r;
      r
