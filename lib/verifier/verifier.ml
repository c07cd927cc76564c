(** The LFI static verifier (Section 5.2).

    A single linear pass over the *machine code* of a text segment.  The
    verifier decodes the bytes itself — the compiler and rewriter that
    produced them are untrusted — and checks that executing any path
    through the code can never leave the sandbox:

    1. loads, stores and indirect branches only go through reserved
       registers (x18/x23/x24, sp, x21, x30) or the guarded addressing
       mode [\[x21, wN, uxtw\]];
    2. reserved registers are only written by invariant-preserving
       guards: x21 never, x18/x23/x24 only via [add xR, x21, wN, uxtw],
       x22 only with a 32-bit destination, x30 only by bl/blr, its
       guard, the runtime-table load immediately followed by [blr x30],
       or any write immediately followed by the x30 guard; sp only via
       its two-instruction guard, sp-based pre/post-indexing, or a
       small immediate adjustment followed by an sp access;
    3. no unsafe instructions ([svc], [mrs]/[msr], undefined encodings,
       [ldp] into one register twice, and — when configured, cf. §7.1 —
       LL/SC exclusives);
    4. direct branches stay within the text segment.

    The pass is strictly local: each rule looks at one instruction and
    at most a bounded forward window, which is what keeps the verifier
    small and fast. *)

open Lfi_arm64

type config = {
  sandbox_loads : bool;
      (** verify loads too (full isolation); [false] checks a
          stores-and-jumps-only binary *)
  allow_exclusives : bool;
  unsafe_no_uxtw_check : bool;
      (** DELIBERATELY UNSOUND, for the fuzzing oracle only
          (DESIGN.md §5d): accept any register-offset addressing mode
          based on x21, not just the [\[x21, wN, uxtw\]] guard.  The
          soundness engine uses this to prove the escape oracle can
          catch a weakened verifier; it must never be set in a
          loader. *)
  unsafe_no_sp_drift_check : bool;
      (** DELIBERATELY UNSOUND, same purpose: accept any immediate in
          the drift-then-access sp pattern, including shifted
          immediates far beyond the guard region. *)
}

let default_config =
  { sandbox_loads = true; allow_exclusives = true;
    unsafe_no_uxtw_check = false; unsafe_no_sp_drift_check = false }

(** The verifier config that checks what the rewriter emits at [c]. *)
let config_of (c : Lfi_core.Config.t) : config =
  { default_config with
    sandbox_loads = c.Lfi_core.Config.sandbox_loads;
    allow_exclusives = c.Lfi_core.Config.allow_exclusives }

(** The deliberate weakenings as an enumerable set, so the soundness
    fuzzer, the symbolic prover and the tests all iterate the same
    list instead of hard-coding one knob (DESIGN.md §5d, §5i). *)
type weakening = No_uxtw_check | No_sp_drift_check

let all_weakenings = [ No_uxtw_check; No_sp_drift_check ]

let weakening_name = function
  | No_uxtw_check -> "no-uxtw-check"
  | No_sp_drift_check -> "no-sp-drift-check"

let weakening_of_name s =
  List.find_opt (fun w -> weakening_name w = s) all_weakenings

let weaken config = function
  | No_uxtw_check -> { config with unsafe_no_uxtw_check = true }
  | No_sp_drift_check -> { config with unsafe_no_sp_drift_check = true }

type violation = {
  index : int;  (** instruction index within the text segment *)
  offset : int;  (** byte offset of the instruction *)
  pc : int;  (** faulting address ([origin] + [offset]) *)
  insn : Insn.t;
  rule : string;
  context : (int * Insn.t) list;
      (** the faulting instruction and up to two neighbours on each
          side, as [(pc, insn)] pairs, for the error report *)
}

(** Multi-line report: the faulting pc, the disassembled instruction
    and the rule, then the surrounding instructions with the culprit
    marked — enough to find the site in a listing without re-running
    the disassembler by hand. *)
let pp_violation fmt v =
  Format.fprintf fmt "0x%x (+0x%x): %s: %s" v.pc v.offset
    (Printer.to_string v.insn) v.rule;
  List.iter
    (fun (pc, i) ->
      Format.fprintf fmt "@.  %s 0x%x:  %s"
        (if pc = v.pc then ">" else " ")
        pc (Printer.to_string i))
    v.context

type result_ok = { checked : int; bytes : int }

(* Register classification *)

let reserved_addr_number = function 18 | 23 | 24 -> true | _ -> false

let is_guarded_addressing = function
  (* the zero-cost guard: [x21, wN, uxtw] with no shift *)
  | Insn.Reg_off (Reg.R (Reg.W64, 21), Reg.R (Reg.W32, _), Insn.Uxtw, 0) ->
      true
  | _ -> false

let x30_guard = Insn.Alu
    { op = Insn.ADD; flags = false; dst = Reg.R (Reg.W64, 30);
      src = Reg.R (Reg.W64, 21);
      op2 = Insn.Ext (Reg.R (Reg.W32, 30), Insn.Uxtw, 0) }

let is_x30_guard i = Insn.equal i x30_guard

let is_guard_write_to n = function
  | Insn.Alu
      { op = Insn.ADD; flags = false; dst = Reg.R (Reg.W64, d);
        src = Reg.R (Reg.W64, 21);
        op2 = Insn.Ext (Reg.R (Reg.W32, _), Insn.Uxtw, 0) } ->
      d = n
  | _ -> false

let is_sp_guard = function
  | Insn.Alu
      { op = Insn.ADD; flags = false; dst = Reg.SP Reg.W64;
        src = Reg.R (Reg.W64, 21);
        op2 = Insn.Ext (Reg.R (Reg.W64, 22), Insn.Uxtx, 0) } ->
      true
  | _ -> false

let is_table_load = function
  | Insn.Ldr
      { sz = Insn.X; signed = false; dst = Reg.R (Reg.W64, 30);
        addr = Insn.Imm_off (Reg.R (Reg.W64, 21), n) } ->
      n >= 0 && n < Lfi_core.Layout.rtcall_table_size && n mod 8 = 0
  | _ -> false

let is_blr_x30 = function
  | Insn.Blr (Reg.R (Reg.W64, 30)) -> true
  | _ -> false

(* Immediate offsets on sp and the reserved registers must stay inside
   the 48KiB guard regions.  Negative encodable offsets bottom out at
   -1024 (pair pre/post on q registers); positive *scaled* offsets
   reach 4095 x 16 = 65520 bytes on q registers, which overruns the
   guard, so the whole access is capped at [Layout.max_mem_immediate]
   (the bound the rewriter materializes larger offsets down to). *)
let imm_off_in_guard i off =
  off < 0 || off + Insn.access_bytes i <= Lfi_core.Layout.max_mem_immediate

let is_sp_based_access (i : Insn.t) =
  Insn.is_memory i
  &&
  match Insn.addr_of i with
  | Some (Insn.Imm_off (b, _) | Insn.Pre (b, _) | Insn.Post (b, _)) ->
      Reg.is_sp b
  | _ -> false

(* ------------------------------------------------------------------ *)

let is_udf = function Insn.Udf _ -> true | _ -> false

(* What re-anchors sp first after an sp-modifying instruction (§4.2)?
   [`Guard]  — the full sp guard overwrites sp with a valid address,
               which heals *any* prior modification;
   [`Access] — an sp-based access traps in a guard page, which only
               covers small-immediate drift;
   [`Nothing] — a branch, another sp write, or an undefined encoding
               comes first (as does the end of the code): unsafe;
   [`Open] — none of these: look at the next instruction. *)
let sp_anchor i =
  if is_sp_guard i then `Guard
  else if is_sp_based_access i then `Access
  else if Insn.writes_sp i || Insn.is_branch i || is_udf i then `Nothing
  else `Open

(* Is an [`Access] anchor enough for the sp write [i]? *)
let sp_drift_ok config = function
  | Insn.Alu
      { op = Insn.ADD | Insn.SUB; flags = false; dst = Reg.SP Reg.W64;
        src = Reg.SP Reg.W64; op2 = Insn.Imm (v, sh) } ->
      (sh = 0 && v < Lfi_core.Layout.max_sp_drift)
      (* fuzzing-only hole: trusts any immediate drift, so a [lsl #12]
         bit flip walks sp past the guard *)
      || config.unsafe_no_sp_drift_check
  | _ -> false

(** One pass that decodes each word when the walk reaches it and keeps
    no decoded text: the current instruction, the next one (for the
    rules that look one ahead) and at most one sp write whose anchor
    the walk has not reached yet.  Violations found while an sp write
    is pending are held back and reported after its own, so the order
    is that of the instructions.  Only a violation's context decodes
    its neighbours again. *)
let verify ?(config = default_config) ?(origin = 0) ~(code : bytes) () :
    (result_ok, violation list) result =
  let n = Bytes.length code / 4 in
  let decode j =
    Isa.decode (Int32.to_int (Bytes.get_int32_le code (j * 4)) land 0xFFFFFFFF)
  in
  let report index rule =
    let lo = max 0 (index - 2) and hi = min (n - 1) (index + 2) in
    { index; offset = index * 4; pc = origin + (index * 4);
      insn = decode index; rule;
      context =
        List.init (hi - lo + 1) (fun k ->
            let j = lo + k in
            (origin + (j * 4), decode j)) }
  in
  (* both reversed; [held] are the violations after the pending sp
     write *)
  let violations = ref [] and held = ref [] in
  let pending = ref (-1) and pending_drift_ok = ref false in
  let fail index rule =
    if !pending < 0 then violations := report index rule :: !violations
    else held := report index rule :: !held
  in
  let resolve anchor =
    let p = !pending in
    pending := -1;
    (match anchor with
    | `Guard -> ()
    | `Access ->
        if not !pending_drift_ok then
          fail p "sp drift too large for the guard region"
    | `Nothing -> fail p "unguarded write to sp");
    violations := !held @ !violations;
    held := []
  in
  (* the instruction at [idx] and the one after it, or [Nop] past the
     end (never looked at: [next_is] checks the bound) *)
  let cur = ref Insn.Nop and next = ref (if n > 0 then decode 0 else Insn.Nop) in
  let next_is idx p = idx + 1 < n && p !next in
  (* ---- rule 2: reserved register writes, one written register [r]
     of the instruction at [idx] ---- *)
  let check_write idx r =
    let i = !cur in
    (match r with
    | Reg.SP _ ->
        if is_sp_guard i then ()
        else if is_sp_based_access i then
          (* sp-based pre/post indexing: immediate capped at 256 bytes
             by the encoding, within guard-region drift *)
          ()
        else (
          (* decided when the walk reaches what anchors sp *)
          pending := idx;
          pending_drift_ok := sp_drift_ok config i)
    | Reg.R (w, rn) -> (
        match rn with
        | 21 -> fail idx "write to x21 (sandbox base) forbidden"
        | 18 | 23 | 24 ->
            if not (is_guard_write_to rn i) then
              fail idx
                (Printf.sprintf "x%d may only be written by its guard" rn)
        | 22 ->
            if w <> Reg.W32 then fail idx "x22 must be written as w22 (32-bit)"
        | 30 -> (
            match i with
            | Insn.Bl _ | Insn.Blr _ -> ()
            | _ when is_x30_guard i -> ()
            | _ when is_table_load i ->
                if not (next_is idx is_blr_x30) then
                  fail idx "runtime-table load must be followed by blr x30"
            | _ ->
                if not (next_is idx is_x30_guard) then
                  fail idx "write to x30 must be followed by its guard")
        | _ -> ())
    | Reg.ZR _ -> ());
    idx
  in

  for idx = 0 to n - 1 do
    let i = !next in
    cur := i;
    next := if idx + 1 < n then decode (idx + 1) else Insn.Nop;
    (* an sp write waiting for its anchor: is it this instruction? *)
    (if !pending >= 0 then
       match sp_anchor i with
       | `Open -> ()
       | (`Guard | `Access | `Nothing) as anchor -> resolve anchor);
    (* ---- rule 3: instruction allow-list ---- *)
    (match i with
    | Insn.Udf _ -> fail idx "undefined or unsupported encoding"
    | Insn.Svc _ -> fail idx "direct system calls are forbidden"
    | Insn.Mrs _ | Insn.Msr _ -> fail idx "system register access forbidden"
    | Insn.Ldxr _ | Insn.Stxr _ | Insn.Ldar _ | Insn.Stlr _
      when not config.allow_exclusives ->
        fail idx "LL/SC and acquire/release disabled (S2C hardening)"
    | _ when Insn.ldp_overlap i ->
        (* the UNKNOWN value it may leave is beyond every rule *)
        fail idx "ldp loads one register twice"
    | _ -> ());
    (* ---- rule 1: memory accesses ---- *)
    (if Insn.is_memory i
        && (Insn.is_store i || (Insn.is_load i && config.sandbox_loads))
     then
       match Insn.addr_of i with
       | None -> ()
       | Some addr -> (
           let base = Insn.addr_base addr in
           match addr with
           | _ when is_guarded_addressing addr -> ()
           | Insn.Reg_off (Reg.R (Reg.W64, 21), _, _, _)
             when config.unsafe_no_uxtw_check ->
               (* fuzzing-only hole: trusts the index extension, so an
                  [uxtw -> uxtx/lsl] bit flip slips through *)
               ()
           | Insn.Imm_off (b, off) when Reg.is_sp b ->
               if not (imm_off_in_guard i off) then
                 fail idx "scaled offset overruns the guard margin"
           | (Insn.Pre (b, _) | Insn.Post (b, _)) when Reg.is_sp b -> ()
           | Insn.Imm_off (Reg.R (Reg.W64, 21), _) ->
               (* x21 is the sandbox base itself: any encodable
                  immediate lands inside the 4GiB sandbox *)
               ()
           | Insn.Imm_off (Reg.R (Reg.W64, bn), off)
             when reserved_addr_number bn ->
               if not (imm_off_in_guard i off) then
                 fail idx "scaled offset overruns the guard margin"
           | (Insn.Pre (Reg.R (Reg.W64, bn), _)
             | Insn.Post (Reg.R (Reg.W64, bn), _))
             when reserved_addr_number bn ->
               (* writes back to a reserved register: caught below
                  unless it is also guarded, which it never is *)
               fail idx "writeback to reserved register"
           | _ ->
               fail idx
                 (Printf.sprintf "unguarded memory access via %s"
                    (Reg.to_string base))))
    ;
    ignore (Insn.fold_writes check_write idx i : int);
    (* ---- rule 1 (branches) + rule 4 ---- *)
    (match i with
    | Insn.Br r | Insn.Blr r | Insn.Ret r -> (
        match r with
        | Reg.R (Reg.W64, rn) when reserved_addr_number rn || rn = 30 -> ()
        | _ ->
            fail idx
              (Printf.sprintf "indirect branch through %s"
                 (Reg.to_string r)))
    | Insn.B t | Insn.Bl t | Insn.Bcond (_, t)
    | Insn.Cbz { target = t; _ } | Insn.Tbz { target = t; _ } -> (
        match t with
        | Insn.Off d ->
            let target = (idx * 4) + d in
            if target < 0 || target >= n * 4 then
              fail idx "direct branch leaves the text segment"
        | Insn.Sym _ -> fail idx "unresolved symbol in machine code")
    | _ -> ())
  done;
  (* the end of the code anchors nothing *)
  if !pending >= 0 then resolve `Nothing;
  if !violations = [] then Ok { checked = n; bytes = Bytes.length code }
  else Error (List.rev !violations)

type elf_error =
  | No_executable_segment
  | Rejected of violation list  (** never empty *)

(** Verify an ELF's executable segment at its load address, so
    violation pcs match the disassembler's and the runtime's. *)
let verify_elf ?config (elf : Lfi_elf.Elf.t) : (result_ok, elf_error) result =
  match Lfi_elf.Elf.text_segment elf with
  | None -> Error No_executable_segment
  | Some seg ->
      verify ?config ~origin:seg.Lfi_elf.Elf.vaddr ~code:seg.Lfi_elf.Elf.data ()
      |> Result.map_error (fun vs -> Rejected vs)

(** One line for a loader's error: the first violation and how many
    more there are. *)
let elf_error_message = function
  | No_executable_segment -> "no executable segment"
  | Rejected vs ->
      Format.asprintf "verification failed: %a (+%d more)" pp_violation
        (List.hd vs) (List.length vs - 1)
