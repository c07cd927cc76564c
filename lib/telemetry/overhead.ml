(** Per-rewrite-site overhead attribution (the "SFI tax" profiler).

    The rewriter records a *site table*: every instruction it inserts
    or modifies, with a category (guard, retag, clamp, ...) and the
    address of the original pre-rewrite instruction it serves.  The
    table travels with the binary in a [.lfi_sites] ELF sidecar
    section, and the emulator — when attribution is armed — charges
    each fetched instruction's issue cost to its site through the
    allocation-free accumulator below.  [report] then folds the
    per-site cycles through the symbol table into a byte-stable
    [lfi-overhead/v1] JSON document.

    This module is pure data + formatting — the telemetry library has
    no dependencies, so disassembly, symbolization and the
    guard-pattern predicate are handed over by the caller as plain
    closures (same convention as {!Postmortem}). *)

(** What kind of tax a rewrite site pays.  The fixed order below is
    also the serialization code and the report order. *)
type category =
  | Guard  (** address-guard [add xD, x21, wN, uxtw] and the guarded access *)
  | Retag  (** re-tag of a reserved register after a load (x30 guard) *)
  | Clamp  (** offset materialization / combine through w22 *)
  | Sp_anchor  (** the two-instruction sp anchor [w22 := wsp; sp := x21+x22] *)
  | Rtcall_gate  (** svc lowering: call-table load + indirect call *)
  | Trampoline  (** branch-relaxation veneer (inverted branch over b) *)
  | Padding  (** alignment padding (reserved for the O3 rewriter) *)

let all_categories =
  [ Guard; Retag; Clamp; Sp_anchor; Rtcall_gate; Trampoline; Padding ]

let category_name = function
  | Guard -> "guard"
  | Retag -> "retag"
  | Clamp -> "clamp"
  | Sp_anchor -> "sp-anchor"
  | Rtcall_gate -> "rtcall-gate"
  | Trampoline -> "trampoline"
  | Padding -> "padding"

(** Short tag for inline disassembly annotation (lfi_objdump). *)
let category_tag = function
  | Guard -> "guard"
  | Retag -> "retag"
  | Clamp -> "clamp"
  | Sp_anchor -> "sp"
  | Rtcall_gate -> "gate"
  | Trampoline -> "tramp"
  | Padding -> "pad"

let category_code = function
  | Guard -> 0
  | Retag -> 1
  | Clamp -> 2
  | Sp_anchor -> 3
  | Rtcall_gate -> 4
  | Trampoline -> 5
  | Padding -> 6

let category_of_code = function
  | 0 -> Some Guard
  | 1 -> Some Retag
  | 2 -> Some Clamp
  | 3 -> Some Sp_anchor
  | 4 -> Some Rtcall_gate
  | 5 -> Some Trampoline
  | 6 -> Some Padding
  | _ -> None

type site = {
  pc : int;  (** sandbox-relative address of the rewritten instruction *)
  category : category;
  inserted : bool;
      (** [true] when the instruction did not exist before the rewrite
          (pure tax); [false] when an original instruction was modified
          in place (its cost is partly the program's own work) *)
  orig_pc : int;
      (** sandbox-relative address, in the *rewritten* image, of the
          original instruction this site serves — the anchor that lets
          reports and objdump point back at the program's own code *)
}

(* ------------------------------------------------------------------ *)
(* Accumulator                                                         *)
(* ------------------------------------------------------------------ *)

(** Allocation-free per-site cycle accumulator.  One slot per text
    word; charging is two array reads and two writes on the armed
    path, nothing on the off path (the accumulator simply isn't
    installed — same [option] discipline as [Metrics.emu]). *)
type acc = {
  sites : site array;  (** site table, pcs sandbox-relative *)
  lo : int;  (** absolute address mapped to slot 0 *)
  slot : int array;  (** text word index -> site index, or -1 *)
  execs : int array;  (** per-site executed-instruction count *)
  cycles : float array;  (** per-site charged cycles *)
  attributed : float array;
      (** single cell: running total of cycles charged to any site —
          O(1) to read, which is what the trace counter track wants *)
}

(** Build an accumulator for [sites], whose pcs are relative to
    sandbox base [base] (pass [~base:0] for images run at their link
    address). *)
let create ~(base : int) (sites : site list) : acc =
  let sites = Array.of_list sites in
  Array.sort (fun a b -> compare (a.pc, a.orig_pc) (b.pc, b.orig_pc)) sites;
  let n = Array.length sites in
  if n = 0 then
    {
      sites;
      lo = 0;
      slot = [||];
      execs = [||];
      cycles = [||];
      attributed = [| 0.0 |];
    }
  else begin
    let lo = ref max_int and hi = ref min_int in
    Array.iter
      (fun s ->
        if s.pc < !lo then lo := s.pc;
        if s.pc > !hi then hi := s.pc)
      sites;
    let words = ((!hi - !lo) lsr 2) + 1 in
    let slot = Array.make words (-1) in
    Array.iteri (fun i s -> slot.((s.pc - !lo) lsr 2) <- i) sites;
    {
      sites;
      lo = base + !lo;
      slot;
      execs = Array.make n 0;
      cycles = Array.make n 0.0;
      attributed = [| 0.0 |];
    }
  end

(** Charge [cost] cycles for the instruction fetched at absolute
    address [pc].  Instructions outside any site are ignored. *)
let[@inline] charge (a : acc) (pc : int) (cost : float) =
  let idx = (pc - a.lo) lsr 2 in
  (* negative differences become huge after [lsr], so one unsigned
     bound check covers both ends *)
  if idx < Array.length a.slot then begin
    let s = Array.unsafe_get a.slot idx in
    if s >= 0 then begin
      Array.unsafe_set a.execs s (Array.unsafe_get a.execs s + 1);
      Array.unsafe_set a.cycles s (Array.unsafe_get a.cycles s +. cost);
      Array.unsafe_set a.attributed 0
        (Array.unsafe_get a.attributed 0 +. cost)
    end
  end

(** Running total of cycles charged to rewrite sites. *)
let attributed_cycles (a : acc) = a.attributed.(0)

(* ------------------------------------------------------------------ *)
(* Report                                                              *)
(* ------------------------------------------------------------------ *)

(** One paired-run data point: optimization level name and the cycle
    count of the same workload rewritten at that level. *)
type level = { lv_name : string; lv_cycles : float }

let pct ~base v = (v -. base) /. base *. 100.0

(** Render the byte-stable [lfi-overhead/v1] report.

    [symbol_of] maps a (sandbox-relative) site pc to the pretty form
    ["sym+0x12"]; per-symbol folding groups on the part before ['+'].
    [disasm_of] renders the instruction at a site pc.  [guard_insn]
    says whether the instruction at a pc matches the fundamental
    guard pattern that [Metrics] counts — the report carries the sum
    of executions over such sites so it can be reconciled against the
    aggregate guard counter. *)
let report ~(workload : string) ~(uarch : string) ~(total_cycles : float)
    ~(total_insns : int) ~(native_cycles : float option)
    ~(levels : level list) ~(symbol_of : int -> string option)
    ~(disasm_of : int -> string) ~(guard_insn : int -> bool) ?(top = 10)
    (a : acc) : string =
  let n = Array.length a.sites in
  (* pure tax: cycles charged to *inserted* sites; modified sites do
     work the original program needed anyway *)
  let tax = ref 0.0 and attributed = ref 0.0 in
  Array.iteri
    (fun i s ->
      attributed := !attributed +. a.cycles.(i);
      if s.inserted then tax := !tax +. a.cycles.(i))
    a.sites;
  let open Json in
  let f2 v = Float (v, 2) in
  let levels =
    List.map
      (fun lv ->
        Obj
          ([ ("opt", Str lv.lv_name); ("cycles", f2 lv.lv_cycles) ]
          @
          match native_cycles with
          | Some base when base > 0.0 ->
              [ ("overhead_pct", f2 (pct ~base lv.lv_cycles)) ]
          | _ -> []))
      levels
  in
  (* per-category rollup, all categories always present in fixed order *)
  let categories =
    List.map
      (fun cat ->
        let sites = ref 0 and ins = ref 0 and ex = ref 0 and cy = ref 0.0 in
        let tax_cy = ref 0.0 in
        Array.iteri
          (fun i s ->
            if s.category = cat then begin
              incr sites;
              if s.inserted then begin
                incr ins;
                tax_cy := !tax_cy +. a.cycles.(i)
              end;
              ex := !ex + a.execs.(i);
              cy := !cy +. a.cycles.(i)
            end)
          a.sites;
        Obj
          [
            ("category", Str (category_name cat)); ("sites", Int !sites);
            ("inserted_sites", Int !ins); ("execs", Int !ex);
            ("cycles", f2 !cy);
            ("tax_cycles", f2 !tax_cy);
            ( "share_pct",
              f2
                (if total_cycles > 0.0 then !cy /. total_cycles *. 100.0
                 else 0.0) );
          ])
      all_categories
  in
  (* per-symbol rollup of attributed cycles *)
  let by_sym : (string, int ref * float ref) Hashtbl.t = Hashtbl.create 16 in
  Array.iteri
    (fun i s ->
      if a.execs.(i) > 0 then begin
        let name =
          match symbol_of s.pc with
          | None -> "?"
          | Some pretty -> (
              match String.index_opt pretty '+' with
              | Some j -> String.sub pretty 0 j
              | None -> pretty)
        in
        let ex, cy =
          match Hashtbl.find_opt by_sym name with
          | Some cell -> cell
          | None ->
              let cell = (ref 0, ref 0.0) in
              Hashtbl.add by_sym name cell;
              cell
        in
        ex := !ex + a.execs.(i);
        cy := !cy +. a.cycles.(i)
      end)
    a.sites;
  let syms =
    Hashtbl.fold (fun name (ex, cy) l -> (name, !ex, !cy) :: l) by_sym []
    |> List.sort (fun (n1, _, c1) (n2, _, c2) ->
           match compare c2 c1 with 0 -> compare n1 n2 | c -> c)
  in
  (* hot sites, ranked by charged cycles *)
  let order = Array.init n (fun i -> i) in
  Array.sort
    (fun i j ->
      match compare a.cycles.(j) a.cycles.(i) with
      | 0 -> compare a.sites.(i).pc a.sites.(j).pc
      | c -> c)
    order;
  let hot =
    Array.to_list order
    |> List.filter (fun i -> a.execs.(i) > 0)
    |> List.filteri (fun k _ -> k < top)
  in
  (* reconciliation hook: executions of sites whose instruction is the
     fundamental guard pattern must equal the aggregate [Metrics]
     guard counter for the same run *)
  let guard_execs = ref 0 in
  Array.iteri
    (fun i s -> if guard_insn s.pc then guard_execs := !guard_execs + a.execs.(i))
    a.sites;
  let hot_site i =
    let s = a.sites.(i) in
    Obj
      [
        ("pc", Str (Printf.sprintf "0x%x" s.pc));
        ("category", Str (category_name s.category));
        ("inserted", Bool s.inserted);
        ("orig_pc", Str (Printf.sprintf "0x%x" s.orig_pc));
        ( "symbol",
          match symbol_of s.pc with None -> Null | Some sym -> Str sym );
        ("execs", Int a.execs.(i)); ("cycles", f2 a.cycles.(i));
        ("insn", Str (disasm_of s.pc));
      ]
  in
  let symbol (name, ex, cy) =
    Obj [ ("symbol", Str name); ("execs", Int ex); ("cycles", f2 cy) ]
  in
  to_pretty
    (Obj
       [
         ("schema", Str "lfi-overhead/v1"); ("workload", Str workload);
         ("uarch", Str uarch); ("insns", Int total_insns);
         ("total_cycles", f2 total_cycles);
         ("attributed_cycles", f2 !attributed);
         ("overhead_cycles", f2 !tax);
         ( "overhead_fraction",
           Float
             ((if total_cycles > 0.0 then !tax /. total_cycles else 0.0), 4) );
         ( "native_cycles",
           match native_cycles with None -> Null | Some c -> f2 c );
         ("levels", Arr levels); ("categories", Arr categories);
         ("symbols", Arr (List.map symbol syms));
         ("hot_sites", Arr (List.map hot_site hot));
         ("guard_insn_execs", Int !guard_execs);
       ])
