(* Tests for the SFI overhead-attribution profiler: the [.lfi_sites]
   ELF sidecar round-trip, the per-site cycle accumulator (off by
   default, reconcilable with the aggregate guard counter), the
   byte-stable [lfi-overhead/v1] report, and the lfi_objdump site
   annotations. *)

open Lfi_arm64
module Overhead = Lfi_telemetry.Overhead

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

(* Same deterministic workload as test_telemetry: a counted store/load
   loop plus one runtime call.  O0 keeps one explicit guard per
   sandboxed access, so every site category the loop can produce is
   populated. *)
let loop_asm =
  "_start:\n\
   \tmovz x0, #64\n\
   \tadr x1, buf\n\
   loop:\n\
   \tstr x0, [x1]\n\
   \tldr x2, [x1]\n\
   \tsub x0, x0, #1\n\
   \tcbnz x0, loop\n\
   \tmovz x0, #0\n\
   \tsvc #1\n\
   \tb _start\n\
   .data\n\
   buf:\n\
   \t.quad 0\n"

let o0 = { Lfi_core.Config.default with Lfi_core.Config.opt = Lfi_core.Config.O0 }

(** Rewrite [asm] and build an ELF carrying its [.lfi_sites] table. *)
let build_sited ?config asm =
  let native = Parser.parse_string_exn asm in
  let rewritten, stats = Lfi_core.Rewriter.rewrite ?config native in
  let sites =
    Lfi_core.Rewriter.resolve_sites ~input:native ~output:rewritten stats
  in
  Lfi_elf.Elf.of_image ~sites (Assemble.assemble rewritten)

let show_site (s : Overhead.site) =
  Printf.sprintf "%x:%s:%b:%x" s.Overhead.pc
    (Overhead.category_name s.Overhead.category)
    s.Overhead.inserted s.Overhead.orig_pc

(* same closures lfi_run hands to [Overhead.report] *)
let decode_at (elf : Lfi_elf.Elf.t) (pc : int) : Insn.t option =
  match Lfi_elf.Elf.text_segment elf with
  | Some s
    when pc >= s.Lfi_elf.Elf.vaddr
         && pc + 4 <= s.Lfi_elf.Elf.vaddr + Bytes.length s.Lfi_elf.Elf.data
    -> (
      let word =
        Int32.to_int
          (Bytes.get_int32_le s.Lfi_elf.Elf.data (pc - s.Lfi_elf.Elf.vaddr))
        land 0xffffffff
      in
      try Some (Isa.decode word) with _ -> None)
  | _ -> None

let is_guard_insn (elf : Lfi_elf.Elf.t) (pc : int) : bool =
  match decode_at elf pc with
  | Some
      (Insn.Alu
        { op = Insn.ADD; flags = false; src = Reg.R (Reg.W64, 21);
          op2 = Insn.Ext (_, (Insn.Uxtw | Insn.Uxtx), 0); _ }) ->
      true
  | _ -> false

(* ---------------- ELF sidecar ---------------- *)

let test_sites_roundtrip () =
  let elf = build_sited ~config:o0 loop_asm in
  checkb "rewriter produced sites" (elf.Lfi_elf.Elf.sites <> []) true;
  let elf' = Lfi_elf.Elf.read (Lfi_elf.Elf.write elf) in
  checks "sites survive write/read"
    (String.concat "," (List.map show_site elf.Lfi_elf.Elf.sites))
    (String.concat "," (List.map show_site elf'.Lfi_elf.Elf.sites));
  (* the sidecar does not disturb the symbol table next to it *)
  Alcotest.(check (list (pair string int)))
    "symbols still round-trip" elf.Lfi_elf.Elf.symbols
    elf'.Lfi_elf.Elf.symbols

let test_sitefree_unchanged () =
  let elf = build_sited ~config:o0 loop_asm in
  (* no symbols and no sites: no section headers at all, as the seed
     writer produced *)
  let bare = { elf with Lfi_elf.Elf.symbols = []; sites = [] } in
  let bytes = Lfi_elf.Elf.write bare in
  checki "no section headers when sidecar-free"
    (Lfi_elf.Elf.total_size bare) (Bytes.length bytes);
  checkb "reads back site-free"
    ((Lfi_elf.Elf.read bytes).Lfi_elf.Elf.sites = [])
    true;
  (* symbols without sites: sidecar absent, not an empty section *)
  let nosites = { elf with Lfi_elf.Elf.sites = [] } in
  let elf' = Lfi_elf.Elf.read (Lfi_elf.Elf.write nosites) in
  checkb "no phantom sites" (elf'.Lfi_elf.Elf.sites = []) true

(* ---------------- accumulator ---------------- *)

let run_loop ~overhead () =
  let rt = Lfi_runtime.Runtime.create () in
  let elf = build_sited ~config:o0 loop_asm in
  let p = Lfi_runtime.Runtime.load rt ~personality:Lfi_runtime.Proc.Lfi elf in
  if overhead then ignore (Lfi_runtime.Runtime.enable_overhead rt p);
  let _reason, _out, cycles, insns = Lfi_runtime.Runtime.run_one rt p in
  (rt, elf, cycles, insns)

let test_off_by_default () =
  let rt0, _, c0, i0 = run_loop ~overhead:false () in
  checkb "no accumulator by default"
    (Lfi_runtime.Runtime.overhead_acc rt0 = None)
    true;
  let rt1, _, c1, i1 = run_loop ~overhead:true () in
  match Lfi_runtime.Runtime.overhead_acc rt1 with
  | None -> Alcotest.fail "arming installed no accumulator"
  | Some a ->
      checkb "attribution charged cycles"
        (Overhead.attributed_cycles a > 0.0)
        true;
      (* attribution observes the run, it must not perturb it *)
      checkb "cycle count unperturbed" (c0 = c1) true;
      checki "insn count unperturbed" i0 i1

let test_guard_reconciliation () =
  let rt = Lfi_runtime.Runtime.create () in
  let e = Lfi_runtime.Runtime.enable_metrics rt in
  let elf = build_sited ~config:o0 loop_asm in
  let p = Lfi_runtime.Runtime.load rt ~personality:Lfi_runtime.Proc.Lfi elf in
  (match Lfi_runtime.Runtime.enable_overhead rt p with
  | None -> Alcotest.fail "no sites to arm"
  | Some _ -> ());
  ignore (Lfi_runtime.Runtime.run_one rt p);
  match Lfi_runtime.Runtime.overhead_acc rt with
  | None -> Alcotest.fail "no accumulator"
  | Some a ->
      let guard_execs = ref 0 in
      Array.iteri
        (fun i (s : Overhead.site) ->
          if is_guard_insn elf s.Overhead.pc then
            guard_execs := !guard_execs + a.Overhead.execs.(i))
        a.Overhead.sites;
      checki "site guard execs equal the aggregate guard counter"
        e.Lfi_telemetry.Metrics.guards !guard_execs;
      checkb "guards actually executed" (!guard_execs > 0) true

(* ---------------- report ---------------- *)

let write_file path (s : string) =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let report_of_run ?(workload = "loop") () =
  let rt, elf, cycles, insns = run_loop ~overhead:true () in
  let a =
    match Lfi_runtime.Runtime.overhead_acc rt with
    | Some a -> a
    | None -> Alcotest.fail "no accumulator"
  in
  let syms = Lfi_telemetry.Profile.sym_table elf.Lfi_elf.Elf.symbols in
  Overhead.report ~workload ~uarch:"m1" ~total_cycles:cycles
    ~total_insns:insns ~native_cycles:None ~levels:[]
    ~symbol_of:(Lfi_telemetry.Profile.pp_sym syms)
    ~disasm_of:(fun pc ->
      match decode_at elf pc with
      | Some i -> Printer.to_string i
      | None -> "?")
    ~guard_insn:(is_guard_insn elf) a

(* Byte-stable report golden.  If a legitimate cost-model or rewriter
   change shifts it, regenerate from overhead_golden.actual (left next
   to the golden on mismatch). *)
let test_report_golden () =
  let r = report_of_run () in
  checks "two runs render identically" r (report_of_run ());
  write_file "overhead_golden.actual" r;
  checks "report is byte-stable" (Golden.read_file "overhead_golden.json") r

(* a workload path with a quote, a backslash, UTF-8 and a tab must
   survive as valid JSON, escaped exactly once *)
let test_report_escapes_workload () =
  let workload = "dir/\"q\"\\caf\xc3\xa9\t.elf" in
  let j = Lfi_telemetry.Json.parse (report_of_run ~workload ()) in
  checks "workload round-trips" workload
    Lfi_telemetry.Json.(to_string (member "workload" j))

(* ---------------- lfi_objdump annotations ---------------- *)

(* Sites annotate the disassembly inline ([guard] = inserted,
   [~guard] = modified in place); byte-compare the whole transcript,
   as the verify CLI golden does. *)
let test_objdump_golden () =
  let exe = Filename.quote (Golden.path "../bin/lfi_objdump.exe") in
  let elf = build_sited ~config:o0 loop_asm in
  let oc = open_out_bin "objdump_in.elf" in
  output_bytes oc (Lfi_elf.Elf.write elf);
  close_out oc;
  let code =
    Sys.command
      (Printf.sprintf "%s --annotate objdump_in.elf > objdump_out.tmp 2>&1"
         exe)
  in
  checki "objdump exits 0" 0 code;
  let transcript =
    "$ lfi_objdump --annotate objdump_in.elf\n"
    ^ Golden.read_file "objdump_out.tmp"
  in
  write_file "objdump_golden.actual" transcript;
  checks "objdump transcript is byte-stable"
    (Golden.read_file "objdump_golden.txt") transcript

(* ---------------- suite ---------------- *)

let () =
  Alcotest.run "overhead"
    [
      ( "elf-sites",
        [
          Alcotest.test_case "roundtrip" `Quick test_sites_roundtrip;
          Alcotest.test_case "site-free unchanged" `Quick
            test_sitefree_unchanged;
        ] );
      ( "accumulator",
        [
          Alcotest.test_case "off by default" `Quick test_off_by_default;
          Alcotest.test_case "guard reconciliation" `Quick
            test_guard_reconciliation;
        ] );
      ( "report",
        [
          Alcotest.test_case "golden" `Quick test_report_golden;
          Alcotest.test_case "escapes workload" `Quick
            test_report_escapes_workload;
        ] );
      ( "objdump",
        [ Alcotest.test_case "golden" `Quick test_objdump_golden ] );
    ]
