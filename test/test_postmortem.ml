(* Tests for the crash-forensics stack: the flight-recorder ring
   buffer, the guard-clamp audit, efault propagation, and the
   postmortem report (symbolized backtrace, disassembly context,
   fault-page permissions, byte-stable JSON). *)

open Lfi_arm64

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

let build ?(rewrite = true) asm =
  Lfi_core.Build.elf
    (if rewrite then Some Lfi_core.Config.default else None)
    (Parser.parse_string_exn asm)

(* cheap substring check, so the tests need no JSON parser *)
let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* ---------------- flight-recorder ring ---------------- *)

let test_flight_wraparound () =
  let open Lfi_telemetry.Flight in
  let f = create ~capacity:8 () in
  checki "capacity rounds to pow2" 8 (capacity f);
  for i = 0 to 19 do
    record f k_branch (0x1000 + (4 * i)) i
  done;
  checki "total counts every event" 20 (total f);
  checki "length capped at capacity" 8 (length f);
  let evs = events f in
  checki "drained events" 8 (List.length evs);
  List.iteri
    (fun i e ->
      checki "seq is global" (12 + i) e.seq;
      checki "pc survives wrap" (0x1000 + (4 * e.seq)) e.pc;
      checki "arg survives wrap" e.seq e.arg)
    evs;
  clear f;
  checki "clear resets total" 0 (total f);
  checki "clear resets events" 0 (List.length (events f))

let test_flight_clamp_event () =
  let open Lfi_telemetry.Flight in
  let f = create ~capacity:4 () in
  checki "starts at zero" 0 (clamps f);
  clamp f 0x10010 0x7000_0000;
  checki "counter bumped" 1 (clamps f);
  match events f with
  | [ e ] ->
      checki "kind" k_clamp e.kind;
      checki "pc" 0x10010 e.pc;
      checki "raw index logged" 0x7000_0000 e.arg;
      checks "kind name" "clamp" (kind_name e.kind)
  | l -> Alcotest.failf "expected 1 event, got %d" (List.length l)

(* ---------------- guard-clamp audit ---------------- *)

(* A guarded index is well-formed when its upper 32 bits are either
   zero (a plain sandbox offset) or equal to the sandbox base's (a full
   in-sandbox pointer).  Anything else would escape without the guard's
   uxtw clamp, and must bump the audit counter. *)

let run_lfi ?config asm =
  let rt = Lfi_runtime.Runtime.create ?config () in
  let p =
    Lfi_runtime.Runtime.load rt ~personality:Lfi_runtime.Proc.Lfi (build asm)
  in
  let r = Lfi_runtime.Runtime.run_one rt p in
  (rt, r)

let test_clamp_counter_fires () =
  (* upper 32 bits = 7: neither a clean offset nor this sandbox's
     base (slot 1 lives at 1 << 32), so the guard's clamp is
     load-bearing and must be audited *)
  let rt, r =
    run_lfi
      "_start:\n\tmovz x5, #7, lsl #32\n\tldr x0, [x5]\n\tmovz x0, #7\n\tsvc \
       #1\n\tb _start\n"
  in
  (match r with
  | Lfi_runtime.Runtime.Exited 7, _, _, _ -> ()
  | Lfi_runtime.Runtime.Exited c, _, _, _ -> Alcotest.failf "exited %d" c
  | Lfi_runtime.Runtime.Killed why, _, _, _ -> Alcotest.failf "killed: %s" why);
  checki "one clamp audited" 1 (Lfi_runtime.Runtime.total_clamps rt)

let test_clamp_counter_quiet_on_clean_runs () =
  (* a well-behaved store/load loop: offsets only, zero clamps *)
  let rt, r =
    run_lfi
      "_start:\n\tmovz x0, #64\n\tadr x1, buf\nloop:\n\tstr x0, [x1]\n\tldr \
       x2, [x1]\n\tsub x0, x0, #1\n\tcbnz x0, loop\n\tmovz x0, #0\n\tsvc \
       #1\n\tb _start\n.data\nbuf:\n\t.quad 0\n"
  in
  (match r with
  | Lfi_runtime.Runtime.Exited 0, _, _, _ -> ()
  | _ -> Alcotest.fail "loop should exit 0");
  checki "no clamps on clean code" 0 (Lfi_runtime.Runtime.total_clamps rt)

(* ---------------- efault ---------------- *)

let test_write_bad_pointer_efaults () =
  (* write(1, p, 8) with p in the unmapped guard region: the runtime's
     copyin faults and the call must return -EFAULT (-14), not kill the
     sandbox and not return -EINVAL *)
  let _, r =
    run_lfi
      "_start:\n\tmovz x0, #1\n\tmovz x1, #0x2000, lsl #16\n\tmovz x2, \
       #8\n\tsvc #2\n\tsvc #1\n\tb _start\n"
  in
  match r with
  | Lfi_runtime.Runtime.Exited c, _, _, _ -> checki "efault" (-14) c
  | Lfi_runtime.Runtime.Killed why, _, _, _ -> Alcotest.failf "killed: %s" why

(* ---------------- postmortem on a real crash ---------------- *)

(* The crashy workload (MiniC-compiled, frame pointers and symbols
   intact) reads through a wild pointer into the guard region from
   poke <- corrupt <- main, so its report exercises every section. *)
let crash_run () =
  let w =
    match Lfi_workloads.Registry.find "crashy" with
    | Some w -> w
    | None -> Alcotest.fail "crashy workload not registered"
  in
  let elf =
    Lfi_core.Build.elf (Some Lfi_core.Config.default)
      (Lfi_minic.Compile.compile w.Lfi_workloads.Common.program)
  in
  let rt = Lfi_runtime.Runtime.create () in
  let p = Lfi_runtime.Runtime.load rt ~personality:Lfi_runtime.Proc.Lfi elf in
  (match Lfi_runtime.Runtime.run_one rt p with
  | Lfi_runtime.Runtime.Killed _, _, _, _ -> ()
  | Lfi_runtime.Runtime.Exited c, _, _, _ ->
      Alcotest.failf "crashy exited %d instead of faulting" c);
  match Lfi_runtime.Runtime.postmortem_for rt p.Lfi_runtime.Proc.pid with
  | Some report -> report
  | None -> Alcotest.fail "no postmortem for the killed sandbox"

let test_postmortem_structure () =
  let pm = crash_run () in
  let open Lfi_telemetry.Postmortem in
  checki "full register file (x0-x30)" 31 (Array.length pm.regs);
  checkb "memory fault recorded" (pm.fault_addr <> None) true;
  checks "read fault"
    (match pm.fault_access with Some a -> a | None -> "?")
    "read";
  (* symbolized backtrace through the frame-pointer chain *)
  let syms = List.filter_map (fun f -> f.fr_sym) pm.backtrace in
  checkb "at least two symbolized frames" (List.length syms >= 2) true;
  checkb "innermost frame is poke" (List.mem "poke" syms) true;
  checkb "caller frame is corrupt" (List.mem "corrupt" syms) true;
  checkb "main on the stack" (List.mem "main" syms) true;
  (* disassembly context marks the faulting instruction *)
  checkb "disasm context present" (List.length pm.disasm >= 5) true;
  checki "exactly one current line" 1
    (List.length (List.filter (fun d -> d.dl_current) pm.disasm));
  (match List.find_opt (fun d -> d.dl_current) pm.disasm with
  | Some d -> checkb "faulting insn is guarded" (contains d.dl_text "x21") true
  | None -> Alcotest.fail "no current disasm line");
  (* fault-page neighbourhood and sandbox layout *)
  checkb "fault-page perm map present" (pm.pages <> []) true;
  checkb "fault page unmapped"
    (List.exists (fun g -> g.pg_perm = "---") pm.pages)
    true;
  checkb "layout has code" (List.exists (fun r -> r.rg_label = "code") pm.layout)
    true;
  checkb "layout has stack"
    (List.exists (fun r -> r.rg_label = "stack") pm.layout)
    true;
  (* flight recorder drained into the report *)
  checkb "flight history present" (List.length pm.flight >= 1) true;
  checkb "flight saw the whole run" (pm.flight_total >= List.length pm.flight)
    true;
  checki "crashy is benign for the clamp audit" 0 pm.clamps

let test_postmortem_golden_json () =
  (* the emulator and runtime are deterministic, so two separate runs
     must produce byte-identical reports -- both renderings *)
  let a = crash_run () and b = crash_run () in
  let ja = Lfi_telemetry.Postmortem.to_json a
  and jb = Lfi_telemetry.Postmortem.to_json b in
  checkb "JSON is byte-stable across runs" (String.equal ja jb) true;
  checks "text is byte-stable across runs"
    (Lfi_telemetry.Postmortem.to_text a)
    (Lfi_telemetry.Postmortem.to_text b);
  (* JSON shape: valid JSON, every section keyed, schema versioned *)
  let j = Lfi_telemetry.Json.parse ja in
  let member k = Lfi_telemetry.Json.member k j in
  checks "schema" "lfi-postmortem/v1"
    (Lfi_telemetry.Json.to_string (member "schema"));
  List.iter
    (fun key -> ignore (member key))
    [
      "reason"; "fault"; "regs"; "backtrace"; "disasm"; "hexdump"; "pages";
      "layout"; "flight"; "guard_clamps";
    ];
  let syms =
    List.filter_map
      (fun f ->
        match Lfi_telemetry.Json.member "sym" f with
        | Lfi_telemetry.Json.Str s -> Some s
        | _ -> None)
      (Lfi_telemetry.Json.to_list (member "backtrace"))
  in
  checkb "backtrace names poke" (List.mem "poke" syms) true;
  checkb "backtrace names corrupt" (List.mem "corrupt" syms) true;
  checkb "text report names the fault"
    (contains (Lfi_telemetry.Postmortem.to_text a) "fault")
    true

let () =
  Alcotest.run "postmortem"
    [
      ( "flight",
        [
          Alcotest.test_case "wraparound" `Quick test_flight_wraparound;
          Alcotest.test_case "clamp event" `Quick test_flight_clamp_event;
        ] );
      ( "clamp-audit",
        [
          Alcotest.test_case "escaping index audited" `Quick
            test_clamp_counter_fires;
          Alcotest.test_case "clean runs are quiet" `Quick
            test_clamp_counter_quiet_on_clean_runs;
        ] );
      ( "efault",
        [
          Alcotest.test_case "bad pointer to write" `Quick
            test_write_bad_pointer_efaults;
        ] );
      ( "report",
        [
          Alcotest.test_case "structure" `Quick test_postmortem_structure;
          Alcotest.test_case "golden json" `Quick test_postmortem_golden_json;
        ] );
    ]
