(* Tests for the telemetry subsystem: metric counters, trace
   determinism, pc-sampling profiles, ELF symbol round-trips, and the
   verifier's diagnostic format. *)

open Lfi_arm64

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

let build ?(rewrite = true) ?config asm =
  let src = Parser.parse_string_exn asm in
  let src = if rewrite then fst (Lfi_core.Rewriter.rewrite ?config src) else src in
  Lfi_elf.Elf.of_image (Assemble.assemble src)

(* O0 keeps one explicit guard instruction per sandboxed access, which
   the golden test below wants to see in the instruction mix. *)
let o0 = { Lfi_core.Config.default with Lfi_core.Config.opt = Lfi_core.Config.O0 }

(* A small deterministic workload: a counted store/load loop plus one
   write runtime call, exercising the decode cache, the TLB and every
   instruction class the mix counters distinguish. *)
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

(* ---------------- metrics ---------------- *)

let test_metrics_off_by_default () =
  let rt = Lfi_runtime.Runtime.create () in
  let p =
    Lfi_runtime.Runtime.load rt ~personality:Lfi_runtime.Proc.Lfi
      (build loop_asm)
  in
  ignore (Lfi_runtime.Runtime.run_one rt p);
  checkb "no metrics handle"
    (rt.Lfi_runtime.Runtime.machine.Lfi_emulator.Machine.metrics = None)
    true;
  checkb "no profile handle"
    (rt.Lfi_runtime.Runtime.machine.Lfi_emulator.Machine.profile = None)
    true;
  (* a snapshot taken without enabling sees zero emulator counters *)
  let snap = Lfi_runtime.Runtime.metrics_snapshot rt in
  checki "decode hits stay 0" 0
    snap.Lfi_telemetry.Metrics.emu.Lfi_telemetry.Metrics.decode_hits;
  checki "insn mix stays 0" 0
    (Lfi_telemetry.Metrics.insn_total snap.Lfi_telemetry.Metrics.emu)

let run_with_metrics () =
  let rt = Lfi_runtime.Runtime.create () in
  let e = Lfi_runtime.Runtime.enable_metrics rt in
  let p =
    Lfi_runtime.Runtime.load rt ~personality:Lfi_runtime.Proc.Lfi
      (build ~config:o0 loop_asm)
  in
  ignore (Lfi_runtime.Runtime.run_one rt p);
  (rt, e)

(* Golden counter values for [loop_asm]: the emulator is deterministic,
   so these are exact.  If a legitimate emulator change shifts them,
   re-derive with: dune exec test/test_telemetry.exe (the failure
   message prints the actual values). *)
let test_metrics_golden () =
  let rt, e = run_with_metrics () in
  let snap = Lfi_runtime.Runtime.metrics_snapshot rt in
  let open Lfi_telemetry.Metrics in
  let insns = rt.Lfi_runtime.Runtime.machine.Lfi_emulator.Machine.insns in
  checki "every insn went through the decode cache" insns
    (e.decode_hits + e.decode_misses);
  checki "mix sums to insns" insns (insn_total e);
  checki "decode misses (distinct slots decoded)" 11 e.decode_misses;
  checki "decode hits" 378 e.decode_hits;
  checki "loads (64 ldr + 1 table load)" 65 e.loads;
  checki "stores" 64 e.stores;
  checki "branches (64 cbnz + blr x30)" 65 e.branches;
  checki "guards (one per sandboxed access at O0)" 128 e.guards;
  checki "tlb hits" 127 snap.tlb_hits;
  checki "tlb misses" 2 snap.tlb_misses;
  checki "faults" 0 e.faults;
  checkb "translation cache hit rate high"
    (hit_rate ~hits:snap.tc_hits ~misses:snap.tc_misses > 0.9)
    true

module Json = Lfi_telemetry.Json

(* the value at a member path, e.g. [path j ["emulator"; "tlb"]] *)
let path j keys = List.fold_left (fun j k -> Json.member k j) j keys

let test_metrics_json_shape () =
  let rt, _ = run_with_metrics () in
  let j = Json.parse (Lfi_runtime.Runtime.metrics_json rt) in
  List.iter
    (fun keys ->
      checkb (String.concat "." keys)
        (match path j keys with Json.Obj (_ :: _) -> true | _ -> false)
        true)
    [
      [ "emulator"; "decode_cache" ];
      [ "emulator"; "translation_cache" ];
      [ "emulator"; "tlb" ];
      [ "emulator"; "insn_mix" ];
      [ "runtime" ];
      [ "rtcall_latency"; "exit" ];
    ];
  checkb "insn mix totals" true
    (Json.to_int (path j [ "emulator"; "insn_mix"; "total" ]) > 0)

(* ---------------- trace determinism ---------------- *)

let trace_of_run () =
  let rt = Lfi_runtime.Runtime.create () in
  let t = Lfi_runtime.Runtime.enable_trace rt in
  let p =
    Lfi_runtime.Runtime.load rt ~personality:Lfi_runtime.Proc.Lfi
      (build loop_asm)
  in
  ignore (Lfi_runtime.Runtime.run_one rt p);
  Lfi_telemetry.Trace.to_string t

let trace_events s = Json.to_list (Json.member "traceEvents" (Json.parse s))

let has_event events field value =
  List.exists (fun e -> Json.to_string (Json.member field e) = value) events

let test_trace_deterministic () =
  let a = trace_of_run () and b = trace_of_run () in
  checkb "two runs, byte-identical traces" (String.equal a b) true;
  checkb "trace is non-trivial" (String.length a > 200) true;
  checkb "has a complete event" (has_event (trace_events a) "ph" "X") true

let test_trace_tracks () =
  let events = trace_events (trace_of_run ()) in
  let track_names =
    List.filter_map
      (fun e ->
        match Json.member "ph" e with
        | Json.Str "M" -> Some (Json.to_string (path e [ "args"; "name" ]))
        | _ -> None)
      events
  in
  checkb "process named" (List.mem "lfi-runtime" track_names) true;
  checkb "sandbox track named" (List.mem "sandbox 1 (lfi)" track_names) true;
  checkb "exit call traced" (has_event events "name" "exit") true

(* ---------------- profiling ---------------- *)

let test_profile_samples_land () =
  let rt = Lfi_runtime.Runtime.create () in
  ignore (Lfi_runtime.Runtime.enable_profile ~period:16 rt);
  let p =
    Lfi_runtime.Runtime.load rt ~personality:Lfi_runtime.Proc.Lfi
      (build loop_asm)
  in
  ignore (Lfi_runtime.Runtime.run_one rt p);
  match Lfi_runtime.Runtime.profile_report rt with
  | [ (p', lines) ] ->
      checki "report is for the sandbox" p.Lfi_runtime.Proc.pid
        p'.Lfi_runtime.Proc.pid;
      let total =
        List.fold_left (fun a l -> a + l.Lfi_telemetry.Profile.hits) 0 lines
      in
      checkb "collected samples" (total > 10) true;
      (* the loop body dominates; it lives under the _start symbol *)
      (match lines with
      | top :: _ ->
          checks "hottest symbol" "loop" top.Lfi_telemetry.Profile.name;
          checkb "dominates" (top.Lfi_telemetry.Profile.fraction > 0.5) true
      | [] -> Alcotest.fail "empty profile")
  | l -> Alcotest.failf "expected 1 profile entry, got %d" (List.length l)

let test_profile_deterministic () =
  let run () =
    let rt = Lfi_runtime.Runtime.create () in
    ignore (Lfi_runtime.Runtime.enable_profile ~period:64 rt);
    let p =
      Lfi_runtime.Runtime.load rt ~personality:Lfi_runtime.Proc.Lfi
        (build loop_asm)
    in
    ignore (Lfi_runtime.Runtime.run_one rt p);
    List.concat_map
      (fun (_, lines) ->
        List.map
          (fun l ->
            Printf.sprintf "%s=%d" l.Lfi_telemetry.Profile.name
              l.Lfi_telemetry.Profile.hits)
          lines)
      (Lfi_runtime.Runtime.profile_report rt)
    |> String.concat ","
  in
  checks "identical flat profiles" (run ()) (run ())

let test_sym_resolve () =
  let tbl =
    Lfi_telemetry.Profile.sym_table
      [ ("main", 0x100); (".Llocal", 0x110); ("helper", 0x200) ]
  in
  let r off = Lfi_telemetry.Profile.resolve tbl off in
  Alcotest.(check (option string)) "below first" None (r 0xff);
  Alcotest.(check (option string)) "at main" (Some "main") (r 0x100);
  Alcotest.(check (option string)) "local dropped" (Some "main") (r 0x118);
  Alcotest.(check (option string)) "at helper" (Some "helper") (r 0x200);
  Alcotest.(check (option string)) "past end" (Some "helper") (r 0x9999)

(* ---------------- histograms ---------------- *)

let test_histogram () =
  let h = Lfi_telemetry.Histogram.create () in
  List.iter (fun v -> Lfi_telemetry.Histogram.observe h v) [ 0.5; 1.0; 3.0; 100.0 ];
  checki "count" 4 h.Lfi_telemetry.Histogram.count;
  checkb "mean" (abs_float (Lfi_telemetry.Histogram.mean h -. 26.125) < 1e-9) true;
  checki "bucket of 0" 0 (Lfi_telemetry.Histogram.bucket_of 0);
  checki "bucket of 1" 1 (Lfi_telemetry.Histogram.bucket_of 1);
  checki "bucket of 2" 2 (Lfi_telemetry.Histogram.bucket_of 2);
  checki "bucket of 3" 2 (Lfi_telemetry.Histogram.bucket_of 3);
  checki "bucket of 4" 3 (Lfi_telemetry.Histogram.bucket_of 4)

let test_histogram_empty_percentile () =
  let h = Lfi_telemetry.Histogram.create () in
  (* an empty histogram has no percentile; NaN serializes as null in
     the bench JSON rather than a fake 0 *)
  checkb "empty p99 is nan"
    (Float.is_nan (Lfi_telemetry.Histogram.percentile h 0.99))
    true;
  Lfi_telemetry.Histogram.observe h 5.0;
  checkb "one observation makes it finite"
    (Float.is_nan (Lfi_telemetry.Histogram.percentile h 0.99))
    false

(* ---------------- windows ---------------- *)

module W = Lfi_telemetry.Window

let test_window_rollover () =
  let w = W.create ~depth:4 ~width:100.0 () in
  W.observe w ~now:10.0 ~latency:8.0 ~insns:5 ~over:false;
  checki "window 0 current" 0 (W.cur w);
  W.observe w ~now:150.0 ~latency:16.0 ~insns:7 ~over:true;
  checki "boundary crossed" 1 (W.cur w);
  checki "spanned" 2 (W.spanned w);
  (* windows are left-closed: cycle 200 opens window 2 *)
  W.observe w ~now:200.0 ~latency:4.0 ~insns:1 ~over:false;
  checki "left-closed boundary" 2 (W.cur w);
  (* a jump farther than the ring evicts the oldest windows *)
  W.observe w ~now:1000.0 ~latency:2.0 ~insns:1 ~over:false;
  checki "jumped to window 10" 10 (W.cur w);
  checki "evicted count" 7 (W.evicted w);
  checkb "window 0 off the ring" (W.slot_for w 0 = None) true;
  let r = W.range w ~lo:0 ~hi:10 in
  checki "only the retained observation counted" 1 r.W.r_ok;
  checki "whole-run counters unaffected by eviction" 4 (W.total_ok w)

let test_window_merge_invariant () =
  let w = W.create ~depth:64 ~width:50.0 () in
  for k = 1 to 500 do
    let now = float_of_int (k * 5) in
    if k mod 7 = 0 then W.fail w ~now
    else
      W.observe w ~now
        ~latency:(float_of_int (k * 37 mod 2000))
        ~insns:k ~over:(k mod 11 = 0)
  done;
  (* 2500 cycles / 50-cycle windows = 51 windows < depth 64 *)
  checki "nothing evicted" 0 (W.evicted w);
  (* bucket counts are exact under merge, so merging every retained
     window reproduces the whole-run histogram bit for bit *)
  checks "merged equals whole-run total"
    (Json.to_line (Lfi_telemetry.Histogram.to_json (W.total w)))
    (Json.to_line (Lfi_telemetry.Histogram.to_json (W.merged w)));
  let r = W.range w ~lo:0 ~hi:(W.cur w) in
  checki "ok counters add up" (W.total_ok w) r.W.r_ok;
  checki "err counters add up" (W.total_err w) r.W.r_err;
  checki "insns add up" (W.total_insns w) r.W.r_insns

(* ---------------- spans ---------------- *)

let test_span_accumulate () =
  let open Lfi_telemetry in
  let sp = Span.create () in
  Span.start sp "checksum";
  Span.set sp Span.Gate_in 10.0;
  Span.set sp Span.Exec 100.0;
  checkb "total sums phases" (abs_float (Span.total sp -. 110.0) < 1e-9) true;
  let acc = Array.make Span.nphases 0.0 in
  Span.accumulate sp acc;
  Span.accumulate sp acc;
  checkb "accumulates across requests"
    (abs_float (acc.(Span.index Span.Exec) -. 200.0) < 1e-9)
    true;
  Span.start sp "other";
  checkb "start rewinds the record" (Span.total sp = 0.0) true

(* ---------------- ELF symbols ---------------- *)

let test_elf_symbol_roundtrip () =
  let elf = build loop_asm in
  checkb "of_image collects symbols"
    (List.mem_assoc "_start" elf.Lfi_elf.Elf.symbols)
    true;
  let bytes = Lfi_elf.Elf.write elf in
  let elf' = Lfi_elf.Elf.read bytes in
  Alcotest.(check (list (pair string int)))
    "symbols survive write/read" elf.Lfi_elf.Elf.symbols
    elf'.Lfi_elf.Elf.symbols;
  (* loadable size excludes the symbol table *)
  checkb "total_size below file size"
    (Lfi_elf.Elf.total_size elf < Bytes.length bytes)
    true

let test_elf_no_symbols_unchanged () =
  let elf = build loop_asm in
  let bare = { elf with Lfi_elf.Elf.symbols = [] } in
  let bytes = Lfi_elf.Elf.write bare in
  checki "no section headers when symbol-free"
    (Lfi_elf.Elf.total_size bare) (Bytes.length bytes);
  let elf' = Lfi_elf.Elf.read bytes in
  Alcotest.(check (list (pair string int))) "reads back empty" []
    elf'.Lfi_elf.Elf.symbols

(* ---------------- verifier diagnostics ---------------- *)

let test_verifier_report_format () =
  (* a store through an unguarded register, with known neighbours *)
  let asm =
    "_start:\n\
     \tmovz x1, #1\n\
     \tmovz x2, #2\n\
     \tstr x1, [x2]\n\
     \tmovz x0, #0\n\
     \tmovz x3, #3\n"
  in
  let img = Assemble.assemble (Parser.parse_string_exn asm) in
  match
    Lfi_verifier.Verifier.verify ~origin:0x10000 ~code:img.Assemble.text ()
  with
  | Ok _ -> Alcotest.fail "unguarded store verified"
  | Error [ v ] ->
      checki "pc" 0x10008 v.Lfi_verifier.Verifier.pc;
      checki "offset" 0x8 v.Lfi_verifier.Verifier.offset;
      let msg = Format.asprintf "%a" Lfi_verifier.Verifier.pp_violation v in
      checks "report format"
        ("0x10008 (+0x8): str x1, [x2]: unguarded memory access via x2\n\
         \    0x10000:  movz x1, #1\n\
         \    0x10004:  movz x2, #2\n\
         \  > 0x10008:  str x1, [x2]\n\
         \    0x1000c:  movz x0, #0\n\
         \    0x10010:  movz x3, #3")
        msg
  | Error vs -> Alcotest.failf "expected 1 violation, got %d" (List.length vs)

(* ---------------- json codec ---------------- *)

(* every committed JSON artifact is in canonical form: printing its
   parse gives back the same bytes *)
let test_json_canonical () =
  List.iter
    (fun f ->
      let s = Golden.read_file f in
      checks f s (Json.to_pretty (Json.parse s)))
    [
      "../BENCH_serve.json";
      "../BENCH_serve_knee.json";
      "../BENCH_emulator.json";
      "../BENCH_baseline.json";
      "overhead_golden.json";
      "prove_golden.json";
    ];
  List.iter
    (fun f ->
      String.split_on_char '\n' (Golden.read_file f)
      |> List.filter (( <> ) "")
      |> List.iter (fun l -> checks f l (Json.to_line (Json.parse l))))
    [ "../BENCH_serve_snap.jsonl"; "serve_snap_golden.txt" ]

let test_json_strings () =
  let all_bytes = String.init 256 Char.chr in
  let line = Json.to_line (Json.Str all_bytes) in
  checks "every byte round-trips" all_bytes (Json.to_string (Json.parse line));
  checks "escapes" "\"q\\\"b\\\\t\\tn\\n\\u0001a\xc3\xa9\""
    (Json.to_line (Json.Str "q\"b\\t\tn\n\001a\xc3\xa9"));
  checks "\\u00XX then a hex letter" "\001a"
    (Json.to_string (Json.parse "\"\\u0001a\""));
  checks "NaN prints as null" "[null, 1.50, 2]"
    Json.(to_line (Arr [ Float (Float.nan, 1); Float (1.5, 2); Int 2 ]))

(* malformed input of every kind raises Parse_error and nothing else *)
let test_json_fails_closed () =
  let obj = Json.parse "{\"a\": 1, \"b\": \"x\"}" in
  List.iter
    (fun (what, f) ->
      match f () with
      | _ -> Alcotest.failf "%s: accepted" what
      | exception Json.Parse_error _ -> ()
      | exception e ->
          Alcotest.failf "%s: raised %s" what (Printexc.to_string e))
    [
      ("bad \\u", fun () -> Json.parse "\"\\uZZZZ\"");
      ("\\u with sign", fun () -> Json.parse "\"\\u+7ff\"");
      ("non-ASCII \\u", fun () -> Json.parse "\"\\u00e9\"");
      ("short \\u", fun () -> Json.parse "\"\\u00\"");
      ("truncated string", fun () -> Json.parse "{\"a\": \"x");
      ("truncated object", fun () -> Json.parse "{\"a\": 1,");
      ("trailing bytes", fun () -> Json.parse "{} {}");
      ("bare minus", fun () -> Json.parse "-");
      ("empty", fun () -> Json.parse "");
      ("deep nesting", fun () -> Json.parse (String.make 100_000 '['));
      ("wrong type", fun () -> Json.Int (Json.to_int (Json.member "b" obj)));
      ("missing member", fun () -> Json.member "c" obj);
    ]

let () =
  Alcotest.run "telemetry"
    [
      ( "metrics",
        [
          Alcotest.test_case "off by default" `Quick test_metrics_off_by_default;
          Alcotest.test_case "golden counters" `Quick test_metrics_golden;
          Alcotest.test_case "json shape" `Quick test_metrics_json_shape;
        ] );
      ( "trace",
        [
          Alcotest.test_case "deterministic" `Quick test_trace_deterministic;
          Alcotest.test_case "tracks" `Quick test_trace_tracks;
        ] );
      ( "profile",
        [
          Alcotest.test_case "samples land" `Quick test_profile_samples_land;
          Alcotest.test_case "deterministic" `Quick test_profile_deterministic;
          Alcotest.test_case "symbol resolve" `Quick test_sym_resolve;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "buckets" `Quick test_histogram;
          Alcotest.test_case "empty percentile" `Quick
            test_histogram_empty_percentile;
        ] );
      ( "window",
        [
          Alcotest.test_case "rollover" `Quick test_window_rollover;
          Alcotest.test_case "merge invariant" `Quick
            test_window_merge_invariant;
        ] );
      ("span", [ Alcotest.test_case "accumulate" `Quick test_span_accumulate ]);
      ( "elf-symbols",
        [
          Alcotest.test_case "roundtrip" `Quick test_elf_symbol_roundtrip;
          Alcotest.test_case "symbol-free unchanged" `Quick
            test_elf_no_symbols_unchanged;
        ] );
      ( "verifier-report",
        [
          Alcotest.test_case "format" `Quick test_verifier_report_format;
        ] );
      ( "json",
        [
          Alcotest.test_case "committed artifacts canonical" `Quick
            test_json_canonical;
          Alcotest.test_case "string escaping" `Quick test_json_strings;
          Alcotest.test_case "fails closed" `Quick test_json_fails_closed;
        ] );
    ]
