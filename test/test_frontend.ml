(* Tests for the MiniC text front-end (lexer + parser) and the Wasm
   binary serializer/deserializer. *)

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

module Gen_minic = Lfi_fuzz.Gen_minic

let parse = Lfi_minic.Minic_parser.parse

let run_text ?(system = Lfi_experiments.Run.Lfi Lfi_core.Config.o2) src =
  (Lfi_experiments.Run.run system (parse src)).Lfi_experiments.Run.exit_code

(* ---------------- parsing + execution ---------------- *)

let test_arith () =
  checki "precedence" 14 (run_text "int main() { return 2 + 3 * 4; }");
  checki "parens" 20 (run_text "int main() { return (2 + 3) * 4; }");
  checki "unary" 1 (run_text "int main() { return -3 + 4; }");
  checki "bitwise" 6 (run_text "int main() { return (12 & 7) ^ 2; }");
  checki "shift" 48 (run_text "int main() { return 3 << 4; }");
  checki "cmp chain" 1 (run_text "int main() { return (3 < 4) == 1; }");
  checki "hex" 255 (run_text "int main() { return 0xff; }");
  checki "mod" 2 (run_text "int main() { return 17 % 5; }")

let test_control () =
  checki "if else" 7
    (run_text "int main() { if (1 < 2) { return 7; } else { return 8; } }");
  checki "while" 45
    (run_text
       "int main() { int s = 0; int k = 0; while (k < 10) { s = s + k; k = k \
        + 1; } return s; }");
  checki "break" 5
    (run_text
       "int main() { int k = 0; while (1) { if (k == 5) { break; } k = k + 1; \
        } return k; }");
  checki "continue" 30
    (run_text
       "int main() { int s = 0; int k = 0; while (k < 10) { k = k + 1; if (k \
        & 1) { continue; } s = s + k; } return s; }")

let test_functions () =
  checki "call" 120
    (run_text
       "int f(int n) { if (n < 2) { return 1; } return n * f(n - 1); } int \
        main() { return f(5); }");
  checki "two params" 11
    (run_text "int add(int a, int b) { return a + b; } int main() { return \
               add(4, 7); }");
  checki "forward ref" 9
    (run_text "int main() { return g(); } int g() { return 9; }");
  checki "fn pointer" 42
    (run_text
       "int t(int a) { return a * 2; } int main() { int f = &t; return \
        icall(f, 21); }")

let test_floats () =
  checki "float math" 350
    (run_text "int main() { float x = 1.5; float y = 2.0; return ftoi(x * y \
               * 100.0 + 50.0); }");
  checki "float cmp" 1
    (run_text "int main() { float a = 1.0; if (a < 2.0) { return 1; } return \
               0; }");
  checki "sqrt" 12 (run_text "int main() { return ftoi(sqrt(144.0)); }");
  checki "itof" 25
    (run_text "int main() { int n = 5; return ftoi(itof(n) * itof(n)); }")

let test_memory () =
  checki "store load" 77
    (run_text
       "global g[64]; int main() { store64(&g + 8, 77); return load64(&g + \
        8); }");
  checki "bytes" 200
    (run_text "global g[16]; int main() { store8(&g, 200); return load8(&g); }");
  checki "init64" 15
    (run_text
       "global vals = { 1, 2, 4, 8 }; int main() { return load64(&vals) + \
        load64(&vals + 8) + load64(&vals + 16) + load64(&vals + 24); }");
  checki "truncating store" 1
    (run_text
       "global g[16]; int main() { store32(&g, 0x100000001); return \
        load32(&g); }")

let test_string_and_write () =
  let prog = parse "string msg = \"ab\"; int main() { sys_write(1, &msg, 2); return 0; }" in
  let elf = Lfi_experiments.Run.build (Lfi_experiments.Run.Lfi Lfi_core.Config.o2) prog in
  let rt = Lfi_runtime.Runtime.create () in
  let p = Lfi_runtime.Runtime.load rt ~personality:Lfi_runtime.Proc.Lfi elf in
  let _, out, _, _ = Lfi_runtime.Runtime.run_one rt p in
  Alcotest.(check string) "stdout" "ab" out

let test_parse_errors () =
  List.iter
    (fun src ->
      match parse src with
      | exception Lfi_minic.Minic_parser.Parse_error _ -> ()
      | _ -> Alcotest.failf "should not parse: %s" src)
    [
      "int main() { return 1 }" (* missing ; *);
      "int main() { x = 1; return 0; }" (* undeclared *);
      "int main() { return nosuch(); }";
      "int main() { return \"str\"; }";
      "int main() { int x = ; }";
      "global g[]; int main() { return 0; }";
      "float main() { return 1.0 + f; }";
      "int main() { while 1 { } }";
    ]

let test_frontend_matches_backends () =
  (* the same algorithm via the text front-end and the EDSL must
     agree *)
  let text =
    "global tbl[256]; int main() { int k = 0; while (k < 32) { store64(&tbl \
     + k * 8, k * 3); k = k + 1; } int s = 0; k = 0; while (k < 32) { s = s \
     + load64(&tbl + k * 8); k = k + 1; } return s; }"
  in
  let open Lfi_minic.Ast.Dsl in
  let edsl =
    Lfi_minic.Ast.
      {
        globals = [ Zeroed ("tbl", 256) ];
        funcs =
          [
            {
              name = "main";
              params = [];
              ret = Int;
              body =
                for_ "k" (i 0) (i 32)
                  [ store I64 (idx "tbl" (v "k") ~elt:I64) (v "k" * i 3) ]
                @ [ decl "s" Int (i 0) ]
                @ for_ "k2" (i 0) (i 32)
                    [ set "s" (v "s" + ld I64 (idx "tbl" (v "k2") ~elt:I64)) ]
                @ [ ret (v "s") ];
            };
          ];
      }
  in
  let a = run_text text in
  let b =
    (Lfi_experiments.Run.run (Lfi_experiments.Run.Lfi Lfi_core.Config.o2) edsl)
      .Lfi_experiments.Run.exit_code
  in
  checki "same result" b a

(* ---------------- wasm serializer round-trip ---------------- *)

let prop_serialize_roundtrip =
  QCheck.Test.make ~count:100 ~name:"deserialize (serialize m) validates"
    (QCheck.make ~print:Gen_minic.print_program Gen_minic.gen_program)
    (fun prog ->
      let m = Lfi_wasm.From_minic.lower prog in
      let blob = Lfi_wasm.Ir.serialize m in
      let m2 = Lfi_wasm.Ir.deserialize blob in
      (* body structure survives the round-trip *)
      if Array.length m2.Lfi_wasm.Ir.funcs <> Array.length m.Lfi_wasm.Ir.funcs
      then QCheck.Test.fail_reportf "function count changed";
      Array.iteri
        (fun k (f : Lfi_wasm.Ir.func) ->
          let f2 = m2.Lfi_wasm.Ir.funcs.(k) in
          if f2.Lfi_wasm.Ir.body <> f.Lfi_wasm.Ir.body then
            QCheck.Test.fail_reportf "body %d changed" k)
        m.Lfi_wasm.Ir.funcs;
      (* and the deserialized module still type-checks *)
      match Lfi_wasm.Validate.validate m2 with
      | Ok () -> true
      | Error e ->
          QCheck.Test.fail_reportf "deserialized module invalid: %s"
            e.Lfi_wasm.Validate.msg)

let test_deserialize_rejects_garbage () =
  List.iter
    (fun b ->
      match Lfi_wasm.Ir.deserialize b with
      | exception Lfi_wasm.Ir.Bad_module _ -> ()
      | _ -> ( (* accepting garbage is fine only if it validates *) ))
    [ Bytes.of_string "\xff\xff\xff"; Bytes.of_string "\x01" ]

(* ---------------- spectre hardening config ---------------- *)

let test_spectre_costs_more () =
  let config = Lfi_experiments.Table5.config Lfi_emulator.Cost_model.m1 in
  let syscall config =
    (Lfi_experiments.Table5.measure config).Lfi_experiments.Table5.syscall
  in
  checkb "hardening costs" true
    (syscall { config with Lfi_runtime.Runtime.spectre_hardening = true }
    > syscall config)

let mk name f = Alcotest.test_case name `Quick f

let () =
  Alcotest.run "frontend"
    [
      ( "minic-parser",
        [
          mk "arithmetic" test_arith;
          mk "control flow" test_control;
          mk "functions" test_functions;
          mk "floats" test_floats;
          mk "memory" test_memory;
          mk "strings + write" test_string_and_write;
          mk "parse errors" test_parse_errors;
          mk "matches EDSL" test_frontend_matches_backends;
        ] );
      ( "wasm-binary",
        [
          QCheck_alcotest.to_alcotest prop_serialize_roundtrip;
          mk "garbage" test_deserialize_rejects_garbage;
        ] );
      ("spectre", [ mk "hardening costs more" test_spectre_costs_more ]);
    ]
