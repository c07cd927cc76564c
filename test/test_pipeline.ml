(* Differential testing of the whole pipeline.

   A random-program generator produces small MiniC programs; each must
   compute the same result in the reference interpreter, compiled
   natively, compiled + LFI-rewritten (O0 and O2), and compiled through
   the Wasm IR under two engine configurations.  Any divergence is a
   bug in a compiler, the rewriter, the verifier (false reject), or the
   emulator. *)

open Lfi_minic
open Lfi_fuzz.Gen_minic

(* ---------------- the differential property ---------------- *)

let systems =
  [
    Lfi_experiments.Run.Native;
    Lfi_experiments.Run.Lfi Lfi_core.Config.o0;
    Lfi_experiments.Run.Lfi Lfi_core.Config.o2;
    Lfi_experiments.Run.Wasm Lfi_wasm.Engine.wasmtime;
    Lfi_experiments.Run.Wasm Lfi_wasm.Engine.wasm2c;
  ]

let prop_differential =
  QCheck.Test.make ~count:60 ~name:"interp = native = lfi = wasm"
    (QCheck.make ~print:print_program gen_program)
    (fun prog ->
      match Interp.run ~fuel:2_000_000 prog with
      | exception Interp.Out_of_fuel -> true (* pathological loop; skip *)
      | exception Interp.Unsupported _ -> true
      | expected, _ ->
          let expected = Int64.to_int expected in
          List.for_all
            (fun sys ->
              let r = Lfi_experiments.Run.run sys prog in
              if r.Lfi_experiments.Run.exit_code = expected then true
              else
                QCheck.Test.fail_reportf "%s: got %d, interp says %d"
                  (Lfi_experiments.Run.system_name sys)
                  r.Lfi_experiments.Run.exit_code expected)
            systems)

(* ---------------- fixed pipeline cases ---------------- *)

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let run_all_systems prog =
  List.map
    (fun sys -> (Lfi_experiments.Run.run sys prog).Lfi_experiments.Run.exit_code)
    systems

let test_indirect_calls () =
  let open Ast.Dsl in
  let double = Ast.{ name = "double"; params = [ ("a", Int) ]; ret = Int;
                     body = [ ret (v "a" * i 2) ] } in
  let triple = Ast.{ name = "triple"; params = [ ("a", Int) ]; ret = Int;
                     body = [ ret (v "a" * i 3) ] } in
  let main = Ast.{ name = "main"; params = []; ret = Int; body = [
    decl "f" Int (addr "double");
    decl "g" Int (addr "triple");
    decl "a" Int (Ast.Call_indirect (v "f", [ i 10 ], Some Ast.Int));
    decl "b" Int (Ast.Call_indirect (v "g", [ i 10 ], Some Ast.Int));
    ret (v "a" + v "b") ] } in
  let prog = Ast.{ globals = []; funcs = [ double; triple; main ] } in
  List.iter (fun c -> checki "50" 50 c) (run_all_systems prog)

let test_float_pipeline () =
  let open Ast.Dsl in
  let main = Ast.{ name = "main"; params = []; ret = Int; body = [
    decl "a" Float (f 1.25);
    decl "s" Float (f 0.0);
    decl "k" Int (i 0);
    while_ (v "k" < i 10) [
      set "s" (v "s" +. v "a" *. itof (v "k"));
      set "k" (v "k" + i 1) ];
    ret (ftoi (v "s" *. f 100.0)) ] } in
  let prog = Ast.{ globals = []; funcs = [ main ] } in
  let expected = Int64.to_int (fst (Interp.run prog)) in
  checki "interp" 5625 expected;
  List.iter (fun c -> checki "float" expected c) (run_all_systems prog)

let test_wasm_validator_catches () =
  (* an ill-typed module must not validate *)
  let m =
    Lfi_wasm.Ir.
      {
        types = [];
        funcs =
          [|
            { ftype = { params = []; result = I64 };
              locals = [];
              body = [ Fconst 1.0; Return ] (* f64 returned as i64 *);
              name = "bad" };
          |];
        table = [||];
        memory_pages = 1;
        data = [];
        start = 0;
      }
  in
  match Lfi_wasm.Validate.validate m with
  | Ok () -> Alcotest.fail "ill-typed module validated"
  | Error _ -> ()

let test_wasm_stack_discipline () =
  let m =
    Lfi_wasm.Ir.
      {
        types = [];
        funcs =
          [|
            { ftype = { params = []; result = I64 };
              locals = [];
              body = [ Const 1; Const 2; Ibin Add; Drop; Const 0; Return ];
              name = "ok" };
          |];
        table = [||];
        memory_pages = 1;
        data = [];
        start = 0;
      }
  in
  (match Lfi_wasm.Validate.validate m with
  | Ok () -> ()
  | Error e -> Alcotest.failf "good module rejected: %s" e.Lfi_wasm.Validate.msg);
  let underflow =
    Lfi_wasm.Ir.
      { m with
        funcs =
          [|
            { (m.funcs.(0)) with body = [ Ibin Add; Return ] };
          |] }
  in
  match Lfi_wasm.Validate.validate underflow with
  | Ok () -> Alcotest.fail "underflow validated"
  | Error _ -> ()

let test_wasm_serialization () =
  let m = Lfi_wasm.From_minic.lower
      Ast.{ globals = [ Zeroed ("g", 64) ];
            funcs = [ { name = "main"; params = []; ret = Int;
                        body = [ Return (Int 7) ] } ] } in
  checkb "nonempty" true (Lfi_wasm.Ir.size_bytes m > 8)

let test_interp_matches_expected () =
  let open Ast.Dsl in
  (* spot-check interpreter semantics on ARM edge cases *)
  let run1 e =
    let main = Ast.{ name = "main"; params = []; ret = Int; body = [ ret e ] } in
    Int64.to_int (fst (Interp.run Ast.{ globals = []; funcs = [ main ] }))
  in
  checki "div0" 0 (run1 (i 5 / i 0));
  checki "rem0" 5 (run1 (i 5 % i 0));
  checki "shift mod" 2 (run1 (shl (i 1) (i 65)));
  checki "ftoi nan" 0 (run1 (ftoi (f 0.0 /. f 0.0)))

(* ---------------- ELF golden ---------------- *)

(* test/elf_golden.txt pins the build path's output bytes: for every
   registry program, coremark, each library with its return trampoline
   and a few seeded generated programs, native and rewritten at O2, one
   line with the MD5 of [Elf.write (Elf.of_image (Assemble.assemble
   src))], the entry point and a digest of the sorted symbol table.
   The Wasm-compatible subset and coremark add one such line per Wasm
   engine, so the two code generators are pinned alike.
   Regenerate it only deliberately, with `make goldens` (which runs
   this executable with LFI_GOLDEN_OUT=$PWD/test/elf_golden.txt), and
   review `git diff test/`. *)

let golden_seeds = [ 1; 2; 3; 4; 5 ]

(* the registry programs, coremark and the libraries *)
let named_programs () : (string * Ast.program) list =
  List.map
    (fun (w : Lfi_workloads.Common.t) ->
      (w.Lfi_workloads.Common.short, w.Lfi_workloads.Common.program))
    (Lfi_workloads.Registry.all @ [ Lfi_workloads.Coremark.workload ])
  @ List.map
      (fun (s : Lfi_libbox.Api.lib_spec) ->
        ( s.Lfi_libbox.Api.l_short,
          Lfi_libbox.Library.with_trampoline s.Lfi_libbox.Api.l_program ))
      Lfi_workloads.Libs.all

let golden_programs () : (string * Ast.program) list =
  named_programs ()
  @ List.map
      (fun seed ->
        ( Printf.sprintf "gen%d" seed,
          QCheck.Gen.generate1 ~rand:(Random.State.make [| seed |]) gen_program
        ))
      golden_seeds

let elf_line name level src =
  let img = Lfi_arm64.Assemble.assemble src in
  let bytes = Lfi_elf.Elf.write (Lfi_elf.Elf.of_image img) in
  let syms =
    Hashtbl.fold (fun n v acc -> (v, n) :: acc) img.Lfi_arm64.Assemble.symbols []
    |> List.sort compare
    |> List.map (fun (v, n) -> Printf.sprintf "%x %s\n" v n)
    |> String.concat ""
  in
  Printf.sprintf "%s %s md5=%s bytes=%d entry=0x%x syms=%s" name level
    (Digest.to_hex (Digest.bytes bytes))
    (Bytes.length bytes) img.Lfi_arm64.Assemble.entry
    (Digest.to_hex (Digest.string syms))

(* the programs Figure 4 / Table 4 and the CoreMark table compile
   through the Wasm engines, one line per engine *)
let wasm_golden_lines () =
  List.concat_map
    (fun (w : Lfi_workloads.Common.t) ->
      let m = Lfi_wasm.From_minic.lower w.Lfi_workloads.Common.program in
      List.map
        (fun (e : Lfi_wasm.Engine.t) ->
          let level =
            String.concat "_"
              (String.split_on_char ' '
                 (String.lowercase_ascii e.Lfi_wasm.Engine.name))
          in
          elf_line w.Lfi_workloads.Common.short level
            (Lfi_wasm.Compile_wasm.compile e m))
        Lfi_wasm.Engine.all)
    (Lfi_workloads.Registry.wasm_subset @ [ Lfi_workloads.Coremark.workload ])

let elf_golden_lines () =
  List.concat_map
    (fun (name, prog) ->
      let native = Compile.compile prog in
      let o2, _ = Lfi_core.Rewriter.rewrite ~config:Lfi_core.Config.o2 native in
      [ elf_line name "native" native; elf_line name "o2" o2 ])
    (golden_programs ())
  @ wasm_golden_lines ()


let check_golden file got =
  let expected = Golden.read_lines file in
  checki "golden lines" (List.length expected) (List.length got);
  List.iteri
    (fun k (e, g) ->
      Alcotest.(check string) (Printf.sprintf "line %d" (k + 1)) e g)
    (List.combine expected got)

let test_elf_golden () = check_golden "elf_golden.txt" (elf_golden_lines ())

(* ---------------- rewrite golden ---------------- *)

(* test/rewrite_golden.txt pins the rewriter's output: for every ELF
   golden program, a program of 400 generated functions (~300 KiB of
   text) and an assembly program whose tbz, cbz and b.cond targets the
   guards push out of range, at O0, O1 and O2, one line with the MD5 of
   the printed output, the six stats counters and the MD5 of the site
   table.
   Regenerate it only deliberately, with `make goldens` (which runs
   this executable with LFI_GOLDEN_OUT=$PWD/test/rewrite_golden.txt), and
   review `git diff test/`. *)

(* Register-offset loads cannot be hoisted, so each one grows by its
   guard at every level: 5000 of them push a tbz out of its +-32 KiB
   reach, and 140000 more push cbz and b.cond (+-1 MiB) out of theirs,
   forwards and backwards. *)
let far_branches_source () : Lfi_arm64.Source.t =
  let p = Lfi_arm64.Parser.parse_string_exn in
  let loads n = List.concat (List.init n (fun _ -> p "\tldr x1, [x2, x3]\n")) in
  List.concat
    [ p "f:\n\ttbz x0, #3, t_far\n\tcbz x0, c_far\n\tb.eq c_far\n";
      loads 5000;
      p "t_far:\n\ttbnz x0, #1, f\n";
      loads 140000;
      p "c_far:\n\tcbnz x0, f\n\tb.ne t_far\n\tret\n" ]

let rewrite_golden_inputs () : (string * Lfi_arm64.Source.t) list =
  List.map
    (fun (name, prog) -> (name, Compile.compile prog))
    (golden_programs () @ [ ("many", Synthetic.many_functions_program ()) ])
  @ [ ("far", far_branches_source ()) ]

let rewrite_line name (config : Lfi_core.Config.t) src =
  let out, st = Lfi_core.Rewriter.rewrite ~config src in
  let sites =
    List.map
      (fun (s : Lfi_core.Rewriter.site) ->
        Printf.sprintf "%d %s %b %d\n" s.s_out
          (Lfi_telemetry.Overhead.category_name s.s_cat) s.s_inserted s.s_orig)
      st.Lfi_core.Rewriter.sites
    |> String.concat ""
  in
  Printf.sprintf
    "%s %s md5=%s in=%d out=%d guards=%d hoists=%d sp_elided=%d relaxed=%d \
     sites=%s"
    name (Lfi_core.Config.opt_level_to_string config.Lfi_core.Config.opt)
    (Digest.to_hex (Digest.string (Lfi_arm64.Source.to_string out)))
    st.input_insns st.output_insns st.guards st.hoists st.sp_guards_elided
    st.branches_relaxed
    (Digest.to_hex (Digest.string sites))

let rewrite_golden_lines () =
  List.concat_map
    (fun (name, src) ->
      List.map
        (fun config -> rewrite_line name config src)
        Lfi_core.Config.[ o0; o1; o2 ])
    (rewrite_golden_inputs ())

let write_golden lines path =
  let oc = open_out path in
  List.iter (fun l -> output_string oc (l ^ "\n")) lines;
  close_out oc;
  Printf.printf "wrote %s\n%!" path

let test_rewrite_golden () =
  check_golden "rewrite_golden.txt" (rewrite_golden_lines ())

(* ---------------- verify golden ---------------- *)

(* test/verify_golden.txt pins the verifier's verdicts: one line per
   input with Ok's [checked]/[bytes], or the violation count and the MD5
   of every violation's [pp_violation] report (pc, rule and the +-2
   instruction context).  The inputs are the native, O0, O1 and O2
   images of the registry programs, coremark, the libraries and the
   many-function program, every test/corpus/*.s assembled as written,
   and 200 seeded single-bit flips of each O2 image but the
   many-function one, as one digest of the 200 verdicts per image.
   Regenerate it only deliberately, with `make goldens` (which runs
   this executable with LFI_GOLDEN_OUT=$PWD/test/verify_golden.txt), and
   review `git diff test/`. *)

let verdict ~origin code =
  match Lfi_verifier.Verifier.verify ~origin ~code () with
  | Ok r -> Printf.sprintf "ok checked=%d bytes=%d" r.checked r.bytes
  | Error vs ->
      let report =
        List.map (Format.asprintf "%a@." Lfi_verifier.Verifier.pp_violation) vs
      in
      Printf.sprintf "error violations=%d md5=%s" (List.length vs)
        (Digest.to_hex (Digest.string (String.concat "" report)))

let flip_count = 200

(* One digest of the verdicts on [flip_count] copies of [code], each
   with one seeded bit flipped. *)
let flips_digest ~origin code =
  let rand = Random.State.make [| 11 |] in
  let code = Bytes.copy code in
  let lines =
    List.init flip_count (fun _ ->
        let bit = Random.State.int rand (8 * Bytes.length code) in
        let flip () =
          Bytes.set_uint8 code (bit / 8)
            (Bytes.get_uint8 code (bit / 8) lxor (1 lsl (bit mod 8)))
        in
        flip ();
        let v = verdict ~origin code in
        flip ();
        Printf.sprintf "%d %s\n" bit v)
  in
  Digest.to_hex (Digest.string (String.concat "" lines))

let verify_golden_lines () =
  let image src = Lfi_arm64.Assemble.assemble src in
  let line name level (img : Lfi_arm64.Assemble.image) =
    Printf.sprintf "%s %s %s" name level
      (verdict ~origin:img.origin img.text)
  in
  let levels name native =
    let rewritten config =
      image (fst (Lfi_core.Rewriter.rewrite ~config native))
    in
    let o2 = rewritten Lfi_core.Config.o2 in
    ( [ line name "native" (image native);
        line name "o0" (rewritten Lfi_core.Config.o0);
        line name "o1" (rewritten Lfi_core.Config.o1);
        line name "o2" o2 ],
      o2 )
  in
  let programs = named_programs () in
  let compiled =
    List.map (fun (name, prog) -> levels name (Compile.compile prog)) programs
  in
  let many, _ =
    levels "many" (Compile.compile (Synthetic.many_functions_program ()))
  in
  let dir = Golden.path "corpus" in
  let corpus =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".s")
    |> List.sort compare
    |> List.map (fun f ->
           let text = Golden.read_file (Filename.concat dir f) in
           line f "as-written"
             (image (Lfi_arm64.Parser.parse_string_exn text)))
  in
  let flips =
    List.map2
      (fun (name, _) (_, (o2 : Lfi_arm64.Assemble.image)) ->
        Printf.sprintf "%s o2 flips=%d md5=%s" name flip_count
          (flips_digest ~origin:o2.origin o2.text))
      programs compiled
  in
  List.concat_map fst compiled @ many @ corpus @ flips

let test_verify_golden () =
  check_golden "verify_golden.txt" (verify_golden_lines ())

(* ---------------- the one build path ---------------- *)

(* An ELF that writes x21, and the same ELF without its segments. *)
let hostile () =
  Lfi_core.Build.elf None
    (Lfi_arm64.Parser.parse_string_exn "_start:\n\tmovz x21, #0\n\tsvc #1\n")

let textless () = { (hostile ()) with Lfi_elf.Elf.segments = [] }

let test_verify_elf_no_text () =
  checkb "typed error, no exception" true
    (Lfi_verifier.Verifier.verify_elf (textless ())
    = Error Lfi_verifier.Verifier.No_executable_segment)

(* The loader keeps its two messages, now with ELF addresses. *)
let test_load_errors () =
  let load elf =
    match
      Lfi_runtime.Runtime.(load (create ()) ~personality:Lfi_runtime.Proc.Lfi)
        elf
    with
    | exception Lfi_runtime.Runtime.Load_error m ->
        List.hd (String.split_on_char '\n' m)
    | _ -> Alcotest.fail "loaded"
  in
  Alcotest.(check string) "no text" "no executable segment"
    (load (textless ()));
  Alcotest.(check string) "rejected"
    "verification failed: 0x10000 (+0x0): movz x21, #0: write to x21 \
     (sandbox base) forbidden"
    (load (hostile ()))

(* primes.mc through Run.build and through lfi_cc, and with its return
   trampoline through Library.create: the same text and sites. *)
let test_one_path () =
  let prog = Minic_parser.parse (Golden.read_file "../examples/primes.mc") in
  let run_build = Lfi_experiments.Run.(build (Lfi Lfi_core.Config.o2)) in
  checki "lfi_cc exits 0" 0
    (Sys.command
       (Printf.sprintf "%s %s -o cli_primes.elf > cli_cc.tmp"
          (Filename.quote (Golden.path "../bin/lfi_cc.exe"))
          (Filename.quote (Golden.path "../examples/primes.mc"))));
  let same label (a : Lfi_elf.Elf.t) (b : Lfi_elf.Elf.t) =
    checkb (label ^ " text") true
      (Lfi_elf.Elf.text_segment a = Lfi_elf.Elf.text_segment b);
    checkb (label ^ " sites") true (a.sites <> [] && a.sites = b.sites)
  in
  same "lfi_cc" (run_build prog)
    (Lfi_elf.Elf.read (Bytes.of_string (Golden.read_file "cli_primes.elf")));
  same "Library.create"
    (run_build (Lfi_libbox.Library.with_trampoline prog))
    (Lfi_libbox.Library.create ~name:"primes" ~exports:[] prog)
      .Lfi_libbox.Library.elf

(* A library image has one site per rewrite site, through Elf.write
   and Elf.read. *)
let test_library_sites () =
  let prog = Lfi_workloads.Libs.xzbox_program in
  let elf = (Lfi_libbox.Library.create ~name:"xz" ~exports:[] prog).elf in
  let _, stats =
    Lfi_core.Rewriter.rewrite
      (Compile.compile (Lfi_libbox.Library.with_trampoline prog))
  in
  checki "one site per rewrite site"
    (List.length stats.Lfi_core.Rewriter.sites)
    (List.length elf.Lfi_elf.Elf.sites);
  checkb "sites survive write/read" true
    ((Lfi_elf.Elf.read (Lfi_elf.Elf.write elf)).sites = elf.sites)

let mk name f = Alcotest.test_case name `Quick f

let () =
  match Sys.getenv_opt "LFI_GOLDEN_OUT" with
  | Some path when Filename.basename path = "rewrite_golden.txt" ->
      write_golden (rewrite_golden_lines ()) path
  | Some path when Filename.basename path = "verify_golden.txt" ->
      write_golden (verify_golden_lines ()) path
  | Some path -> write_golden (elf_golden_lines ()) path
  | None ->
  Alcotest.run "pipeline"
    [
      ( "differential",
        [ QCheck_alcotest.to_alcotest prop_differential ] );
      ( "fixed",
        [
          mk "indirect calls" test_indirect_calls;
          mk "floats" test_float_pipeline;
          mk "interp edge cases" test_interp_matches_expected;
        ] );
      ( "wasm",
        [
          mk "validator rejects ill-typed" test_wasm_validator_catches;
          mk "stack discipline" test_wasm_stack_discipline;
          mk "serialization" test_wasm_serialization;
        ] );
      ("elf", [ mk "golden" test_elf_golden ]);
      ("rewrite", [ mk "golden" test_rewrite_golden ]);
      ("verify", [ mk "golden" test_verify_golden ]);
      ( "build",
        [
          mk "verify_elf without text" test_verify_elf_no_text;
          mk "load errors" test_load_errors;
          mk "one path" test_one_path;
          mk "library sites" test_library_sites;
        ] );
    ]
