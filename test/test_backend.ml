(* Focused tests for the MiniC ARM64 backend (register pressure, ABI,
   spilling), the VFS, and the memory substrate. *)

open Lfi_minic

let checki = Alcotest.(check int)

let run_prog ?(system = Lfi_experiments.Run.Lfi Lfi_core.Config.o2) prog =
  (Lfi_experiments.Run.run system prog).Lfi_experiments.Run.exit_code

let main_only body =
  Ast.{ globals = [ Zeroed ("g", 256) ];
        funcs = [ { name = "main"; params = []; ret = Int; body } ] }

(* ---------------- register pressure / spilling ---------------- *)

let test_many_int_locals () =
  let open Ast.Dsl in
  (* 12 live int locals exceed the 6 callee-saved homes *)
  let decls = List.init 12 (fun k -> decl (Printf.sprintf "v%d" k) (Ast.Int : Ast.ty) (i (Stdlib.( + ) k 1))) in
  let sum =
    List.fold_left
      (fun acc k -> acc + v (Printf.sprintf "v%d" k))
      (i 0)
      (List.init 12 (fun k -> k))
  in
  checki "sum 1..12" 78 (run_prog (main_only (decls @ [ ret sum ])))

let test_many_float_locals () =
  let open Ast.Dsl in
  let decls =
    List.init 12 (fun k ->
        decl (Printf.sprintf "f%d" k) (Ast.Float : Ast.ty) (f (float_of_int (Stdlib.( + ) k 1))))
  in
  let sum =
    List.fold_left
      (fun acc k -> acc +. v (Printf.sprintf "f%d" k))
      (f 0.0)
      (List.init 12 (fun k -> k))
  in
  checki "fsum 1..12" 78 (run_prog (main_only (decls @ [ ret (ftoi sum) ])))

let test_eight_args () =
  let open Ast.Dsl in
  let params = List.init 8 (fun k -> (Printf.sprintf "a%d" k, (Ast.Int : Ast.ty))) in
  let body =
    [ ret
        (List.fold_left
           (fun acc k -> acc + v (Printf.sprintf "a%d" k))
           (i 0)
           (List.init 8 (fun k -> k))) ]
  in
  let f8 = Ast.{ name = "f8"; params; ret = Int; body } in
  let main =
    Ast.{ name = "main"; params = []; ret = Int;
          body = [ ret (call "f8" (List.init 8 (fun k -> i (Stdlib.( + ) k 1)))) ] }
  in
  checki "8 args" 36 (run_prog Ast.{ globals = []; funcs = [ f8; main ] })

let test_mixed_args () =
  let open Ast.Dsl in
  let fmix =
    Ast.{ name = "fmix";
          params = [ ("a", Int); ("x", Float); ("b", Int); ("y", Float) ];
          ret = Int;
          body = [ ret (v "a" + v "b" + ftoi (v "x" +. v "y")) ] }
  in
  let main =
    Ast.{ name = "main"; params = []; ret = Int;
          body = [ ret (call "fmix" [ i 1; f 2.5; i 3; f 4.5 ]) ] }
  in
  checki "mixed" 11 (run_prog Ast.{ globals = []; funcs = [ fmix; main ] })

let test_call_inside_args () =
  let open Ast.Dsl in
  (* argument evaluation where another argument contains a call must
     spill correctly *)
  let g = Ast.{ name = "g"; params = [ ("a", Int) ]; ret = Int;
                body = [ ret (v "a" * i 10) ] } in
  let h = Ast.{ name = "h"; params = [ ("a", Int); ("b", Int) ]; ret = Int;
                body = [ ret (v "a" - v "b") ] } in
  let main =
    Ast.{ name = "main"; params = []; ret = Int;
          body = [ ret (call "h" [ call "g" [ i 7 ]; call "g" [ i 2 ] ]) ] }
  in
  checki "nested calls" 50 (run_prog Ast.{ globals = []; funcs = [ g; h; main ] })

let test_call_both_operands () =
  let open Ast.Dsl in
  let g = Ast.{ name = "g"; params = [ ("a", Int) ]; ret = Int;
                body = [ ret (v "a" + i 1) ] } in
  let main =
    Ast.{ name = "main"; params = []; ret = Int;
          body = [ ret (call "g" [ i 10 ] * call "g" [ i 20 ]) ] }
  in
  checki "call * call" 231 (run_prog Ast.{ globals = []; funcs = [ g; main ] })

let test_deep_expression () =
  let open Ast.Dsl in
  (* deep enough to exercise scratch pressure but not overflow it *)
  let rec build k = if k = 0 then i 1 else i 1 + (i 1 + (i 1 * build (Stdlib.( - ) k 1))) in
  checki "deep" 25 (run_prog (main_only [ ret (build 12) ]))

let test_float_return () =
  let open Ast.Dsl in
  let favg =
    Ast.{ name = "favg"; params = [ ("a", Float); ("b", Float) ];
          ret = Float; body = [ ret ((v "a" +. v "b") /. f 2.0) ] }
  in
  let main =
    Ast.{ name = "main"; params = []; ret = Int;
          body = [ ret (ftoi (call "favg" [ f 3.0; f 5.0 ])) ] }
  in
  checki "float ret" 4 (run_prog Ast.{ globals = []; funcs = [ favg; main ] })

let test_recursion_depth () =
  let open Ast.Dsl in
  (* deep recursion exercises stack growth within the sandbox *)
  let deep =
    Ast.{ name = "deep"; params = [ ("n", Int) ]; ret = Int;
          body =
            [ if_ (v "n" == i 0) [ ret (i 0) ] [];
              ret (i 1 + call "deep" [ v "n" - i 1 ]) ] }
  in
  let main =
    Ast.{ name = "main"; params = []; ret = Int;
          body = [ ret (call "deep" [ i 5000 ]) ] }
  in
  checki "depth" 5000 (run_prog Ast.{ globals = []; funcs = [ deep; main ] })

let test_stack_overflow_contained () =
  let open Ast.Dsl in
  (* unbounded recursion must fault in the guard region, not corrupt
     anything *)
  let deep =
    Ast.{ name = "deep"; params = [ ("n", Int) ]; ret = Int;
          body = [ ret (i 1 + call "deep" [ v "n" + i 1 ]) ] }
  in
  let prog =
    Ast.{ globals = [];
          funcs =
            [ deep;
              { name = "main"; params = []; ret = Int;
                body = [ ret (call "deep" [ i 0 ]) ] } ] }
  in
  match Lfi_experiments.Run.run (Lfi_experiments.Run.Lfi Lfi_core.Config.o2) prog with
  | exception Lfi_experiments.Run.Run_failure _ -> ()
  | r -> Alcotest.failf "expected a contained fault, got exit %d" r.exit_code

(* ---------------- vfs unit tests ---------------- *)

let test_pipe_fifo () =
  let p = Lfi_runtime.Vfs.make_pipe () in
  (match Lfi_runtime.Vfs.pipe_write p (Bytes.of_string "abc") with
  | `Wrote 3 -> ()
  | _ -> Alcotest.fail "write");
  (match Lfi_runtime.Vfs.pipe_read p 2 with
  | `Data b -> Alcotest.(check string) "fifo" "ab" (Bytes.to_string b)
  | _ -> Alcotest.fail "read");
  match Lfi_runtime.Vfs.pipe_read p 10 with
  | `Data b -> Alcotest.(check string) "rest" "c" (Bytes.to_string b)
  | _ -> Alcotest.fail "read rest"

let test_pipe_blocking_and_eof () =
  let p = Lfi_runtime.Vfs.make_pipe () in
  (match Lfi_runtime.Vfs.pipe_read p 1 with
  | `Would_block -> ()
  | _ -> Alcotest.fail "empty pipe should block");
  p.Lfi_runtime.Vfs.writers <- 0;
  (match Lfi_runtime.Vfs.pipe_read p 1 with
  | `Eof -> ()
  | _ -> Alcotest.fail "should be EOF");
  let q = Lfi_runtime.Vfs.make_pipe () in
  q.Lfi_runtime.Vfs.readers <- 0;
  match Lfi_runtime.Vfs.pipe_write q (Bytes.of_string "x") with
  | `Broken -> ()
  | _ -> Alcotest.fail "should be broken"

let test_pipe_capacity () =
  let p = Lfi_runtime.Vfs.make_pipe () in
  let big = Bytes.make (Lfi_runtime.Vfs.pipe_capacity + 100) 'x' in
  (match Lfi_runtime.Vfs.pipe_write p big with
  | `Wrote n -> checki "partial" Lfi_runtime.Vfs.pipe_capacity n
  | _ -> Alcotest.fail "write");
  match Lfi_runtime.Vfs.pipe_write p (Bytes.of_string "y") with
  | `Would_block -> ()
  | _ -> Alcotest.fail "full pipe should block"

let test_pipe_wraparound () =
  let p = Lfi_runtime.Vfs.make_pipe () in
  (* push the cursors close to the capacity boundary, then wrap *)
  let chunk = Bytes.make (Lfi_runtime.Vfs.pipe_capacity - 10) 'a' in
  (match Lfi_runtime.Vfs.pipe_write p chunk with `Wrote _ -> () | _ -> assert false);
  (match Lfi_runtime.Vfs.pipe_read p (Bytes.length chunk) with
  | `Data _ -> ()
  | _ -> assert false);
  (match Lfi_runtime.Vfs.pipe_write p (Bytes.of_string "0123456789ABCDEF") with
  | `Wrote 16 -> ()
  | _ -> Alcotest.fail "wrap write");
  match Lfi_runtime.Vfs.pipe_read p 16 with
  | `Data b -> Alcotest.(check string) "wrap" "0123456789ABCDEF" (Bytes.to_string b)
  | _ -> Alcotest.fail "wrap read"

let test_file_growth () =
  let vfs = Lfi_runtime.Vfs.create () in
  match Lfi_runtime.Vfs.open_file vfs ~path:"/f" ~writable:true with
  | Error _ -> Alcotest.fail "open"
  | Ok (Lfi_runtime.Vfs.File { file; _ }) ->
      for k = 0 to 99 do
        Lfi_runtime.Vfs.file_write file ~pos:(k * 3) (Bytes.of_string "abc")
      done;
      checki "size" 300 file.Lfi_runtime.Vfs.size;
      let back = Lfi_runtime.Vfs.file_read file ~pos:297 ~len:10 in
      Alcotest.(check string) "tail" "abc" (Bytes.to_string back)
  | Ok _ -> Alcotest.fail "wrong fd kind"

(* ---------------- operation selector ---------------- *)

(* Both compilers emit every operation through Frame.int_op and
   Frame.cmp: at the boundary immediates of each operation, the
   selector either emits instructions that encode or raises
   Frame.Error; it never hands the assembler a field out of range. *)
let test_selector_fails_closed () =
  let open Lfi_arm64 in
  let boundaries =
    [ min_int; -4096; -1; 0; 1; 2; 3; 5; 62; 63; 64; 65; 4095; 4096;
      1 lsl 60; 1 lsl 61; max_int ]
  in
  let encoded = ref 0 in
  let check_emit what f =
    let fr = Frame.create ~name:what ~int_homes:[] ~fp_homes:[] [] [] in
    match f fr with
    | exception Frame.Error _ -> ()
    | () ->
        incr encoded;
        List.iter
          (function
            | Lfi_arm64.Source.Insn i -> (
                match Isa.encode i with
                | Ok _ -> ()
                | Error e -> Alcotest.failf "%s: %s" what e)
            | _ -> ())
          fr.Frame.out
  in
  List.iter
    (fun (name, op) ->
      check_emit (name ^ " reg") (fun fr -> Frame.int_op fr op 9 10 (`Reg 11));
      List.iter
        (fun v ->
          check_emit (Printf.sprintf "%s #%d" name v) (fun fr ->
              Frame.int_op fr op 9 10 (`Imm v)))
        boundaries)
    Frame.
      [ ("add", Add); ("sub", Sub); ("and", And); ("or", Or); ("xor", Xor);
        ("shl", Shl); ("asr", Asr); ("lsr", Lsr); ("mul", Mul);
        ("sdiv", Sdiv) ];
  List.iter
    (fun v ->
      check_emit (Printf.sprintf "cmp #%d" v) (fun fr -> Frame.cmp fr 9 (`Imm v)))
    boundaries;
  (* 10 register forms; add, sub and cmp take 0..4095 (3 x 10 of the
     boundaries), the shifts 0..63 (3 x 7), mul 1, 2, 64, 4096, 2^60
     and 2^61 *)
  checki "forms that encode" (10 + 30 + 21 + 6) !encoded

(* ---------------- memory property ---------------- *)

let prop_memory_roundtrip =
  QCheck.Test.make ~count:300 ~name:"memory read (write a v) = v"
    QCheck.(
      triple (int_range 0 (Lfi_emulator.Memory.page_size * 3 - 9))
        (oneofl [ 1; 2; 4; 8 ])
        (int_bound max_int))
    (fun (off, size, value) ->
      let m = Lfi_emulator.Memory.create () in
      Lfi_emulator.Memory.map m ~addr:0L
        ~len:(Lfi_emulator.Memory.page_size * 3)
        ~perm:Lfi_emulator.Memory.perm_rw;
      let addr = Int64.of_int off in
      let v64 = Int64.of_int value in
      Lfi_emulator.Memory.write m addr size v64;
      let mask =
        if size = 8 then -1L
        else Int64.sub (Int64.shift_left 1L (8 * size)) 1L
      in
      Int64.equal
        (Lfi_emulator.Memory.read m addr size)
        (Int64.logand v64 mask))

let mk name f = Alcotest.test_case name `Quick f

let () =
  Alcotest.run "backend"
    [
      ( "codegen",
        [
          mk "many int locals" test_many_int_locals;
          mk "many float locals" test_many_float_locals;
          mk "eight args" test_eight_args;
          mk "mixed args" test_mixed_args;
          mk "call inside args" test_call_inside_args;
          mk "call both operands" test_call_both_operands;
          mk "deep expression" test_deep_expression;
          mk "float return" test_float_return;
          mk "recursion depth" test_recursion_depth;
          mk "stack overflow contained" test_stack_overflow_contained;
          mk "selector fails closed" test_selector_fails_closed;
        ] );
      ( "vfs",
        [
          mk "pipe fifo" test_pipe_fifo;
          mk "pipe blocking/eof" test_pipe_blocking_and_eof;
          mk "pipe capacity" test_pipe_capacity;
          mk "pipe wraparound" test_pipe_wraparound;
          mk "file growth" test_file_growth;
        ] );
      ("memory", [ QCheck_alcotest.to_alcotest prop_memory_roundtrip ]);
    ]
