(* Fork demo: fork() in a single address space (§5.3).

   Because every memory access is guarded with the sandbox base, a
   pointer is really a 32-bit offset — so the runtime can copy a
   sandbox into a different 4GiB slot and the child's pointers still
   work.  The child here follows a linked list its *parent* built
   (raw pointers stored in memory), mutates its own copy, and the
   parent proves isolation by seeing its original values unchanged.

   Run with: dune exec examples/fork_demo.exe *)

open Lfi_minic.Ast

let nodes = 64
let nodes1 = nodes - 1
let pool_bytes = nodes * 16

let program : program =
  let open Lfi_minic.Ast.Dsl in
  let main =
    func "main"
      ([
         (* build a linked list: node k -> node k+1; payload = k*k *)
         decl "k" Int (i 0);
         while_ (v "k" < i nodes)
           [
             decl "np" Int (addr "pool" + shl (v "k") (i 4));
             if_ (v "k" < i nodes1)
               [ store I64 (v "np") (v "np" + i 16) ]
               [ store I64 (v "np") (i 0) ];
             store I64 (v "np" + i 8) (v "k" * v "k");
             set "k" (v "k" + i 1);
           ];
         decl "pid" Int (sys_fork ());
         if_ (Bin (Eq, v "pid", i 0))
           [
             (* child: walk the list (parent-built pointers!), sum and
                overwrite payloads *)
             decl "sum" Int (i 0);
             decl "p" Int (addr "pool");
             while_ (Bin (Ne, v "p", i 0))
               [
                 set "sum" (v "sum" + ld I64 (v "p" + i 8));
                 store I64 (v "p" + i 8) (i 0);
                 set "p" (ld I64 (v "p"));
               ];
             ret (v "sum");
           ]
           [
             (* parent: wait, then checksum its own (untouched) copy *)
             decl "st" Int (i 0);
             expr (sys_wait (addr "status"));
             set "st" (ld I32 (addr "status"));
             decl "sum" Int (i 0);
             decl "p" Int (addr "pool");
             while_ (Bin (Ne, v "p", i 0))
               [
                 set "sum" (v "sum" + ld I64 (v "p" + i 8));
                 set "p" (ld I64 (v "p"));
               ];
             (* encode: parent's sum must equal child's exit status *)
             if_ (Bin (Eq, v "sum", v "st"))
               [ ret (v "sum") ]
               [ ret (i (-1)) ];
           ];
       ])
  in
  { globals = [ Zeroed ("pool", pool_bytes); Zeroed ("status", 8) ]; funcs = [ main ] }

let () =
  let elf =
    Lfi_core.Build.elf (Some Lfi_core.Config.default)
      (Lfi_minic.Compile.compile program)
  in
  let rt = Lfi_runtime.Runtime.create () in
  let parent = Lfi_runtime.Runtime.load rt ~personality:Lfi_runtime.Proc.Lfi elf in
  let log = Lfi_runtime.Runtime.run rt in
  let expected = List.init nodes (fun k -> k * k) |> List.fold_left ( + ) 0 in
  match List.assoc_opt parent.Lfi_runtime.Proc.pid log with
  | Some (Lfi_runtime.Runtime.Exited code) when code = expected ->
      Printf.printf
        "fork OK: the child (in a different 4GiB slot) walked the \
         parent-built\nlinked list and summed %d; the parent's copy was \
         untouched.\nPointers healed across the copy because guards \
         rewrite their top 32 bits (§5.3).\n"
        code
  | Some (Lfi_runtime.Runtime.Exited code) ->
      Printf.printf "FAILED: exit %d (expected %d)\n" code expected;
      exit 1
  | other ->
      Printf.printf "FAILED: %s\n"
        (match other with
        | Some (Lfi_runtime.Runtime.Killed w) -> w
        | _ -> "no exit");
      exit 1
