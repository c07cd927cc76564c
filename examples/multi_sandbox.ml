(* Multi-sandbox demo: many isolation domains in one address space.

   Part A loads a dozen compute sandboxes and lets the preemptive
   scheduler multiplex them (timer-driven, §5.3).
   Part B forks a ring of sandboxes connected by pipes and passes a
   token around — Unix-style IPC between isolation domains, with every
   context switch a register swap rather than a page-table switch.
   Part C ping-pongs control between two sandboxes with the optimized
   direct yield (microkernel-style IPC).

   Run with: dune exec examples/multi_sandbox.exe *)

open Lfi_minic.Ast

let build prog =
  Lfi_core.Build.elf (Some Lfi_core.Config.default)
    (Lfi_minic.Compile.compile prog)

(* ---- Part A ---- *)

let compute_prog : program =
  let open Lfi_minic.Ast.Dsl in
  let main =
    func "main" ~params:[ ("seed", Int) ]
      ([ decl "s" Int (v "seed") ]
      @ for_ "k" (i 0) (i 60_000)
          [ set "s" (band (v "s" * i 1103515245 + i 12345) (i 0xFFFFFFF)) ]
      @ [ ret (band (v "s") (i 0x3FFFFFFF)) ])
  in
  { globals = []; funcs = [ main ] }

let part_a () =
  let n = 12 in
  let config = { Lfi_runtime.Runtime.default_config with quantum = 10_000 } in
  let rt = Lfi_runtime.Runtime.create ~config () in
  let elf = build compute_prog in
  let t0 = Unix.gettimeofday () in
  let procs =
    List.init n (fun k ->
        Lfi_runtime.Runtime.load rt ~arg:(Int64.of_int (k + 1))
          ~personality:Lfi_runtime.Proc.Lfi elf)
  in
  let ms = (Unix.gettimeofday () -. t0) *. 1000. in
  let log = Lfi_runtime.Runtime.run rt in
  let done_ok =
    List.for_all
      (fun p ->
        match List.assoc_opt p.Lfi_runtime.Proc.pid log with
        | Some (Lfi_runtime.Runtime.Exited _) -> true
        | _ -> false)
      procs
  in
  Printf.printf
    "A: %d sandboxes loaded+verified in %.1f ms, multiplexed with %d \
     timer preemptions: %s\n"
    n ms rt.Lfi_runtime.Runtime.preemptions
    (if done_ok then "all finished" else "FAILED");
  (match procs with
  | a :: b :: _ ->
      Printf.printf "   slot bases: 0x%Lx, 0x%Lx, ... (max %d slots in a \
                     48-bit VA)\n"
        a.Lfi_runtime.Proc.base b.Lfi_runtime.Proc.base
        Lfi_core.Layout.max_sandboxes_48bit
  | _ -> ());
  done_ok

(* ---- Part B: fork ring with pipes ---- *)

let ring = 6
let rounds = 40
let ring_minus_1 = ring - 1
let fds_bytes = ring * 8

let ring_prog : program =
  let open Lfi_minic.Ast.Dsl in
  let main =
    func "main"
      ([
         (* R pipes: fds[2k] = read end, fds[2k+1] = write end *)
         decl "k" Int (i 0);
         while_ (v "k" < i ring)
           [
             expr (sys_pipe (addr "fds" + shl (v "k") (i 3)));
             set "k" (v "k" + i 1);
           ];
         (* fork the other members; child j breaks out with its index *)
         decl "j" Int (i 0);
         decl "jj" Int (i 1);
         while_ (v "jj" < i ring)
           [
             if_ (Bin (Eq, sys_fork (), i 0))
               [ set "j" (v "jj"); Break ]
               [];
             set "jj" (v "jj" + i 1);
           ];
         decl "infd" Int (ld I32 (addr "fds" + shl (v "j") (i 3)));
         decl "nextj" Int ((v "j" + i 1) % i ring);
         decl "outfd" Int (ld I32 (addr "fds" + shl (v "nextj") (i 3) + i 4));
         store U8 (addr "buf") (i 42);
         if_ (Bin (Eq, v "j", i 0))
           [ expr (sys_write (v "outfd") (addr "buf") (i 1)) ]
           [];
         decl "r" Int (i 0);
         while_ (v "r" < i rounds)
           [
             expr (sys_read (v "infd") (addr "buf") (i 1));
             expr (sys_write (v "outfd") (addr "buf") (i 1));
             set "r" (v "r" + i 1);
           ];
         if_ (Bin (Eq, v "j", i 0))
           ([ decl "w" Int (i 0) ]
           @ [
               while_ (v "w" < i ring_minus_1)
                 [
                   expr (sys_wait (addr "status"));
                   set "w" (v "w" + i 1);
                 ];
             ])
           [];
         ret (v "r" * i 10 + v "j");
       ])
  in
  {
    globals = [ Zeroed ("fds", fds_bytes); Zeroed ("buf", 8); Zeroed ("status", 8) ];
    funcs = [ main ];
  }

let part_b () =
  let rt = Lfi_runtime.Runtime.create () in
  let p = Lfi_runtime.Runtime.load rt ~personality:Lfi_runtime.Proc.Lfi (build ring_prog) in
  let log = Lfi_runtime.Runtime.run rt in
  let ok =
    match List.assoc_opt p.Lfi_runtime.Proc.pid log with
    | Some (Lfi_runtime.Runtime.Exited c) -> c = (rounds * 10) + 0
    | _ -> false
  in
  Printf.printf
    "B: token circulated a fork()ed %d-sandbox pipe ring %d times \
     (%d context switches): %s\n"
    ring rounds rt.Lfi_runtime.Runtime.ctx_switches
    (if ok then "OK" else "FAILED");
  ok

(* ---- Part C: direct yield ping-pong ---- *)

let yield_iters = 500

let yield_prog : program =
  let open Lfi_minic.Ast.Dsl in
  let main =
    func "main" ~params:[ ("peer", Int) ]
      (for_ "k" (i 0) (i yield_iters)
         [ expr (sys_yield_to (v "peer")) ]
      @ [ ret (i 0) ])
  in
  { globals = []; funcs = [ main ] }

let part_c () =
  let rt = Lfi_runtime.Runtime.create () in
  let elf = build yield_prog in
  let p1 = Lfi_runtime.Runtime.load rt ~arg:2L ~personality:Lfi_runtime.Proc.Lfi elf in
  let p2 = Lfi_runtime.Runtime.load rt ~arg:1L ~personality:Lfi_runtime.Proc.Lfi elf in
  let cycles0 = Lfi_runtime.Runtime.cycles rt in
  let log = Lfi_runtime.Runtime.run rt in
  let ok =
    List.for_all
      (fun p ->
        match List.assoc_opt p.Lfi_runtime.Proc.pid log with
        | Some (Lfi_runtime.Runtime.Exited 0) -> true
        | _ -> false)
      [ p1; p2 ]
  in
  let per_switch =
    (Lfi_runtime.Runtime.cycles rt -. cycles0)
    /. float_of_int (2 * yield_iters)
  in
  Printf.printf
    "C: %d direct yields between two sandboxes at %.0f cycles/switch \
     (paper: ~50): %s\n"
    (2 * yield_iters) per_switch
    (if ok then "OK" else "FAILED");
  ok

let () =
  let ok = part_a () in
  let ok = part_b () && ok in
  let ok = part_c () && ok in
  if not ok then exit 1
