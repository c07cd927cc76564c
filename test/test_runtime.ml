(* Integration tests for the runtime: loading, verification at load,
   runtime calls, the VFS, pipes, fork, wait, scheduling, isolation. *)

open Lfi_arm64

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

let build ?(rewrite = true) asm =
  Lfi_core.Build.elf
    (if rewrite then Some Lfi_core.Config.default else None)
    (Parser.parse_string_exn asm)

let run_lfi ?config asm =
  let rt = Lfi_runtime.Runtime.create ?config () in
  let p = Lfi_runtime.Runtime.load rt ~personality:Lfi_runtime.Proc.Lfi (build asm) in
  Lfi_runtime.Runtime.run_one rt p

let exit_code = function
  | Lfi_runtime.Runtime.Exited c, _, _, _ -> c
  | Lfi_runtime.Runtime.Killed why, _, _, _ -> Alcotest.failf "killed: %s" why

(* ---------------- basic runtime calls ---------------- *)

let test_exit () =
  checki "code" 42 (exit_code (run_lfi "_start:\n\tmovz x0, #42\n\tsvc #1\n\tb _start\n"))

let test_write_stdout () =
  let reason, out, _, _ =
    run_lfi
      "_start:\n\tadr x1, msg\n\tmovz x0, #1\n\tmovz x2, #3\n\tsvc #2\n\tsvc \
       #1\n\tb _start\n.data\nmsg:\n\t.asciz \"abc\"\n"
  in
  ignore reason;
  checks "stdout" "abc" out

let test_getpid () =
  checki "pid" 1 (exit_code (run_lfi "_start:\n\tsvc #10\n\tsvc #1\n\tb _start\n"))

(* box_ret ends a library call; a program that calls it gets ENOSYS *)
let test_box_ret_outside_library () =
  checki "ENOSYS" (-38)
    (exit_code (run_lfi "_start:\n\tmovz x0, #5\n\tsvc #16\n\tsvc #1\n\tb _start\n"))

let test_unknown_syscall () =
  (* rewriter maps svc #40 to table entry 40 which is within Sysno
     range? 40 >= count -> unmapped entry -> trap *)
  let rt = Lfi_runtime.Runtime.create () in
  let p =
    Lfi_runtime.Runtime.load rt ~personality:Lfi_runtime.Proc.Lfi
      (build "_start:\n\tsvc #40\n\tsvc #1\n\tb _start\n")
  in
  match Lfi_runtime.Runtime.run_one rt p with
  | Lfi_runtime.Runtime.Killed _, _, _, _ -> ()
  | Lfi_runtime.Runtime.Exited c, _, _, _ ->
      Alcotest.failf "exited %d but should have trapped" c

(* ---------------- load-time verification ---------------- *)

let test_load_rejects_unverified () =
  let rt = Lfi_runtime.Runtime.create () in
  match
    Lfi_runtime.Runtime.load rt ~personality:Lfi_runtime.Proc.Lfi
      (build ~rewrite:false "_start:\n\tstr x0, [x1]\n\tsvc #1\n\tb _start\n")
  with
  | exception Lfi_runtime.Runtime.Load_error _ -> ()
  | _ -> Alcotest.fail "unverified binary loaded"

let test_native_skips_verification () =
  let rt = Lfi_runtime.Runtime.create () in
  let p =
    Lfi_runtime.Runtime.load rt
      ~personality:Lfi_runtime.Proc.Native_in_lfi_runtime
      (build ~rewrite:false
         "_start:\n\tadr x1, d\n\tmovz x2, #7\n\tstr x2, [x1]\n\tldr x0, \
          [x1]\n\tsvc #1\n\tb _start\n.data\nd:\n\t.quad 0\n")
  in
  checki "native" 7 (exit_code (Lfi_runtime.Runtime.run_one rt p))

(* ---------------- files and access control ---------------- *)

let asm_open_read =
  (* open("/data/f"), read 3 bytes, exit with first byte *)
  "_start:\n\tadr x0, path\n\tmovz x1, #0\n\tsvc #4\n\tmov x3, x0\n\tmov x0, \
   x3\n\tadr x1, buf\n\tmovz x2, #3\n\tsvc #3\n\tadr x4, buf\n\tldrb w0, \
   [x4]\n\tsvc #1\n\tb _start\n.data\npath:\n\t.asciz \
   \"/data/f\"\nbuf:\n\t.zero 8\n"

let test_file_read () =
  let rt = Lfi_runtime.Runtime.create () in
  Lfi_runtime.Vfs.add_file rt.Lfi_runtime.Runtime.vfs "/data/f" "XYZ";
  let p = Lfi_runtime.Runtime.load rt ~personality:Lfi_runtime.Proc.Lfi (build asm_open_read) in
  checki "first byte" (Char.code 'X') (exit_code (Lfi_runtime.Runtime.run_one rt p))

let test_access_control () =
  let config =
    { Lfi_runtime.Runtime.default_config with allowed_prefixes = [ "/tmp" ] }
  in
  let rt = Lfi_runtime.Runtime.create ~config () in
  Lfi_runtime.Vfs.add_file rt.Lfi_runtime.Runtime.vfs "/data/f" "XYZ";
  (* open must fail with EACCES (-13); exit with open's result *)
  let p =
    Lfi_runtime.Runtime.load rt ~personality:Lfi_runtime.Proc.Lfi
      (build
         "_start:\n\tadr x0, path\n\tmovz x1, #0\n\tsvc #4\n\tsvc #1\n\tb \
          _start\n.data\npath:\n\t.asciz \"/data/f\"\n")
  in
  checki "eacces" (-13) (exit_code (Lfi_runtime.Runtime.run_one rt p))

let test_file_write_and_contents () =
  let rt = Lfi_runtime.Runtime.create () in
  let p =
    Lfi_runtime.Runtime.load rt ~personality:Lfi_runtime.Proc.Lfi
      (build
         "_start:\n\tadr x0, path\n\tmovz x1, #1\n\tsvc #4\n\tmov x5, \
          x0\n\tmov x0, x5\n\tadr x1, msg\n\tmovz x2, #2\n\tsvc #2\n\tmov x0, \
          x5\n\tsvc #5\n\tmovz x0, #0\n\tsvc #1\n\tb _start\n.data\n\
          path:\n\t.asciz \"/out\"\nmsg:\n\t.asciz \"hi\"\n")
  in
  checki "exit" 0 (exit_code (Lfi_runtime.Runtime.run_one rt p));
  match Lfi_runtime.Vfs.lookup rt.Lfi_runtime.Runtime.vfs "/out" with
  | Some f -> checks "contents" "hi" (Lfi_runtime.Vfs.file_contents f)
  | None -> Alcotest.fail "file not created"

(* ---------------- memory management ---------------- *)

let test_mmap () =
  (* mmap 2 pages, store/load across them *)
  let code =
    "_start:\n\tmovz x0, #0x8000\n\tsvc #11\n\tmov x1, x0\n\tmovz x2, \
     #99\n\tstr x2, [x1, #4096]\n\tldr x0, [x1, #4096]\n\tsvc #1\n\tb _start\n"
  in
  checki "mmap rw" 99 (exit_code (run_lfi code))

let test_brk () =
  let code =
    "_start:\n\tmovz x0, #0\n\tsvc #15\n\tmov x1, x0\n\tadd x0, x1, #2048\n\t\
     svc #15\n\tmovz x2, #55\n\tstr x2, [x1]\n\tldr x0, [x1]\n\tsvc #1\n\tb _start\n"
  in
  checki "brk" 55 (exit_code (run_lfi code))

(* a break inside the top guard region is past the stack bottom, the
   bound mmap also keeps: ENOMEM, and the guard stays unmapped *)
let test_brk_guard () =
  let rt = Lfi_runtime.Runtime.create () in
  let p =
    Lfi_runtime.Runtime.load rt ~personality:Lfi_runtime.Proc.Lfi
      (build
         "_start:\n\tmovz x0, #0x8000\n\tmovk x0, #0xFFFF, lsl #16\n\t\
          svc #15\n\tsvc #1\n\tb _start\n")
  in
  let heap_end = p.Lfi_runtime.Proc.heap_end in
  checki "ENOMEM" (-12) (exit_code (Lfi_runtime.Runtime.run_one rt p));
  checkb "break unchanged" true
    (Int64.equal p.Lfi_runtime.Proc.heap_end heap_end);
  let guard = Lfi_core.Layout.stack_top in
  List.iter
    (fun off ->
      checkb
        (Printf.sprintf "guard page +0x%x unmapped" off)
        false
        (Lfi_emulator.Memory.is_mapped rt.Lfi_runtime.Runtime.mem
           (Int64.add p.Lfi_runtime.Proc.base (Int64.of_int (guard + off)))))
    [ 0; 0x4000; 0x8000 ]

(* ---------------- demand-zero memory ---------------- *)

(* Words [f ()] allocates, small and large blocks alike: a block of
   more than 256 words (a 16 KiB page is 2049) goes straight to the
   major heap, where [Gc.minor_words] does not see it.  The major-heap
   counters are read after a full major cycle, when they are settled
   in every OCaml runtime. *)
let allocated_words f =
  Gc.full_major ();
  let mi0, pr0, ma0 = Gc.counters () in
  let r = f () in
  Gc.full_major ();
  let mi1, pr1, ma1 = Gc.counters () in
  (r, mi1 -. mi0 +. (ma1 -. ma0) -. (pr1 -. pr0))

(* A load maps a 2 MiB stack, 128 pages, that share the zero page
   until written, so only the call table and the text get bytes of
   their own: a trivial program's load allocates ~18k words in either
   profile, ~12k of them the call table's 2048 boxed stores.  Zero-
   filling every mapped page allocated ~280k. *)
let load_words_bound = 20_000.

let test_load_allocates_little () =
  let elf = build "_start:\n\tmovz x0, #0\n\tsvc #1\n\tb _start\n" in
  let rt = Lfi_runtime.Runtime.create () in
  let load () =
    ignore (Lfi_runtime.Runtime.load rt ~personality:Lfi_runtime.Proc.Lfi elf)
  in
  load ();
  let (), words = allocated_words load in
  checkb
    (Printf.sprintf "%.0f words per load <= %.0f" words load_words_bound)
    true (words <= load_words_bound)

(* A guest that maps 256 MiB, reads its first word and exits: the
   mapping costs a page record and a table entry per 16 KiB page, not
   the pages, ~1.8 MB for the whole run (load included) in either
   profile; zero-filling it allocated ~272 MB. *)
let mmap_bytes_bound = 2_000_000.

let test_mmap_costs_little () =
  let elf =
    build
      "_start:\n\tmovz x0, #0x1000, lsl #16\n\tsvc #11\n\tmov x1, x0\n\t\
       ldr x0, [x1]\n\tsvc #1\n\tb _start\n"
  in
  let rt = Lfi_runtime.Runtime.create () in
  let r, words =
    allocated_words (fun () ->
        Lfi_runtime.Runtime.run_one rt
          (Lfi_runtime.Runtime.load rt ~personality:Lfi_runtime.Proc.Lfi elf))
  in
  checki "read a zero" 0 (exit_code r);
  let bytes = words *. float_of_int (Sys.word_size / 8) in
  checkb
    (Printf.sprintf "%.0f bytes <= %.0f" bytes mmap_bytes_bound)
    true (bytes <= mmap_bytes_bound)

(* Fork copies the pages the parent wrote and leaves the ones it never
   wrote sharing the zero page in the child; nothing writes into the
   shared page, and the child's bytes and permissions equal the
   parent's page for page (the call table, rebuilt for the child's
   slot, aside). *)
let test_fork_zero_backed_pages () =
  let module Memory = Lfi_emulator.Memory in
  let module Proc = Lfi_runtime.Proc in
  let rt = Lfi_runtime.Runtime.create () in
  let p =
    Lfi_runtime.Runtime.load rt ~personality:Proc.Lfi
      (build "_start:\n\tmovz x0, #0\n\tsvc #1\n\tb _start\n")
  in
  let mem = rt.Lfi_runtime.Runtime.mem in
  let top = Int64.add p.Proc.base (Int64.of_int Lfi_core.Layout.stack_top) in
  Memory.write mem (Int64.sub top 8L) 8 0x1122334455667788L;
  Memory.write mem (Int64.sub top (Int64.of_int (3 * Memory.page_size))) 4 7L;
  let pid = Lfi_runtime.Runtime.do_fork rt p in
  let child = Hashtbl.find rt.Lfi_runtime.Runtime.procs pid in
  let pages (q : Proc.t) =
    let first = Memory.page_index q.Proc.base in
    Lfi_runtime.Runtime.slot_pages mem q.Proc.base
    |> List.filter_map (fun (idx, pg) ->
           if idx = first then None else Some (idx - first, pg))
  in
  let shared pg = Memory.page_data pg == Memory.zero_page in
  let pp = pages p and cp = pages child in
  checki "same pages" (List.length pp) (List.length cp);
  checkb "parent has written and unwritten pages" true
    (List.exists (fun (_, pg) -> shared pg) pp
    && List.exists (fun (_, pg) -> not (shared pg)) pp);
  List.iter2
    (fun (off, pg) (off', cg) ->
      checki "page offset" off off';
      checki "permission" (Memory.page_perm pg) (Memory.page_perm cg);
      checkb "bytes" true (Bytes.equal (Memory.page_data pg) (Memory.page_data cg));
      checkb "zero-backed alike" (shared pg) (shared cg))
    pp cp;
  checkb "zero page all zeros" true
    (Bytes.equal Memory.zero_page (Bytes.make Memory.page_size '\000'))

(* ---------------- faults kill the process ---------------- *)

let test_guard_page_fault () =
  (* store through sp after moving it to the bottom of the stack region
     is fine; loading from unmapped heap traps *)
  let rt = Lfi_runtime.Runtime.create () in
  let p =
    Lfi_runtime.Runtime.load rt ~personality:Lfi_runtime.Proc.Lfi
      (build
         "_start:\n\tmovz x1, #0x2000, lsl #16\n\tldr x0, [x1]\n\tsvc #1\n\tb _start\n")
  in
  match Lfi_runtime.Runtime.run_one rt p with
  | Lfi_runtime.Runtime.Killed why, _, _, _ ->
      let contains hay needle =
        let nl = String.length needle and hl = String.length hay in
        let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
        go 0
      in
      checkb "fault" true (contains why "fault")
  | _ -> Alcotest.fail "expected kill"

(* ---------------- fork / wait / pipes ---------------- *)

let test_fork_pids () =
  (* parent exits with child pid (2); child exits 0 *)
  let code =
    "_start:\n\tsvc #7\n\tsvc #1\n\tb _start\n"
  in
  let rt = Lfi_runtime.Runtime.create () in
  let p = Lfi_runtime.Runtime.load rt ~personality:Lfi_runtime.Proc.Lfi (build code) in
  let log = Lfi_runtime.Runtime.run rt in
  (match List.assoc_opt p.Lfi_runtime.Proc.pid log with
  | Some (Lfi_runtime.Runtime.Exited c) -> checki "parent sees child pid" 2 c
  | _ -> Alcotest.fail "parent did not exit");
  match List.assoc_opt 2 log with
  | Some (Lfi_runtime.Runtime.Exited 0) -> ()
  | _ -> Alcotest.fail "child did not exit 0"

let test_fork_isolation () =
  (* child increments a global then exits with it; parent waits and
     exits with its own (unchanged) copy + child status *)
  let code =
    "_start:\n\tadr x9, cell\n\tmovz x1, #5\n\tstr x1, [x9]\n\tsvc #7\n\tcbnz \
     x0, parent\n\tldr x1, [x9]\n\tadd x1, x1, #1\n\tstr x1, [x9]\n\tldr x0, \
     [x9]\n\tsvc #1\nparent:\n\tadr x2, status\n\tmov x0, x2\n\tsvc #8\n\tadr \
     x3, status\n\tldr w4, [x3]\n\tadr x9, cell\n\tldr x5, [x9]\n\tlsl x5, \
     x5, #8\n\tadd x0, x5, x4\n\tsvc #1\n\tb _start\n.data\ncell:\n\t.quad \
     0\nstatus:\n\t.quad 0\n"
  in
  (* parent: own cell (5) << 8 | child status (6) = 0x506 *)
  checki "isolation" 0x506 (exit_code (run_lfi code))

(* fork returns 0 in the child's x0 whatever x0 held before, and the
   child inherits every other register: the child exits with x0 + x5
   = 0 + 9, the parent with the child's pid. *)
let test_fork_child_x0 () =
  let code =
    "_start:\n\tmovz x0, #77\n\tmovz x5, #9\n\tsvc #7\n\tcbnz x0, \
     parent\n\tadd x0, x0, x5\n\tsvc #1\nparent:\n\tsvc #1\n\tb _start\n"
  in
  let rt = Lfi_runtime.Runtime.create () in
  let p =
    Lfi_runtime.Runtime.load rt ~personality:Lfi_runtime.Proc.Lfi (build code)
  in
  let log = Lfi_runtime.Runtime.run rt in
  (match List.assoc_opt p.Lfi_runtime.Proc.pid log with
  | Some (Lfi_runtime.Runtime.Exited c) -> checki "parent sees child pid" 2 c
  | _ -> Alcotest.fail "parent did not exit");
  match List.assoc_opt 2 log with
  | Some (Lfi_runtime.Runtime.Exited c) -> checki "child: x0 = 0, x5 kept" 9 c
  | _ -> Alcotest.fail "child did not exit"

(* A library call's entry is written in place: [Machine.clear], the
   arguments, then [Runtime.entry_state] on the file on the machine.
   It leaves exactly the anchored entry state: args in x0..x7,
   x18/x21/x23/x24 at the slot base, x30 at the link, pc and sp
   rebased into the slot, every other register, the flags and both
   halves of every vector zero, whatever the file held before; and the
   same bytes as an entry built on a fresh file. *)
let test_entry_in_place () =
  let module M = Lfi_emulator.Machine in
  let base = Lfi_core.Layout.slot_base 3 in
  let args = [ 1L; -2L; 0x1234_5678_9abc_def0L; 4L; 5L; 6L; 7L; 8L ] in
  let pc = 0x10040 and link = 0x2_0000_0100 in
  let m = M.create (Lfi_emulator.Memory.create ()) in
  let f = m.M.regs in
  for n = 0 to 30 do M.set_x f n (Int64.of_int (0x1111 * (n + 1))) done;
  M.set_sp f 0xdead_beefL;
  M.set_pc f 0xfeedL;
  M.set_nzcv f 0b1011;
  for n = 0 to 31 do
    M.set_vlo f n (Int64.of_int (n + 1));
    M.set_vhi f n (Int64.of_int (-n - 1))
  done;
  M.set_monitor m 0x40L;
  M.clear m;
  List.iteri (M.set_x f) args;
  Lfi_runtime.Runtime.entry_state f base ~pc ~link;
  let in_slot v = Int64.logor base (Int64.logand v 0xFFFF_FFFFL) in
  let check64 what = Alcotest.(check int64) what in
  List.iteri (fun i v -> check64 (Printf.sprintf "x%d" i) v (M.x f i)) args;
  for n = 8 to 29 do
    check64 (Printf.sprintf "x%d" n)
      (if List.mem n [ 18; 21; 23; 24 ] then base else 0L)
      (M.x f n)
  done;
  check64 "x30" (in_slot (Int64.of_int link)) (M.x f 30);
  check64 "pc" (in_slot (Int64.of_int pc)) (M.pc f);
  check64 "sp" (in_slot (Int64.of_int Lfi_core.Layout.stack_top)) (M.sp f);
  checki "flags" 0 (M.nzcv f);
  for n = 0 to 31 do
    check64 (Printf.sprintf "v%d" n) 0L (M.vlo f n);
    check64 (Printf.sprintf "v%d high" n) 0L (M.vhi f n)
  done;
  checkb "exclusive monitor cleared" true (M.monitor m = None);
  let fresh = M.empty_regs () in
  List.iteri (M.set_x fresh) args;
  Lfi_runtime.Runtime.entry_state fresh base ~pc ~link;
  checkb "same bytes as a fresh entry file" true (Bytes.equal fresh f)

let test_wait_echild () =
  let code = "_start:\n\tmovz x0, #0\n\tsvc #8\n\tsvc #1\n\tb _start\n" in
  checki "echild" (-10) (exit_code (run_lfi code))

let test_pipe_blocking () =
  (* parent writes after child already blocked reading *)
  let code =
    "_start:\n\tadr x0, fds\n\tsvc #6\n\tsvc #7\n\tcbnz x0, parent\n\
     child:\n\tadr x1, fds\n\tldr w0, [x1]\n\tadr x1, buf\n\tmovz x2, #1\n\t\
     svc #3\n\tadr x1, buf\n\tldrb w0, [x1]\n\tsvc #1\n\
     parent:\n\tadr x1, buf\n\tmovz x2, #65\n\tstrb w2, [x1]\n\tadr x3, \
     fds\n\tldr w0, [x3, #4]\n\tmovz x2, #1\n\tsvc #2\n\tadr x4, status\n\t\
     mov x0, x4\n\tsvc #8\n\tadr x4, status\n\tldr w0, [x4]\n\tsvc #1\n\tb \
     _start\n.data\nfds:\n\t.quad 0\nbuf:\n\t.quad 0\nstatus:\n\t.quad 0\n"
  in
  (* child exits with the byte it read (65); parent exits with child's
     status *)
  checki "pipe byte" 65 (exit_code (run_lfi code))

(* ---------------- limits: budget, deadlock, stray entries ---------------- *)

let killed_with why = function
  | Lfi_runtime.Runtime.Killed w, _, _, _ -> checks "kill reason" why w
  | Lfi_runtime.Runtime.Exited c, _, _, _ -> Alcotest.failf "exited %d" c

(* A spin is killed after exactly its budget: two whole quanta, then a
   last slice of the 50k left. *)
let test_budget_kills_spin () =
  let config =
    { Lfi_runtime.Runtime.default_config with insn_budget = 250_000 }
  in
  let rt = Lfi_runtime.Runtime.create ~config () in
  let p =
    Lfi_runtime.Runtime.load rt ~personality:Lfi_runtime.Proc.Lfi
      (build "_start:\n\tb _start\n")
  in
  killed_with "instruction budget exceeded" (Lfi_runtime.Runtime.run_one rt p);
  checki "retired exactly the budget" 250_000 p.Lfi_runtime.Proc.user_insns;
  checkb "postmortem" true
    (Option.is_some
       (Lfi_runtime.Runtime.postmortem_for rt p.Lfi_runtime.Proc.pid))

(* A read of its own empty pipe, whose write end it holds: nothing can
   ever wake it, so the run kills it and returns. *)
let test_deadlock_kills () =
  let rt = Lfi_runtime.Runtime.create () in
  let p =
    Lfi_runtime.Runtime.load rt ~personality:Lfi_runtime.Proc.Lfi
      (build
         "_start:\n\tadr x0, fds\n\tsvc #6\n\tadr x1, fds\n\tldr w0, \
          [x1]\n\tadr x1, buf\n\tmovz x2, #1\n\tsvc #3\n\tsvc #1\n\tb \
          _start\n.data\nfds:\n\t.quad 0\nbuf:\n\t.quad 0\n")
  in
  killed_with "deadlock" (Lfi_runtime.Runtime.run_one rt p);
  checkb "postmortem" true
    (Option.is_some
       (Lfi_runtime.Runtime.postmortem_for rt p.Lfi_runtime.Proc.pid))

(* Two processes, each reading its own empty pipe: both deadlock.  Each
   postmortem shows its own process's pc, where that process's read
   returns (the [back] label, at a different offset in each program),
   not the pc of the process the machine ran last. *)
let test_deadlock_postmortems_own_pc () =
  let rt = Lfi_runtime.Runtime.create () in
  let reader pad =
    let elf =
      build
        ("_start:\n" ^ pad ^ "\tadr x0, fds\n\tsvc #6\n\t\
          adr x1, fds\n\tldr w0, [x1]\n\tadr x1, buf\n\tmovz x2, #1\n\t\
          svc #3\nback:\n\tsvc #1\n.data\nfds:\n\t.quad 0\nbuf:\n\t.quad 0\n")
    in
    (elf, Lfi_runtime.Runtime.load rt ~personality:Lfi_runtime.Proc.Lfi elf)
  in
  let procs = [ reader ""; reader "\tnop\n\tnop\n" ] in
  ignore (Lfi_runtime.Runtime.run rt);
  List.iter
    (fun ((elf : Lfi_elf.Elf.t), (p : Lfi_runtime.Proc.t)) ->
      let pm = Option.get (Lfi_runtime.Runtime.postmortem_for rt p.pid) in
      checks "reason" "deadlock" pm.Lfi_telemetry.Postmortem.reason;
      Alcotest.(check int64) "pc where its own read returns"
        (Int64.add p.Lfi_runtime.Proc.base
           (Int64.of_int (List.assoc "back" elf.Lfi_elf.Elf.symbols)))
        pm.Lfi_telemetry.Postmortem.pc)
    procs

(* A runtime entry that is no call's address — between two entries, or
   past the last — is killed, not served as some call. *)
let test_stray_entry_killed () =
  let stray off =
    let config = { Lfi_runtime.Runtime.default_config with verify = false } in
    let rt = Lfi_runtime.Runtime.create ~config () in
    let p =
      Lfi_runtime.Runtime.load rt ~personality:Lfi_runtime.Proc.Lfi
        (build ~rewrite:false
           (Printf.sprintf
              "_start:\n\tmovz x30, #0x7f00, lsl #32\n\tmovk x30, #%d\n\t\
               blr x30\n\tmovz x0, #0\n\tsvc #1\n"
              off))
    in
    killed_with
      (Printf.sprintf "stray runtime entry at 0x7f00000000%02x" off)
      (Lfi_runtime.Runtime.run_one rt p)
  in
  stray 4;
  stray (8 * Lfi_runtime.Sysno.count)

(* The CLI runs a spin to the default budget and reports the kill. *)
let test_lfi_run_spin () =
  Out_channel.with_open_bin "cli_spin.s" (fun oc ->
      output_string oc "_start:\n\tb _start\n");
  let code =
    Sys.command
      (Printf.sprintf "%s --asm cli_spin.s 2> cli_spin.tmp"
         (Filename.quote (Golden.path "../bin/lfi_run.exe")))
  in
  checks "stderr" "cli_spin.s: killed: instruction budget exceeded\n"
    (Golden.read_file "cli_spin.tmp");
  checki "a killed program exits 3" 3 code

(* ---------------- scheduling ---------------- *)

(* A context switch puts the next process's own register file on the
   machine, a pointer store, and the scheduling scan's closures are
   built once per run: two sandboxes that [yield] to each other
   allocate about 39 minor words per switch (20 in the release
   profile), the scheduler's own bookkeeping, under this bound.
   Rebuilding those closures and an [Option.map] on every switch cost
   about 61 (42 in release); copying the file out on every switch, as
   the runtime once did, cost a 100-word [Bytes.copy] more still. *)
let switch_words_bound = 50.

let test_switch_allocates_little () =
  let elf =
    build
      "_start:\n\tmovz x19, #2000\nloop:\n\tsvc #9\n\tsub x19, x19, #1\n\t\
       cbnz x19, loop\n\tmovz x0, #0\n\tsvc #1\n\tb _start\n"
  in
  let rt = Lfi_runtime.Runtime.create () in
  for _ = 1 to 2 do
    ignore (Lfi_runtime.Runtime.load rt ~personality:Lfi_runtime.Proc.Lfi elf)
  done;
  let before = Gc.minor_words () in
  let log = Lfi_runtime.Runtime.run rt in
  let words = Gc.minor_words () -. before in
  checkb "both exited 0" true
    (List.map snd log = Lfi_runtime.Runtime.[ Exited 0; Exited 0 ]);
  let switches = rt.Lfi_runtime.Runtime.ctx_switches in
  checkb "one switch per yield" true (switches >= 4000);
  let per_switch = words /. float_of_int switches in
  checkb
    (Printf.sprintf "%.1f words per switch <= %.0f" per_switch
       switch_words_bound)
    true
    (per_switch <= switch_words_bound)

let test_preemption_interleaves () =
  let config = { Lfi_runtime.Runtime.default_config with quantum = 1000 } in
  let rt = Lfi_runtime.Runtime.create ~config () in
  let elf =
    build
      "_start:\n\tmovz x1, #0\nloop:\n\tadd x1, x1, #1\n\tmovz x2, \
       #1600\n\tcmp x1, x2\n\tb.lt loop\n\tsvc #10\n\tmov x0, x0\n\tsvc \
       #1\n\tb _start\n"
  in
  let a = Lfi_runtime.Runtime.load rt ~personality:Lfi_runtime.Proc.Lfi elf in
  let b = Lfi_runtime.Runtime.load rt ~personality:Lfi_runtime.Proc.Lfi elf in
  let log = Lfi_runtime.Runtime.run rt in
  checkb "both exited" true
    (List.mem_assoc a.Lfi_runtime.Proc.pid log
    && List.mem_assoc b.Lfi_runtime.Proc.pid log);
  checkb "preempted" true (rt.Lfi_runtime.Runtime.preemptions > 0)

let test_sandbox_isolation () =
  (* two sandboxes write different values at the same offset; each must
     read back its own *)
  let mk v =
    build
      (Printf.sprintf
         "_start:\n\tadr x1, cell\n\tmovz x2, #%d\n\tstr x2, [x1]\n\tsvc \
          #9\n\tldr x0, [x1]\n\tsvc #1\n\tb _start\n.data\ncell:\n\t.quad 0\n"
         v)
  in
  let rt = Lfi_runtime.Runtime.create () in
  let a = Lfi_runtime.Runtime.load rt ~personality:Lfi_runtime.Proc.Lfi (mk 111) in
  let b = Lfi_runtime.Runtime.load rt ~personality:Lfi_runtime.Proc.Lfi (mk 222) in
  let log = Lfi_runtime.Runtime.run rt in
  checkb "a" true
    (List.assoc_opt a.Lfi_runtime.Proc.pid log = Some (Lfi_runtime.Runtime.Exited 111));
  checkb "b" true
    (List.assoc_opt b.Lfi_runtime.Proc.pid log = Some (Lfi_runtime.Runtime.Exited 222))

let test_slot_reuse () =
  (* a reaped child's slot must be recycled *)
  let code =
    "_start:\n\tsvc #7\n\tcbnz x0, parent\n\tmovz x0, #0\n\tsvc #1\n\
     parent:\n\tmovz x0, #0\n\tsvc #8\n\tsvc #7\n\tcbnz x0, parent2\n\tmovz \
     x0, #0\n\tsvc #1\nparent2:\n\tmovz x0, #0\n\tsvc #8\n\tmovz x0, #0\n\t\
     svc #1\n\tb _start\n"
  in
  let rt = Lfi_runtime.Runtime.create () in
  let p = Lfi_runtime.Runtime.load rt ~personality:Lfi_runtime.Proc.Lfi (build code) in
  ignore (Lfi_runtime.Runtime.run rt);
  ignore p;
  (* two forks, but the second reuses the first child's slot *)
  checki "slots used" 3 rt.Lfi_runtime.Runtime.next_slot

(* The slot table stops below the host region: slot 32512's base is
   [Machine.host_region_start], where every pc reads as a runtime
   entry.  The last slot loads; the next load and a fork fail closed. *)
let test_slot_table_full () =
  let rt = Lfi_runtime.Runtime.create () in
  rt.Lfi_runtime.Runtime.next_slot <- 32511;
  let elf = build "_start:\n\tsvc #7\n\tsvc #1\n\tb _start\n" in
  let load () =
    Lfi_runtime.Runtime.load rt ~personality:Lfi_runtime.Proc.Lfi elf
  in
  let p = load () in
  checkb "last slot ends at the host region" true
    (Int64.add p.Lfi_runtime.Proc.base
       (Int64.of_int Lfi_core.Layout.sandbox_size)
    = Lfi_emulator.Machine.host_region_start);
  (match load () with
  | exception Lfi_runtime.Runtime.Load_error _ -> ()
  | _ -> Alcotest.fail "loaded a sandbox into the host region");
  match Lfi_runtime.Runtime.run_one rt p with
  | Lfi_runtime.Runtime.Exited c, _, _, _ -> checki "fork: EAGAIN" (-11) c
  | Lfi_runtime.Runtime.Killed why, _, _, _ -> Alcotest.failf "killed: %s" why

(* ---------------- fd table allocation ---------------- *)

let test_fd_alloc_reuse () =
  (* POSIX semantics: alloc_fd hands out the lowest free descriptor
     >= 3, so closed descriptors are reused instead of leaking fd
     numbers across a long-lived (pool-style) process *)
  let rt = Lfi_runtime.Runtime.create () in
  let p =
    Lfi_runtime.Runtime.load rt ~personality:Lfi_runtime.Proc.Lfi
      (build "_start:\n\tsvc #1\n\tb _start\n")
  in
  let module Proc = Lfi_runtime.Proc in
  checki "first" 3 (Proc.alloc_fd p Lfi_runtime.Vfs.Console_out);
  checki "second" 4 (Proc.alloc_fd p Lfi_runtime.Vfs.Console_out);
  checki "third" 5 (Proc.alloc_fd p Lfi_runtime.Vfs.Console_out);
  checki "close mid" 0 (Proc.close_fd p 4);
  checki "hole refilled" 4 (Proc.alloc_fd p Lfi_runtime.Vfs.Console_out);
  checki "then past high-water" 6 (Proc.alloc_fd p Lfi_runtime.Vfs.Console_out);
  checki "close lowest" 0 (Proc.close_fd p 3);
  checki "close highest" 0 (Proc.close_fd p 6);
  checki "lowest wins" 3 (Proc.alloc_fd p Lfi_runtime.Vfs.Console_out);
  checki "close unknown is ebadf" Lfi_runtime.Vfs.ebadf (Proc.close_fd p 17);
  (* next_fd stays a high-water mark for dup_fds *)
  checki "high-water kept" 7 p.Proc.next_fd

(* ---------------- the shared run queue ---------------- *)

module Runq = Lfi_sched.Runq

let test_runq_fifo () =
  let q = Runq.create ~capacity:2 () in
  List.iter (Runq.push q) [ 1; 2; 3; 4; 5 ];
  (* pushes past capacity grow the ring without reordering *)
  checkb "order kept across growth" true (Runq.to_list q = [ 1; 2; 3; 4; 5 ]);
  checkb "pop head" true (Runq.pop q = Some 1);
  Runq.push q 6;
  checkb "fifo" true (Runq.to_list q = [ 2; 3; 4; 5; 6 ]);
  Runq.remove q 4;
  checkb "remove keeps order" true (Runq.to_list q = [ 2; 3; 5; 6 ])

let test_runq_promote () =
  let q = Runq.create () in
  List.iter (Runq.push q) [ 1; 2; 3 ];
  (* the direct-yield path: the handoff target runs next *)
  Runq.promote q 3;
  checkb "queued target moved to head" true (Runq.to_list q = [ 3; 1; 2 ]);
  Runq.promote q 9;
  checkb "unqueued target enqueued at head" true
    (Runq.to_list q = [ 9; 3; 1; 2 ])

let test_runq_select_rotation () =
  let q = Runq.create () in
  List.iter (Runq.push q) [ 1; 2; 3; 4 ];
  (* blocked ids are skipped but keep their relative order; the chosen
     id requeues at the tail behind the unscanned rest *)
  let sel = Runq.select q ~keep:(fun _ -> true) ~runnable:(fun x -> x = 3) in
  checkb "picks first runnable" true (sel = Some 3);
  checkb "rotation" true (Runq.to_list q = [ 4; 1; 2; 3 ]);
  (* dead ids fall out during the scan *)
  let sel = Runq.select q ~keep:(fun x -> x <> 4) ~runnable:(fun _ -> true) in
  checkb "drops dead, picks next" true (sel = Some 1);
  checkb "dead gone" true (Runq.to_list q = [ 2; 3; 1 ]);
  (* nothing runnable: compacts to kept ids, original order, returns
     nothing *)
  let sel = Runq.select q ~keep:(fun x -> x <> 2) ~runnable:(fun _ -> false) in
  checkb "none runnable" true (sel = None);
  checkb "compacted in order" true (Runq.to_list q = [ 3; 1 ])

(* The scan [Runq.select] replaced, kept as the reference: copy the
   queue out, drop ids not kept, and on the first runnable id rebuild
   it as the unscanned rest, the skipped ids in order, the chosen id;
   with none runnable, compact to the kept ids. *)
let model_select items ~keep ~runnable =
  let rec go skipped = function
    | [] -> (None, List.filter keep items)
    | x :: rest ->
        if not (keep x) then go skipped rest
        else if runnable x then (Some x, rest @ List.rev skipped @ [ x ])
        else go (x :: skipped) rest
  in
  go [] items

(* random queues (ring head moved off slot 0, so rotations wrap) and
   random keep/runnable masks over ids 0..15, several selects in turn *)
let prop_runq_select_model =
  let mask = QCheck.Gen.(map2 ( lor ) (int_bound 0xFFFF) (int_bound 0xFFFF)) in
  QCheck.Test.make ~name:"select matches the copy-and-rotate model"
    ~count:500
    (QCheck.make
       QCheck.Gen.(
         quad (int_range 1 8) (int_range 0 8)
           (list_size (int_range 0 12) (int_bound 15))
           (list_size (int_range 1 6) (pair mask mask))))
    (fun (cap, shift, ids, steps) ->
      let q = Runq.create ~capacity:cap () in
      for _ = 1 to shift do
        Runq.push q 0;
        ignore (Runq.pop q)
      done;
      List.iter (Runq.push q) ids;
      let rec go model = function
        | [] -> true
        | (km, rm) :: tl ->
            let keep x = (km lsr x) land 1 = 1
            and runnable x = (rm lsr x) land 1 = 1 in
            let want, model = model_select model ~keep ~runnable in
            let got = Runq.select q ~keep ~runnable in
            got = want && Runq.to_list q = model && go model tl
      in
      go ids steps)

let mk name f = Alcotest.test_case name `Quick f

let () =
  Alcotest.run "runtime"
    [
      ( "calls",
        [
          mk "exit" test_exit;
          mk "write stdout" test_write_stdout;
          mk "getpid" test_getpid;
          mk "box_ret outside a library is ENOSYS" test_box_ret_outside_library;
          mk "unused table entry traps" test_unknown_syscall;
        ] );
      ( "loading",
        [
          mk "rejects unverified" test_load_rejects_unverified;
          mk "native skips verification" test_native_skips_verification;
        ] );
      ( "vfs",
        [
          mk "file read" test_file_read;
          mk "access control" test_access_control;
          mk "file write" test_file_write_and_contents;
        ] );
      ( "memory",
        [
          mk "mmap" test_mmap;
          mk "brk" test_brk;
          mk "brk into the top guard is ENOMEM" test_brk_guard;
          mk "load allocates little" test_load_allocates_little;
          mk "mmap of 256 MiB costs little" test_mmap_costs_little;
        ] );
      ("fds", [ mk "alloc reuses closed" test_fd_alloc_reuse ]);
      ("faults", [ mk "unmapped heap" test_guard_page_fault ]);
      ( "processes",
        [
          mk "fork pids" test_fork_pids;
          mk "fork isolation" test_fork_isolation;
          mk "fork returns 0 in the child" test_fork_child_x0;
          mk "fork keeps unwritten pages zero-backed"
            test_fork_zero_backed_pages;
          mk "library-call entry in place" test_entry_in_place;
          mk "slot table full" test_slot_table_full;
          mk "wait echild" test_wait_echild;
          mk "pipe blocking" test_pipe_blocking;
        ] );
      ( "limits",
        [
          mk "budget kills a spin at its count" test_budget_kills_spin;
          mk "deadlock kills the blocked" test_deadlock_kills;
          mk "each deadlock postmortem shows its own pc"
            test_deadlock_postmortems_own_pc;
          mk "stray runtime entries are killed" test_stray_entry_killed;
          mk "lfi_run kills a spin" test_lfi_run_spin;
        ] );
      ( "scheduling",
        [
          mk "preemption" test_preemption_interleaves;
          mk "sandbox isolation" test_sandbox_isolation;
          mk "slot reuse" test_slot_reuse;
          mk "a context switch allocates little" test_switch_allocates_little;
        ] );
      ( "runq",
        [
          mk "fifo + growth" test_runq_fifo;
          mk "promote" test_runq_promote;
          mk "select rotation" test_runq_select_rotation;
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 0x5e1 |])
            prop_runq_select_model;
        ] );
    ]
