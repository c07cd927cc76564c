(* Tests for the emulator: memory protection, TLB, and instruction
   semantics (via small assembled programs run on a bare machine). *)

open Lfi_arm64
open Lfi_emulator
module Gen_minic = Lfi_fuzz.Gen_minic

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let check64 = Alcotest.(check int64)

(* ---------------- memory ---------------- *)

let test_memory_map_rw () =
  let m = Memory.create () in
  Memory.map m ~addr:0x10000L ~len:Memory.page_size ~perm:Memory.perm_rw;
  Memory.write m 0x10010L 8 0x1122334455667788L;
  check64 "u64" 0x1122334455667788L (Memory.read m 0x10010L 8);
  checki "u8" 0x88 (Int64.to_int (Memory.read m 0x10010L 1));
  checki "u16" 0x7788 (Int64.to_int (Memory.read m 0x10010L 2));
  check64 "u32" 0x55667788L (Memory.read m 0x10010L 4)

let test_memory_faults () =
  let m = Memory.create () in
  Memory.map m ~addr:0x10000L ~len:Memory.page_size ~perm:Memory.perm_r;
  (match Memory.read m 0x10000L 8 with _ -> ());
  (match Memory.write m 0x10000L 8 0L with
  | exception Memory.Fault f -> checkb "write" true (f.Memory.access = Memory.Write)
  | _ -> Alcotest.fail "write to read-only page succeeded");
  (match Memory.read m 0x90000L 8 with
  | exception Memory.Fault f -> checkb "unmapped" true (f.Memory.access = Memory.Read)
  | _ -> Alcotest.fail "read of unmapped page succeeded");
  (match Memory.fetch m 0x10000L with
  | exception Memory.Fault f -> checkb "nx" true (f.Memory.access = Memory.Fetch)
  | _ -> Alcotest.fail "fetch from non-executable page succeeded")

let test_memory_cross_page () =
  let m = Memory.create () in
  Memory.map m ~addr:0x0L ~len:(2 * Memory.page_size) ~perm:Memory.perm_rw;
  let a = Int64.of_int (Memory.page_size - 3) in
  Memory.write m a 8 0x0102030405060708L;
  check64 "crossing" 0x0102030405060708L (Memory.read m a 8)

let test_memory_protect_unmap () =
  let m = Memory.create () in
  Memory.map m ~addr:0x4000L ~len:Memory.page_size ~perm:Memory.perm_rw;
  Memory.protect m ~addr:0x4000L ~len:Memory.page_size ~perm:Memory.perm_rx;
  (match Memory.write m 0x4000L 1 1L with
  | exception Memory.Fault _ -> ()
  | _ -> Alcotest.fail "write after protect");
  Memory.unmap m ~addr:0x4000L ~len:Memory.page_size;
  checkb "unmapped" false (Memory.is_mapped m 0x4000L)

(* A mapped page shares [Memory.zero_page] until its first store, and
   nothing may write into that shared page: the first in-page store
   through [Sem.bwrite], a page-crossing store, and a store after a
   page went read-only and back must each give their page bytes of
   its own. *)
let zero_page_is_zero () =
  checkb "zero page all zeros" true
    (Bytes.equal Memory.zero_page (Bytes.make Memory.page_size '\000'))

let test_demand_zero_pages () =
  let mem = Memory.create () in
  let m = Machine.create mem in
  let ps = Memory.page_size in
  let base = 0x40000L in
  let at p off = Int64.add base (Int64.of_int ((p * ps) + off)) in
  let page p = Memory.page_at mem (Memory.page_index (at p 0)) in
  let shared p = Memory.page_data (page p) == Memory.zero_page in
  Memory.map mem ~addr:base ~len:(4 * ps) ~perm:Memory.perm_rw;
  checkb "mapped pages share the zero page" true
    (List.for_all shared [ 0; 1; 2; 3 ]);
  check64 "reads zero" 0L (Sem.bread m 0 (at 0 8) 8);
  checkb "a read leaves it shared" true (shared 0);
  Sem.bwrite m 0 (at 0 8) 8 0x1122334455667788L;
  checkb "first store owns its page" false (shared 0);
  check64 "store landed" 0x1122334455667788L (Sem.bread m 0 (at 0 8) 8);
  Sem.bwrite m 0 (at 0 16) 8 (-1L);
  zero_page_is_zero ();
  (* a store across the end of page 1 into page 2 *)
  Sem.bwrite m 0 (at 1 (ps - 4)) 8 0x0102030405060708L;
  checkb "crossing store owns both pages" true
    (not (shared 1) && not (shared 2));
  check64 "crossing store landed" 0x0102030405060708L
    (Sem.bread m 0 (at 1 (ps - 4)) 8);
  zero_page_is_zero ();
  (* page 3, read while read-only, then made writable again *)
  Memory.protect mem ~addr:(at 3 0) ~len:ps ~perm:Memory.perm_r;
  check64 "read-only page reads zero" 0L (Sem.bread m 0 (at 3 0) 8);
  (match Sem.bwrite m 0 (at 3 0) 8 1L with
  | exception Memory.Fault f ->
      Alcotest.(check string) "reason" "no write permission" f.Memory.reason
  | () -> Alcotest.fail "store to a read-only zero page");
  checkb "a refused store allocates nothing" true (shared 3);
  Memory.protect mem ~addr:(at 3 0) ~len:ps ~perm:Memory.perm_rw;
  Sem.bwrite m 0 (at 3 24) 4 0xABCDL;
  checkb "store after re-protect owns its page" false (shared 3);
  check64 "re-protected store landed" 0xABCDL (Sem.bread m 0 (at 3 24) 4);
  zero_page_is_zero ()

(* The translation cache counts a first store to a zero-backed page
   exactly as the eager zero-fill did: a hit when its line held the
   page (cached without write permission by an earlier read), a miss
   otherwise.  The pair below is what the eager design counted on the
   same sequence of reads, first stores, later stores, a page-crossing
   store, a re-protect and a line collision, so
   [translation_cache_hit_rate] cannot move. *)
let test_demand_zero_tc_counts () =
  let mem = Memory.create () in
  let m = Machine.create mem in
  let ps = Memory.page_size in
  let base = 0x40000L in
  Memory.map mem ~addr:base ~len:(4 * ps) ~perm:Memory.perm_rw;
  (* the page [tc_size] pages up shares page 0's line *)
  let far = Int64.add base (Int64.of_int (Memory.tc_size * ps)) in
  Memory.map mem ~addr:far ~len:ps ~perm:Memory.perm_rw;
  let at p off = Int64.add base (Int64.of_int ((p * ps) + off)) in
  let rd a = ignore (Sem.bread m 0 a 8) and wr a v = Sem.bwrite m 0 a 8 v in
  let h0 = mem.Memory.tc_hits and m0 = mem.Memory.tc_misses in
  rd (at 0 0); rd (at 0 8); wr (at 0 16) 1L; wr (at 0 24) 2L; rd (at 0 16);
  wr (at 1 0) 3L; wr (at 1 8) 4L;
  wr (at 2 (ps - 4)) 5L;
  rd (at 3 0);
  Memory.protect mem ~addr:(at 1 0) ~len:ps ~perm:Memory.perm_r;
  Memory.protect mem ~addr:(at 1 0) ~len:ps ~perm:Memory.perm_rw;
  wr (at 1 16) 6L; rd (at 0 0);
  wr far 7L; rd (at 0 0); rd far; wr (at 0 32) 8L;
  checki "hits" 12 (mem.Memory.tc_hits - h0);
  checki "misses" 10 (mem.Memory.tc_misses - m0)

(* Bit 63 belongs to the page index: an address with it set is an
   unmapped page, not an alias of the page 2^63 below it. *)
let test_memory_bit63 () =
  let m = Memory.create () in
  Memory.map m ~addr:0x20000L ~len:Memory.page_size ~perm:Memory.perm_rw;
  Memory.write m 0x20008L 8 0x1122334455667788L;
  let high a = Int64.logor a Int64.min_int in
  let unmapped what access a f =
    match f () with
    | exception Memory.Fault flt ->
        checkb (what ^ " access") true (flt.Memory.access = access);
        check64 (what ^ " address") a flt.Memory.addr;
        Alcotest.(check string) (what ^ " reason") "unmapped" flt.Memory.reason
    | _ -> Alcotest.failf "%s at 0x%Lx did not fault" what a
  in
  unmapped "read" Memory.Read (high 0x20008L) (fun () ->
      ignore (Memory.read m (high 0x20008L) 8));
  unmapped "write" Memory.Write (high 0x20010L) (fun () ->
      Memory.write m (high 0x20010L) 8 7L);
  check64 "nothing written below 2^63" 0L (Memory.read m 0x20010L 8);
  Memory.protect m ~addr:0x20000L ~len:Memory.page_size ~perm:Memory.perm_rx;
  unmapped "fetch" Memory.Fetch (high 0x20000L) (fun () ->
      ignore (Memory.fetch m (high 0x20000L)))

let test_tlb () =
  let t = Tlb.create ~entries:4 in
  let page a = a lsr Memory.page_bits in
  checkb "first miss" false (Tlb.access t (page 0x10000));
  checkb "then hit" true (Tlb.access t (page 0x10008));
  (* 5 distinct pages in a 4-entry direct-mapped TLB: conflict *)
  for k = 0 to 4 do
    ignore (Tlb.access t (page (k * Memory.page_size * 4)))
  done;
  checkb "miss rate > 0" true (Tlb.miss_rate t > 0.0)

(* ---------------- semantics via small programs ---------------- *)

(* A machine with [body] assembled at 0x10000 (then [svc #1]), pc
   there, 64 KiB of data at 0x40000 and sp at its top. *)
let asm_machine (body : string) : Machine.t =
  let img = Assemble.assemble_string ("_start:\n" ^ body ^ "\tsvc #1\n\tb _start\n") in
  let mem = Memory.create () in
  let m = Machine.create mem in
  let base = 0x10000 in
  let len = (Bytes.length img.Assemble.text + Memory.page_size) / Memory.page_size * Memory.page_size in
  Memory.map mem ~addr:(Int64.of_int base) ~len ~perm:Memory.perm_rx |> ignore;
  (* write text via a temporary RW window *)
  Memory.protect mem ~addr:(Int64.of_int base) ~len ~perm:Memory.perm_rw;
  Memory.write_bytes mem (Int64.of_int base) img.Assemble.text;
  Memory.protect mem ~addr:(Int64.of_int base) ~len ~perm:Memory.perm_rx;
  (* data + stack *)
  Memory.map mem ~addr:0x40000L ~len:(4 * Memory.page_size) ~perm:Memory.perm_rw;
  Memory.write_bytes mem (Int64.of_int img.Assemble.data_origin |> fun v -> (Memory.map mem ~addr:(Int64.logand v (Int64.lognot (Int64.of_int (Memory.page_size - 1)))) ~len:(2*Memory.page_size) ~perm:Memory.perm_rw; v)) img.Assemble.data;
  Machine.set_pc m.Machine.regs (Int64.of_int base);
  Machine.set_sp m.Machine.regs 0x48000L;
  m

(* Assemble [body] at origin, run until svc #1, return x0. *)
let run_asm ?(steps = 100000) (body : string) : int64 =
  let m = asm_machine body in
  match Exec.run m ~quantum:steps with
  | Exec.Trap (Exec.Svc_trap 1) -> Machine.x m.Machine.regs 0
  | e -> Alcotest.failf "unexpected event: %s"
           (match e with
            | Exec.Quantum_expired -> "quantum expired"
            | Exec.Runtime_entry _ -> "runtime entry"
            | Exec.Trap t -> Format.asprintf "%a" Exec.pp_trap t)

let sem name body expect =
  Alcotest.test_case name `Quick (fun () ->
      check64 name expect (run_asm body))

let semantics_cases =
  [
    sem "add imm" "\tmovz x1, #40\n\tadd x0, x1, #2\n" 42L;
    sem "sub flags borrow"
      "\tmovz x1, #5\n\tmovz x2, #7\n\tsubs x0, x1, x2\n\tcset x0, cc\n" 1L;
    sem "adds carry"
      "\tmovn x1, #0\n\tadds x0, x1, #1\n\tcset x0, cs\n" 1L;
    sem "overflow v flag"
      "\tmovz x1, #0x7FFF, lsl #48\n\tmovk x1, #0xFFFF, lsl #32\n\tmovk x1, #0xFFFF, lsl #16\n\tmovk x1, #0xFFFF\n\tadds x0, x1, #1\n\tcset x0, vs\n" 1L;
    sem "32-bit wrap" "\tmovn w1, #0\n\tadd w0, w1, #5\n" 4L;
    sem "mul" "\tmovz x1, #7\n\tmovz x2, #6\n\tmul x0, x1, x2\n" 42L;
    sem "madd" "\tmovz x1, #7\n\tmovz x2, #6\n\tmovz x3, #100\n\tmadd x0, x1, x2, x3\n" 142L;
    sem "sdiv" "\tmovn x1, #99\n\tmovz x2, #10\n\tsdiv x0, x1, x2\n" (-10L);
    sem "sdiv by zero" "\tmovz x1, #5\n\tmovz x2, #0\n\tsdiv x0, x1, x2\n" 0L;
    sem "udiv" "\tmovn x1, #0\n\tmovz x2, #2\n\tudiv x0, x1, x2\n" 0x7FFFFFFFFFFFFFFFL;
    sem "msub rem" "\tmovz x1, #17\n\tmovz x2, #5\n\tsdiv x3, x1, x2\n\tmsub x0, x3, x2, x1\n" 2L;
    sem "smulh" "\tmovn x1, #0\n\tmovn x2, #0\n\tsmulh x0, x1, x2\n" 0L;
    sem "umulh" "\tmovn x1, #0\n\tmovz x2, #2\n\tumulh x0, x1, x2\n" 1L;
    sem "smull" "\tmovn w1, #0\n\tmovz w2, #3\n\tsmull x0, w1, w2\n" (-3L);
    sem "umull" "\tmovn w1, #0\n\tmovz w2, #2\n\tumull x0, w1, w2\n" 8589934590L;
    sem "smaddl" "\tmovz w1, #7\n\tmovn w2, #1\n\tmovz x3, #100\n\tsmaddl x0, w1, w2, x3\n" 86L;
    sem "ccmp taken"
      "\tmovz x1, #3\n\tcmp x1, #3\n\tmovz x2, #5\n\tccmp x2, #5, #0, eq\n\tcset x0, eq\n" 1L;
    sem "ccmp fallback nzcv"
      "\tmovz x1, #3\n\tcmp x1, #4\n\tmovz x2, #5\n\tccmp x2, #5, #4, eq\n\tcset x0, eq\n" 1L;
    sem "ccmp reg"
      "\tmovz x1, #1\n\tcmp x1, #1\n\tmovz x2, #9\n\tmovz x3, #8\n\tccmp x2, x3, #0, eq\n\tcset x0, gt\n" 1L;
    sem "lsl reg" "\tmovz x1, #1\n\tmovz x2, #63\n\tlsl x0, x1, x2\n" Int64.min_int;
    sem "asr imm" "\tmovn x1, #0\n\tasr x0, x1, #17\n" (-1L);
    sem "ror imm" "\tmovz x1, #1\n\tror x0, x1, #1\n" Int64.min_int;
    sem "ubfx" "\tmovz x1, #0xAB, lsl #16\n\tubfx x0, x1, #16, #8\n" 0xABL;
    sem "sbfx sign" "\tmovz x1, #0x80\n\tsbfx x0, x1, #0, #8\n" (-128L);
    sem "bfi"
      "\tmovz x0, #0xFFFF\n\tmovz x1, #0\n\tbfi x0, x1, #4, #8\n" 0xF00FL;
    sem "clz" "\tmovz x1, #1, lsl #16\n\tclz x0, x1\n" 47L;
    sem "clz zero" "\tmovz x1, #0\n\tclz x0, x1\n" 64L;
    sem "rbit" "\tmovz x1, #1\n\trbit x0, x1\n" Int64.min_int;
    sem "rev" "\tmovz x1, #0x1234\n\trev x0, x1\n" 0x3412000000000000L;
    sem "rev16" "\tmovz w1, #0x1234\n\trev16 w0, w1\n" 0x3412L;
    sem "csel taken" "\tmovz x3, #0\n\tcmp x3, #0\n\tmovz x1, #11\n\tmovz x2, #22\n\tcsel x0, x1, x2, eq\n" 11L;
    sem "csinc" "\tmovz x3, #0\n\tcmp x3, #1\n\tmovz x1, #11\n\tmovz x2, #22\n\tcsinc x0, x1, x2, eq\n" 23L;
    sem "csneg" "\tmovz x3, #0\n\tcmp x3, #1\n\tmovz x1, #11\n\tmovz x2, #22\n\tcsneg x0, x1, x2, eq\n" (-22L);
    sem "extr" "\tmovz x1, #1\n\tmovz x2, #0\n\textr x0, x1, x2, #60\n" 16L;
    sem "eor" "\tmovz x1, #0xFF\n\tmovz x2, #0x0F\n\teor x0, x1, x2\n" 0xF0L;
    sem "bic" "\tmovz x1, #0xFF\n\tmovz x2, #0x0F\n\tbic x0, x1, x2\n" 0xF0L;
    sem "movk" "\tmovz x0, #1\n\tmovk x0, #2, lsl #16\n" 0x20001L;
    sem "movn" "\tmovn x0, #0\n" (-1L);
    (* memory *)
    sem "store load"
      "\tmovz x1, #4, lsl #16\n\tmovz x2, #77\n\tstr x2, [x1, #16]\n\tldr x0, [x1, #16]\n" 77L;
    sem "pre index"
      "\tmovz x1, #4, lsl #16\n\tmovz x2, #5\n\tstr x2, [x1, #8]!\n\tsub x0, x1, #8\n\tldr x0, [x0, #8]\n" 5L;
    sem "post index"
      "\tmovz x1, #4, lsl #16\n\tmovz x2, #9\n\tstr x2, [x1], #32\n\tmovz x3, #4, lsl #16\n\tldr x0, [x3]\n" 9L;
    (* ldr pre-index: base updated to the effective address, and the
       load sees the data at it (11 + 0x40018 = 262179) *)
    sem "ldr pre index writeback"
      "\tmovz x1, #4, lsl #16\n\tmovz x2, #11\n\tstr x2, [x1, #24]\n\tldr x0, [x1, #24]!\n\tadd x0, x0, x1\n"
      262179L;
    (* ldr post-index: load from the old base, then base += 16
       (7 + 0x40010 = 262167) *)
    sem "ldr post index writeback"
      "\tmovz x1, #4, lsl #16\n\tmovz x2, #7\n\tstr x2, [x1]\n\tldr x0, [x1], #16\n\tadd x0, x0, x1\n"
      262167L;
    (* ldp post-index: both loads from the old base, then writeback
       (1 + 2 + 0x40010 = 262163) *)
    sem "ldp post index writeback"
      "\tmovz x1, #4, lsl #16\n\tmovz x2, #1\n\tmovz x3, #2\n\tstp x2, x3, [x1], #16\n\tsub x1, x1, #16\n\tldp x4, x5, [x1], #16\n\tadd x0, x4, x5\n\tadd x0, x0, x1\n"
      262163L;
    sem "reg offset lsl"
      "\tmovz x1, #4, lsl #16\n\tmovz x2, #3\n\tmovz x3, #55\n\tstr x3, [x1, x2, lsl #3]\n\tldr x0, [x1, x2, lsl #3]\n" 55L;
    sem "ldrsb" "\tmovz x1, #4, lsl #16\n\tmovn w2, #0\n\tstrb w2, [x1]\n\tldrsb x0, [x1]\n" (-1L);
    sem "ldrsw" "\tmovz x1, #4, lsl #16\n\tmovn w2, #0\n\tstr w2, [x1]\n\tldrsw x0, [x1]\n" (-1L);
    sem "ldrh zero extend" "\tmovz x1, #4, lsl #16\n\tmovn w2, #0\n\tstrh w2, [x1]\n\tldrh w0, [x1]\n" 0xFFFFL;
    sem "ldp stp"
      "\tmovz x1, #4, lsl #16\n\tmovz x2, #1\n\tmovz x3, #2\n\tstp x2, x3, [x1]\n\tldp x4, x5, [x1]\n\tadd x0, x4, x5\n" 3L;
    sem "uxtw addressing"
      (* garbage in the top 32 bits of the index is discarded *)
      "\tmovz x1, #4, lsl #16\n\tmovz x2, #21\n\tstr x2, [x1]\n\tmovn x3, \
       #0\n\tmovk x3, #4, lsl #16\n\tmovk x3, #0\n\tmovz x4, #0\n\tldr x0, \
       [x4, w3, uxtw]\n"
      21L;
    (* exclusives *)
    sem "ldxr stxr success"
      "\tmovz x1, #4, lsl #16\n\tmovz x2, #9\n\tstr x2, [x1]\n\tldxr x3, [x1]\n\tadd x3, x3, #1\n\tstxr w4, x3, [x1]\n\tldr x5, [x1]\n\tadd x0, x5, x4\n"
      10L;
    sem "stxr without monitor fails"
      "\tmovz x1, #4, lsl #16\n\tmovz x3, #9\n\tstxr w4, x3, [x1]\n\tmov x0, x4\n" 1L;
    (* branches *)
    sem "cbnz loop"
      "\tmovz x1, #5\n\tmovz x0, #0\nloop:\n\tadd x0, x0, #2\n\tsub x1, x1, #1\n\tcbnz x1, loop\n" 10L;
    sem "tbz taken" "\tmovz x1, #4\n\tmovz x0, #1\n\ttbz x1, #2, skip\n\tmovz x0, #2\nskip:\n" 2L;
    sem "bl ret"
      "\tbl fn\n\tb done\nfn:\n\tmovz x0, #77\n\tret\ndone:\n" 77L;
    (* floating point *)
    sem "fp add"
      "\tmovz x1, #0x4000, lsl #48\n\tfmov d1, x1\n\tfadd d0, d1, d1\n\tfcvtzs x0, d0\n" 4L;
    sem "fdiv fcvt"
      "\tmovz x1, #7\n\tscvtf d1, x1\n\tmovz x2, #2\n\tscvtf d2, x2\n\tfdiv d0, d1, d2\n\tfcvtzs x0, d0\n" 3L;
    sem "fsqrt" "\tmovz x1, #81\n\tscvtf d1, x1\n\tfsqrt d0, d1\n\tfcvtzs x0, d0\n" 9L;
    sem "fcmp lt" "\tmovz x1, #1\n\tscvtf d1, x1\n\tmovz x2, #2\n\tscvtf d2, x2\n\tfcmp d1, d2\n\tcset x0, mi\n" 1L;
    sem "fcvtzs nan" "\tmovz x1, #0\n\tfmov d1, x1\n\tfdiv d0, d1, d1\n\tfcvtzs x0, d0\n" 0L;
    sem "fneg fabs" "\tmovz x1, #5\n\tscvtf d1, x1\n\tfneg d2, d1\n\tfabs d0, d2\n\tfcvtzs x0, d0\n" 5L;
    sem "fmadd" "\tmovz x1, #3\n\tscvtf d1, x1\n\tmovz x2, #4\n\tscvtf d2, x2\n\tmovz x3, #10\n\tscvtf d3, x3\n\tfmadd d0, d1, d2, d3\n\tfcvtzs x0, d0\n" 22L;
    sem "ucvtf" "\tmovn x1, #0\n\tucvtf d0, x1\n\tmovz x2, #0x43F0, lsl #48\n\tfmov d1, x2\n\tfcmp d0, d1\n\tcset x0, eq\n" 1L;
  ]

(* ---------------- differential golden reference ---------------- *)

(* A fixed population of random MiniC programs (deterministic seed) is
   run through the full pipeline and the architectural results — exit
   code (derived from the final register state), instruction count and
   simulated cycles — are compared against a golden file captured from
   the pre-refactor step path.  Any divergence means the rewritten
   fetch/decode/execute path changed architectural semantics.

   Regenerate with `make goldens`, which runs this executable with
   LFI_GOLDEN_OUT=$PWD/test/emulator_golden.txt, and review
   `git diff test/`. *)

let golden_count = 100

let golden_systems =
  [
    ("native", Lfi_experiments.Run.Native);
    ("lfi-o2", Lfi_experiments.Run.Lfi Lfi_core.Config.o2);
  ]

(* Deterministic population: a fixed-seed stream of generated programs,
   keeping only those the reference interpreter can finish (the
   generator can produce unbounded loops; test_pipeline skips them the
   same way). *)
let golden_programs () =
  let rand = Random.State.make [| 0xC0FFEE; 2024 |] in
  let rec collect acc n =
    if n = 0 then List.rev acc
    else
      let p = QCheck.Gen.generate1 ~rand Gen_minic.gen_program in
      match Lfi_minic.Interp.run ~fuel:2_000_000 p with
      | exception Lfi_minic.Interp.Out_of_fuel -> collect acc n
      | exception Lfi_minic.Interp.Unsupported _ -> collect acc n
      | _ -> collect (p :: acc) (n - 1)
  in
  collect [] golden_count

let golden_line idx prog =
  let cells =
    List.concat_map
      (fun (_, sys) ->
        let r = Lfi_experiments.Run.run sys prog in
        [
          string_of_int r.Lfi_experiments.Run.exit_code;
          Printf.sprintf "%.6f" r.Lfi_experiments.Run.cycles;
          string_of_int r.Lfi_experiments.Run.insns;
        ])
      golden_systems
  in
  String.concat " " (string_of_int idx :: cells)

let write_golden path =
  let oc = open_out path in
  List.iteri
    (fun i p ->
      output_string oc (golden_line i p ^ "\n");
      if i mod 10 = 0 then Printf.eprintf "golden %d/%d\n%!" i golden_count)
    (golden_programs ());
  close_out oc;
  Printf.printf "wrote %d golden lines to %s\n%!" golden_count path


(* exit codes and instruction counts must match exactly; cycles within
   0.1% (the acceptance tolerance — in practice they are identical). *)
let check_golden_cells idx (expected : string list) (got : string list) =
  let rec fields k = function
    | [], [] -> ()
    | e :: etl, g :: gtl ->
        (match k mod 3 with
        | 1 ->
            let e = float_of_string e and g = float_of_string g in
            let tol = 0.001 *. Float.max 1.0 (Float.abs e) in
            if Float.abs (e -. g) > tol then
              Alcotest.failf "program %d: cycles %f vs golden %f" idx g e
        | _ ->
            if e <> g then
              Alcotest.failf "program %d: field %d: %s vs golden %s" idx k g e);
        fields (k + 1) (etl, gtl)
    | _ -> Alcotest.failf "program %d: golden line shape mismatch" idx
  in
  match (expected, got) with
  | ei :: etl, gi :: gtl ->
      checki "index" (int_of_string ei) (int_of_string gi);
      fields 0 (etl, gtl)
  | _ -> Alcotest.failf "program %d: empty golden line" idx

let test_golden_differential () =
  let expected = Golden.read_lines "emulator_golden.txt" in
  checki "golden population" golden_count (List.length expected);
  List.iteri
    (fun idx (prog, exp_line) ->
      let got = golden_line idx prog in
      check_golden_cells idx
        (String.split_on_char ' ' exp_line)
        (String.split_on_char ' ' got))
    (List.combine (golden_programs ()) expected)

(* ---------------- decode-cache invalidation ---------------- *)

(* Assemble a tiny program that puts [n] in x0 and stops at svc #1. *)
let tiny_img n =
  (Assemble.assemble_string
     (Printf.sprintf "_start:\n\tmovz x0, #%d\n\tsvc #1\n" n))
    .Assemble.text

let run_to_svc m =
  match Exec.run m ~quantum:100 with
  | Exec.Trap (Exec.Svc_trap 1) -> ()
  | _ -> Alcotest.fail "did not reach svc #1"

(* Remap-then-execute regression: after the code page is re-written
   through a temporary RW window, execution must observe the new
   instructions.  A pc-keyed decode cache without an invalidation hook
   serves the stale decode here. *)
let test_decode_remap () =
  let mem = Memory.create () in
  let m = Machine.create mem in
  let base = 0x10000L in
  Memory.map mem ~addr:base ~len:Memory.page_size ~perm:Memory.perm_rw;
  Memory.write_bytes mem base (tiny_img 1);
  Memory.protect mem ~addr:base ~len:Memory.page_size ~perm:Memory.perm_rx;
  Machine.set_pc m.Machine.regs base;
  run_to_svc m;
  check64 "original code" 1L (Machine.x m.Machine.regs 0);
  Memory.protect mem ~addr:base ~len:Memory.page_size ~perm:Memory.perm_rw;
  Memory.write_bytes mem base (tiny_img 2);
  Memory.protect mem ~addr:base ~len:Memory.page_size ~perm:Memory.perm_rx;
  Machine.set_pc m.Machine.regs base;
  run_to_svc m;
  check64 "rewritten code" 2L (Machine.x m.Machine.regs 0)

(* A store into a writable+executable page must also drop the decode. *)
let test_decode_wx_write () =
  let mem = Memory.create () in
  let m = Machine.create mem in
  let base = 0x10000L in
  let rwx = Memory.(perm_rw lor perm_rx) in
  Memory.map mem ~addr:base ~len:Memory.page_size ~perm:rwx;
  Memory.write_bytes mem base (tiny_img 1);
  Machine.set_pc m.Machine.regs base;
  run_to_svc m;
  check64 "original code" 1L (Machine.x m.Machine.regs 0);
  (* patch just the movz word in place *)
  let patched = tiny_img 3 in
  Memory.write mem base 4
    (Int64.logand (Bytes.get_int64_le patched 0) 0xFFFFFFFFL);
  Machine.set_pc m.Machine.regs base;
  run_to_svc m;
  check64 "patched code" 3L (Machine.x m.Machine.regs 0)

(* A superblock whose body straddles a page boundary is registered on
   both pages, so invalidating the *second* page (here by patching it
   through a W+X mapping) must drop the block even though its entry pc
   lives on the first page — and only that block: a block wholly on the
   first page survives, and the first page's code stays cached. *)
let test_block_straddle_invalidation () =
  let mem = Memory.create () in
  let m = Machine.create mem in
  let metrics = Lfi_telemetry.Metrics.create_emu () in
  m.Machine.metrics <- Some metrics;
  let base = 0x10000L in
  let rwx = Memory.(perm_rw lor perm_rx) in
  Memory.map mem ~addr:base ~len:(2 * Memory.page_size) ~perm:rwx;
  (* movz x0 on the first page, movz x1 + svc on the second: one block,
     two pages; and a block wholly on the first page *)
  let entry = Int64.add base (Int64.of_int (Memory.page_size - 4)) in
  let text asm = (Assemble.assemble_string asm).Assemble.text in
  Memory.write_bytes mem entry
    (text "_start:\n\tmovz x0, #1\n\tmovz x1, #7\n\tsvc #1\n");
  Memory.write_bytes mem base (text "_start:\n\tmovz x2, #5\n\tsvc #1\n");
  let run_both () =
    Machine.set_pc m.Machine.regs base;
    run_to_svc m;
    Machine.set_pc m.Machine.regs entry;
    run_to_svc m
  in
  run_both ();
  check64 "first page half" 1L (Machine.x m.Machine.regs 0);
  check64 "second page half" 7L (Machine.x m.Machine.regs 1);
  check64 "first-page block" 5L (Machine.x m.Machine.regs 2);
  checkb "block dispatch ran" true (m.Machine.blk_execs > 0);
  let builds = m.Machine.blk_builds in
  let drops = metrics.Lfi_telemetry.Metrics.decode_invalidations in
  (* patch the movz x1 word, which lives on the second page *)
  let boundary = Int64.add base (Int64.of_int Memory.page_size) in
  let word b = Int64.logand (Int64.of_int32 (Bytes.get_int32_le b 0)) 0xFFFFFFFFL in
  Memory.write mem boundary 4 (word (text "_start:\n\tmovz x1, #9\n"));
  run_both ();
  check64 "straddler dropped" 9L (Machine.x m.Machine.regs 1);
  checki "only the straddler rebuilt" 1 (m.Machine.blk_builds - builds);
  checki "only the second page dropped" 1
    (metrics.Lfi_telemetry.Metrics.decode_invalidations - drops);
  (* same again via a remap of the second page only *)
  Memory.protect mem ~addr:boundary ~len:Memory.page_size ~perm:Memory.perm_rw;
  Memory.write mem boundary 4 (word (text "_start:\n\tmovz x1, #11\n"));
  Memory.protect mem ~addr:boundary ~len:Memory.page_size ~perm:rwx;
  Machine.set_pc m.Machine.regs entry;
  run_to_svc m;
  check64 "straddler dropped after remap" 11L (Machine.x m.Machine.regs 1)

(* Revoking execute permission must fault the next fetch even though
   the page's instructions were already decoded and cached. *)
let test_fetch_after_protect () =
  let mem = Memory.create () in
  let m = Machine.create mem in
  let base = 0x10000L in
  Memory.map mem ~addr:base ~len:Memory.page_size ~perm:Memory.perm_rw;
  Memory.write_bytes mem base (tiny_img 1);
  Memory.protect mem ~addr:base ~len:Memory.page_size ~perm:Memory.perm_rx;
  Machine.set_pc m.Machine.regs base;
  run_to_svc m;
  Memory.protect mem ~addr:base ~len:Memory.page_size ~perm:Memory.perm_rw;
  Machine.set_pc m.Machine.regs base;
  match Exec.step m with
  | Some (Exec.Trap (Exec.Mem_fault f)) ->
      checkb "fetch fault" true (f.Memory.access = Memory.Fetch)
  | _ -> Alcotest.fail "expected a fetch fault after protect"

(* ---------------- per-instruction golden reference ---------------- *)

(* The program golden above covers only the encodings the MiniC
   compiler emits.  This population pins every non-branch instruction
   form the decoder produces, and is the reference both runners — the
   block engine ([Exec.run]) and single steps ([step_run]) — are
   checked against:
   - the equivalence engine's straight-line streams ([Gen_insn.stream],
     memory through x19/x20);
   - streams of the non-branch draws of [Gen_insn.insn], which fills
     every row of the ISA table with raw field bits (sp operands,
     system instructions and [udf] included), addressing through
     whatever the seeded registers hold, so both in-window accesses
     and faults occur;
   - hand-written streams for sequences random fields rarely form: the
     LFI guard shapes, cset, the exclusive pair's success path, sp
     arithmetic followed by sp accesses, and the system instructions
     and [udf] that they pinned before the generator drew them.
   Each stream runs from a seeded register, flag and FP state to its
   closing [svc #1] (or an earlier fault or [udf]).  A line holds a
   digest of x0-x30, sp, pc, NZCV, the exclusive monitor, v0-v31 and
   the data window, then the cycles, the retired count and the ending
   event.  [test_insn_coverage] checks that the population retires
   every form in [insn_forms].

   Regenerate (this redefines the reference semantics) with
   `make goldens`, which runs this executable with
   LFI_GOLDEN_OUT=$PWD/test/insn_golden.txt, and review
   `git diff test/`. *)

let ig_text = 0x10000L
let ig_data = 0x100000L
let ig_data_pages = 4

let ig_mid =
  Int64.add ig_data (Int64.of_int (ig_data_pages / 2 * Memory.page_size))

(* the data window's contents before every stream *)
let ig_pattern =
  Bytes.init (ig_data_pages * Memory.page_size) (fun i ->
      Char.chr ((i * 131 + (i lsr 9)) land 0xFF))

type ig_state = {
  g_regs : int64 array;
  g_sp : int64;
  g_nzcv : int;
  g_vlo : int64 array;
  g_vhi : int64 array;
}

(* A register holds a pointer near the middle of the data window, a
   small index (in range for [x21, wN, uxtw #s], with x21 at the
   window's start), or arbitrary bits. *)
let ig_reg =
  QCheck.Gen.(
    frequency
      [
        ( 2,
          map
            (fun k -> Int64.add ig_mid (Int64.of_int (8 * k)))
            (int_range (-1024) 1023) );
        (1, map Int64.of_int (int_range 0 0x1FFF));
        (1, ui64);
      ])

(* An FP register holds a small double, a small single (low word), or
   arbitrary bits (NaNs and infinities included). *)
let ig_fp =
  QCheck.Gen.(
    frequency
      [
        ( 1,
          map
            (fun k -> Int64.bits_of_float (float_of_int k /. 4.))
            (int_range (-4000) 4000) );
        ( 1,
          map
            (fun k ->
              Int64.logand 0xFFFFFFFFL
                (Int64.of_int32 (Int32.bits_of_float (float_of_int k /. 8.))))
            (int_range (-4000) 4000) );
        (1, ui64);
      ])

let ig_state : ig_state QCheck.Gen.t =
  QCheck.Gen.(
    array_repeat 31 ig_reg >>= fun regs ->
    int_range 0 15 >>= fun nzcv ->
    array_repeat 32 ig_fp >>= fun vlo ->
    array_repeat 32 ig_fp >>= fun vhi ->
    int_range 0 63 >>= fun x20 ->
    regs.(19) <- ig_mid;
    regs.(20) <- Int64.of_int x20;
    regs.(21) <- ig_data;
    return
      { g_regs = regs; g_sp = Int64.add ig_mid 0x2000L; g_nzcv = nzcv;
        g_vlo = vlo; g_vhi = vhi })

let ig_extras =
  [
    "add sp, sp, #32\n\tsub x0, sp, #16\n\tadd x1, sp, x2, uxtx\n\tmov x3, sp\n\tadd wsp, w4, #4\n\tmov x5, sp\n";
    "ldr x0, [sp, #8]\n\tstr x1, [sp, #16]\n\tldp x2, x3, [sp, #-16]!\n\tstp x4, x5, [sp], #16\n\tstr xzr, [sp]\n\tsub sp, sp, x6\n";
    "mrs x0, tpidr_el0\n\tmsr tpidr_el0, x1\n\tdmb ish\n\tnop\n\tmrs x2, fpcr\n\tmsr fpcr, x3\n";
    "movz w2, #5\n\tmovz w4, #9\n\tmovz w6, #300\n\tadd x18, x21, w0, uxtw\n\tldr x1, [x21, w2, uxtw #3]\n\tstr w3, [x21, w4, uxtw #2]\n\tldrb w5, [x21, w6, uxtw]\n\tldr w7, [x21, w4, uxtw #2]\n\tstr x9, [x21, w2, uxtw #3]\n\tadd sp, x21, x22, uxtx\n";
    "cmp x0, x1\n\tcset x2, eq\n\tcmn w3, #4\n\tcset w4, lt\n\tcmp w5, w6\n\tcmp x7, #9\n";
    "add x0, xzr, x1\n\torr x2, xzr, x3\n\tmadd x4, x5, x6, xzr\n\tmul w7, w8, w9\n\tmovk wzr, #1\n\tubfm x10, xzr, #3, #7\n\tsbfm w11, wzr, #3, #7\n";
    "ldr q0, [x19]\n\tstr q1, [x19, #32]\n\tldp q2, q3, [x19, #64]\n\tstp q4, q5, [x19, #-64]!\n\tldr q6, [x19, x20]\n";
    "ldxr x0, [x19]\n\tstxr w1, x2, [x19]\n\tldxr w3, [x19]\n\tstxr w4, w5, [x19]\n\tstxr w6, x7, [x19]\n";
    "bfi x0, x1, #4, #8\n\tbfm w2, w3, #0, #4\n\tlsl x4, x5, #3\n\tasr w6, w7, #2\n\tsxtw x8, w9\n\tuxtb w10, w11\n";
    "movz x0, #1\n\tudf #3\n";
  ]

let ig_words (insns : Insn.t list) : int list =
  List.filter_map (fun i -> Result.to_option (Isa.encode i)) insns

let asm_words (body : string) : int list =
  let t = (Assemble.assemble_string ("_start:\n\t" ^ body)).Assemble.text in
  List.init (Bytes.length t / 4) (fun k ->
      Int32.to_int (Bytes.get_int32_le t (4 * k)) land 0xFFFFFFFF)

let ig_streams = 400
let ig_class_streams = 400

let ig_population () : (int list * ig_state) list =
  let rand = Random.State.make [| 0x1A5E; 17 |] in
  let gen g = QCheck.Gen.generate1 ~rand g in
  let nonbranch =
    Lfi_fuzz.Gen_insn.such_that
      (fun i -> not (Insn.is_branch i))
      Lfi_fuzz.Gen_insn.insn
  in
  let rec draw n g acc =
    if n = 0 then List.rev acc
    else
      let words = ig_words (gen g) in
      let st = gen ig_state in
      draw (n - 1) g ((words, st) :: acc)
  in
  let streams = draw ig_streams Lfi_fuzz.Gen_insn.stream [] in
  let classes =
    draw ig_class_streams
      QCheck.Gen.(int_range 1 8 >>= fun n -> list_repeat n nonbranch)
      []
  in
  let extras =
    List.map
      (fun body ->
        let st = gen ig_state in
        (asm_words body, st))
      ig_extras
  in
  streams @ classes @ extras

let ig_svc = Result.get_ok (Isa.encode (Insn.Svc 1))

(* The differential reference: [Exec.step] one instruction at a time,
   so no superblock is ever built, with [Exec.run]'s contract — stop at
   the first event or after [quantum] instructions. *)
let step_run (m : Machine.t) ~(quantum : int) : Exec.event =
  let rec go n =
    if n <= 0 then Exec.Quantum_expired
    else match Exec.step m with None -> go (n - 1) | Some e -> e
  in
  go quantum

let runners = [ ("blocks", Exec.run); ("step", step_run) ]

let ig_exec ?(drive = Exec.run) ((words, st) : int list * ig_state) :
    Machine.t * Exec.event =
  let mem = Memory.create () in
  let m = Machine.create mem in
  Memory.map mem ~addr:ig_text ~len:Memory.page_size ~perm:Memory.perm_rw;
  List.iteri
    (fun k w ->
      Memory.write mem (Int64.add ig_text (Int64.of_int (4 * k))) 4
        (Int64.of_int w))
    (words @ [ ig_svc ]);
  Memory.protect mem ~addr:ig_text ~len:Memory.page_size ~perm:Memory.perm_rx;
  Memory.map mem ~addr:ig_data ~len:(ig_data_pages * Memory.page_size)
    ~perm:Memory.perm_rw;
  for p = 0 to ig_data_pages - 1 do
    let pg = Memory.page_at mem (Memory.page_index ig_data + p) in
    Bytes.blit ig_pattern (p * Memory.page_size) (Memory.page_own_data pg) 0
      Memory.page_size
  done;
  let f = m.Machine.regs in
  Array.iteri (Machine.set_x f) st.g_regs;
  Machine.set_sp f st.g_sp;
  Machine.set_nzcv f st.g_nzcv;
  Array.iteri (Machine.set_vlo f) st.g_vlo;
  Array.iteri (Machine.set_vhi f) st.g_vhi;
  Machine.set_pc f ig_text;
  (m, drive m ~quantum:1000)

let ig_line ?drive idx case =
  let m, ev = ig_exec ?drive case in
  let b = Buffer.create (ig_data_pages * Memory.page_size + 1024) in
  let add64 = Buffer.add_int64_le b in
  let f = m.Machine.regs in
  for n = 0 to 30 do add64 (Machine.x f n) done;
  add64 (Machine.sp f);
  add64 (Machine.pc f);
  List.iter
    (fun bit ->
      Buffer.add_char b (if Machine.nzcv f land bit <> 0 then '1' else '0'))
    [ 8; 4; 2; 1 ];
  (match Machine.monitor m with
  | None -> Buffer.add_char b '-'
  | Some a -> add64 a);
  for n = 0 to 31 do add64 (Machine.vlo f n) done;
  for n = 0 to 31 do add64 (Machine.vhi f n) done;
  for p = 0 to ig_data_pages - 1 do
    let pg = Memory.page_at m.Machine.mem (Memory.page_index ig_data + p) in
    Buffer.add_bytes b (Memory.page_data pg)
  done;
  let event =
    match ev with
    | Exec.Quantum_expired -> "quantum expired"
    | Exec.Runtime_entry pc -> Printf.sprintf "runtime entry 0x%Lx" pc
    | Exec.Trap t -> Format.asprintf "%a" Exec.pp_trap t
  in
  Printf.sprintf "%d %s %.6f %d %s" idx
    (Digest.to_hex (Digest.string (Buffer.contents b)))
    (Machine.cycles m) m.Machine.insns event

let write_insn_golden path =
  let oc = open_out path in
  List.iteri
    (fun i case -> output_string oc (ig_line i case ^ "\n"))
    (ig_population ());
  close_out oc;
  Printf.printf "wrote the instruction golden to %s\n%!" path

let test_insn_golden () =
  let expected = Golden.read_lines "insn_golden.txt" in
  let population = ig_population () in
  checki "insn golden population" (List.length population)
    (List.length expected);
  List.iter
    (fun (name, drive) ->
      List.iteri
        (fun idx (case, line) ->
          Alcotest.(check string)
            (Printf.sprintf "stream %d (%s runner)" idx name)
            line (ig_line ~drive idx case))
        (List.combine population expected))
    runners

(* Every form the golden must pin, as a predicate on the decoded
   instruction; each must be retired (not faulted) at least once. *)
let insn_forms : (string * (Insn.t -> bool)) list =
  let open Insn in
  let w32 r = Reg.width r = Reg.W32 in
  let zr = function Reg.ZR _ -> true | _ -> false in
  let sp = function Reg.SP _ -> true | _ -> false in
  let fq (f : Reg.Fp.t) = f.Reg.Fp.size = Reg.Fp.Q in
  let guarded = function
    | Reg_off (Reg.R (Reg.W64, 21), _, Uxtw, _) -> true
    | _ -> false
  in
  [
    ("alu immediate", function Alu { op2 = Imm _; _ } -> true | _ -> false);
    ("alu shifted register", function Alu { op2 = Sh (_, _, a); _ } -> a > 0 | _ -> false);
    ("alu extended register", function Alu { op2 = Ext _; _ } -> true | _ -> false);
    ("alu w32", function Alu { dst; _ } -> w32 dst | _ -> false);
    ("alu flags", function Alu { flags = true; _ } -> true | _ -> false);
    ("alu zr operand", function
      | Alu { dst; src; op2 = Sh (r, _, _); _ } -> zr dst || zr src || zr r
      | _ -> false);
    ("alu sp operand", function Alu { dst; src; _ } -> sp dst || sp src | _ -> false);
    ("lfi guard add", function
      | Alu { op = ADD; flags = false; src = Reg.R (Reg.W64, 21); op2 = Ext (_, Uxtw, 0); _ } -> true
      | _ -> false);
    ("shiftv", function Shiftv _ -> true | _ -> false);
    ("movz", function Mov { op = MOVZ; _ } -> true | _ -> false);
    ("movn", function Mov { op = MOVN; _ } -> true | _ -> false);
    ("movk", function Mov { op = MOVK; _ } -> true | _ -> false);
    ("ubfm", function Bitfield { op = UBFM; _ } -> true | _ -> false);
    ("sbfm", function Bitfield { op = SBFM; _ } -> true | _ -> false);
    ("bfm", function Bitfield { op = BFM; _ } -> true | _ -> false);
    ("bitfield w32", function Bitfield { dst; _ } -> w32 dst | _ -> false);
    ("extr", function Extr _ -> true | _ -> false);
    ("madd", function Madd _ -> true | _ -> false);
    ("smulh", function Smulh _ -> true | _ -> false);
    ("maddl", function Maddl _ -> true | _ -> false);
    ("div w32", function Div { dst; _ } -> w32 dst | _ -> false);
    ("div w64", function Div { dst; _ } -> not (w32 dst) | _ -> false);
    ("csel", function Csel { op = CSEL; _ } -> true | _ -> false);
    ("cset", function Csel { op = CSINC; src1 = Reg.ZR _; src2 = Reg.ZR _; _ } -> true | _ -> false);
    ("csinv/csneg", function Csel { op = CSINV | CSNEG; _ } -> true | _ -> false);
    ("ccmp", function Ccmp _ -> true | _ -> false);
    ("clz", function Cls { count_zero = true; _ } -> true | _ -> false);
    ("cls", function Cls { count_zero = false; _ } -> true | _ -> false);
    ("rbit", function Rbit _ -> true | _ -> false);
    ("rev", function Rev _ -> true | _ -> false);
    ("adr", function Adr { page = false; _ } -> true | _ -> false);
    ("adrp", function Adr { page = true; _ } -> true | _ -> false);
    ("ldr immediate", function Ldr { addr = Imm_off _; _ } -> true | _ -> false);
    ("ldr signed", function Ldr { signed = true; _ } -> true | _ -> false);
    ("ldr pre-index", function Ldr { addr = Pre _; _ } -> true | _ -> false);
    ("ldr post-index", function Ldr { addr = Post _; _ } -> true | _ -> false);
    ("ldr register offset", function Ldr { addr = Reg_off _ as a; _ } -> not (guarded a) | _ -> false);
    ("ldr guarded", function Ldr { addr; _ } -> guarded addr | _ -> false);
    ("str", function Str { addr = Imm_off _ | Pre _ | Post _; _ } -> true | _ -> false);
    ("str register offset", function Str { addr = Reg_off _ as a; _ } -> not (guarded a) | _ -> false);
    ("str guarded", function Str { addr; _ } -> guarded addr | _ -> false);
    ("ldp", function Ldp _ -> true | _ -> false);
    ("stp", function Stp _ -> true | _ -> false);
    ("sp-based access", fun i ->
        match Insn.addr_of i with Some a -> sp (Insn.addr_base a) | None -> false);
    ("fldr s/d", function Fldr { dst; _ } -> not (fq dst) | _ -> false);
    ("fldr q", function Fldr { dst; _ } -> fq dst | _ -> false);
    ("fstr s/d", function Fstr { src; _ } -> not (fq src) | _ -> false);
    ("fstr q", function Fstr { src; _ } -> fq src | _ -> false);
    ("fldp s/d", function Fldp { r1; _ } -> not (fq r1) | _ -> false);
    ("fldp q", function Fldp { r1; _ } -> fq r1 | _ -> false);
    ("fstp s/d", function Fstp { r1; _ } -> not (fq r1) | _ -> false);
    ("fstp q", function Fstp { r1; _ } -> fq r1 | _ -> false);
    ("ldxr", function Ldxr _ -> true | _ -> false);
    ("stxr", function Stxr _ -> true | _ -> false);
    ("ldar", function Ldar _ -> true | _ -> false);
    ("stlr", function Stlr _ -> true | _ -> false);
    ("fop2", function Fop2 _ -> true | _ -> false);
    ("fop1", function Fop1 _ -> true | _ -> false);
    ("fmadd", function Fmadd _ -> true | _ -> false);
    ("fcmp", function Fcmp { src2 = Some _; _ } -> true | _ -> false);
    ("fcmp zero", function Fcmp { src2 = None; _ } -> true | _ -> false);
    ("fcvt", function Fcvt _ -> true | _ -> false);
    ("scvtf", function Scvtf { signed = true; _ } -> true | _ -> false);
    ("ucvtf", function Scvtf { signed = false; _ } -> true | _ -> false);
    ("fcvtzs", function Fcvtzs _ -> true | _ -> false);
    ("fmov to fp", function Fmov_to_fp _ -> true | _ -> false);
    ("fmov from fp", function Fmov_from_fp _ -> true | _ -> false);
    ("nop", function Nop -> true | _ -> false);
    ("mrs", function Mrs _ -> true | _ -> false);
    ("msr", function Msr _ -> true | _ -> false);
    ("dmb", function Dmb -> true | _ -> false);
  ]

let test_insn_coverage () =
  let retired = ref [] in
  List.iter
    (fun ((words, _) as case) ->
      let m, ev = ig_exec case in
      let completed =
        match ev with
        | Exec.Trap (Exec.Mem_fault _) -> m.Machine.insns - 1
        | _ -> m.Machine.insns
      in
      List.iteri
        (fun k w -> if k < completed then retired := Isa.decode w :: !retired)
        words)
    (ig_population ());
  List.iter
    (fun (name, p) ->
      checkb (name ^ " retired by the population") true (List.exists p !retired))
    insn_forms

(* ---------------- observers inside superblocks ---------------- *)

(* Metrics, the pc profiler and per-site overhead attribution observe
   each run of instructions the block engine retires, so arming them
   changes no dispatch decision, and what they record must equal what
   the one-instruction-at-a-time reference records.  Each stream is
   rewritten at O0, so it carries a site table, and runs on a bare
   machine at base 0 whose runtime-call table (page 0) sends [svc] to
   the host region. *)
let od_faults m = (Option.get m.Machine.metrics).Lfi_telemetry.Metrics.faults

let od_dropped m =
  (Option.get m.Machine.metrics).Lfi_telemetry.Metrics.decode_invalidations

(* name, W+X text, source, and what its block-engine run must end with *)
let od_streams =
  [
    ( "sited loop", false,
      "_start:\n\tmovz x0, #40\n\tadr x1, buf\nloop:\n\tstr x0, [x1]\n\
       \tldr x2, [x1]\n\tadd x3, x3, x2\n\tsub x0, x0, #1\n\tcbnz x0, loop\n\
       \tsvc #1\n.data\nbuf:\n\t.quad 0\n",
      fun m ->
        check64 "x3 = 40 + 39 + ... + 1" 820L (Machine.x m.Machine.regs 3) );
    (* the store walks off the data page in the middle of a block *)
    ( "mid-block data fault", false,
      "_start:\n\tmovz x0, #40\n\tadr x1, buf\nloop:\n\tstr x0, [x1]\n\
       \tadd x1, x1, #1024\n\tsub x0, x0, #1\n\tcbnz x0, loop\n\tsvc #1\n\
       .data\nbuf:\n\t.quad 0\n",
      fun m -> checki "one data fault" 1 (od_faults m) );
    (* every iteration bumps the immediate of [patch], two instructions
       ahead in its own block, so x6 ends at 2 + 3 + ... + 13 = 90 *)
    ( "w+x self-modifying store", true,
      "_start:\n\tmovz x0, #12\n\tadr x1, patch\n\tldr w4, [x1]\nloop:\n\
       \tadd w4, w4, #1024\n\tstr w4, [x1]\n\tadd x5, x5, #1\npatch:\n\
       \tadd x6, x6, #1\n\tsub x0, x0, #1\n\tcbnz x0, loop\n\tsvc #1\n",
      fun m ->
        check64 "patched code ran" 90L (Machine.x m.Machine.regs 6);
        checkb "code page dropped every iteration" true (od_dropped m >= 12) );
  ]

let od_machine ~wx asm =
  let elf =
    Lfi_core.Build.elf (Some Lfi_core.Config.o0) (Parser.parse_string_exn asm)
  in
  let mem = Memory.create () in
  let m = Machine.create mem in
  let load addr perm write =
    let addr = Int64.of_int addr in
    Memory.map mem ~addr ~len:Memory.page_size ~perm:Memory.perm_rw;
    write addr;
    Memory.protect mem ~addr ~len:Memory.page_size ~perm
  in
  load 0 Memory.perm_r (fun _ ->
      for k = 0 to Lfi_core.Layout.rtcall_entry_count - 1 do
        let entry = Int64.of_int (8 * k) in
        Memory.write mem entry 8 (Int64.add Machine.host_region_start entry)
      done);
  List.iter
    (fun (seg : Lfi_elf.Elf.segment) ->
      load seg.vaddr
        (if seg.flags land Lfi_elf.Elf.pf_x = 0 then Memory.perm_rw
         else if wx then Memory.(perm_rw lor perm_rx)
         else Memory.perm_rx)
        (fun a -> Memory.write_bytes mem a seg.data))
    elf.Lfi_elf.Elf.segments;
  Machine.set_pc m.Machine.regs (Int64.of_int elf.Lfi_elf.Elf.entry);
  m.Machine.metrics <- Some (Lfi_telemetry.Metrics.create_emu ());
  m.Machine.profile <- Some (Lfi_telemetry.Profile.create ~period:4 ());
  m.Machine.overhead <-
    Some (Lfi_telemetry.Overhead.create ~base:0 elf.Lfi_elf.Elf.sites);
  m

(* Everything the observers and the machine recorded, one labelled
   string per aspect; floats in hex so equality is bit-exact. *)
let od_record (m : Machine.t) (ev : Exec.event) : (string * string) list =
  let open Lfi_telemetry in
  let e = Option.get m.Machine.metrics in
  let p = Option.get m.Machine.profile in
  let a = Option.get m.Machine.overhead in
  let ints l = String.concat " " (List.map string_of_int l) in
  let floats l = String.concat " " (List.map (Printf.sprintf "%h") l) in
  let samples =
    Hashtbl.fold (fun pc n acc -> (pc, n) :: acc) p.Profile.samples []
    |> List.sort compare
    |> List.map (fun (pc, n) -> Printf.sprintf "%x=%d" pc n)
    |> String.concat " "
  in
  [
    ( "metrics",
      Metrics.(
        ints
          [ e.decode_hits; e.decode_misses; e.decode_invalidations; e.faults;
            e.loads; e.stores; e.branches; e.guards; e.other ]) );
    ("profile samples", Printf.sprintf "%d: %s" p.Profile.total samples);
    ("overhead execs", ints (Array.to_list a.Overhead.execs));
    ("overhead cycles", floats (Array.to_list a.Overhead.cycles));
    ("overhead attributed", floats [ Overhead.attributed_cycles a ]);
    ( "flight",
      String.concat " "
        (List.map
           (fun (f : Flight.event) ->
             Printf.sprintf "%d:%x:%x" f.Flight.kind f.Flight.pc f.Flight.arg)
           (Flight.events m.Machine.flight)) );
    ( "machine",
      Printf.sprintf "cycles %h insns %d pc %Lx regs %s event %s"
        (Machine.cycles m) m.Machine.insns (Machine.pc m.Machine.regs)
        (String.concat ","
           (List.init 31 (fun n ->
                Int64.to_string (Machine.x m.Machine.regs n))))
        (match ev with
        | Exec.Quantum_expired -> "quantum expired"
        | Exec.Runtime_entry pc -> Printf.sprintf "runtime entry 0x%Lx" pc
        | Exec.Trap t -> Format.asprintf "%a" Exec.pp_trap t) );
  ]

let od_run drive ~quantum ~wx asm =
  let m = od_machine ~wx asm in
  let rec go fuel =
    match drive m ~quantum with
    | Exec.Quantum_expired when fuel > 0 -> go (fuel - 1)
    | ev -> ev
  in
  let ev = go 10_000 in
  (m, od_record m ev)

(* A 7-instruction quantum forces chaining and quantum tails; a
   1000-instruction one lets the fault and the W+X store land inside a
   block, where the engine repairs or stops early. *)
let test_observer_differential () =
  List.iter
    (fun (name, wx, asm, expect) ->
      let ms, stepped = od_run step_run ~quantum:7 ~wx asm in
      checki (name ^ ": the reference built no block") 0 ms.Machine.blk_execs;
      List.iter
        (fun quantum ->
          let name = Printf.sprintf "%s, quantum %d" name quantum in
          let mb, blocks = od_run Exec.run ~quantum ~wx asm in
          checkb (name ^ ": blocks dispatched with observers armed") true
            (mb.Machine.blk_execs > 0);
          List.iter2
            (fun (what, s) (_, b) ->
              Alcotest.(check string) (Printf.sprintf "%s: %s" name what) s b)
            stepped blocks;
          let e = Option.get mb.Machine.metrics in
          checki (name ^ ": hits + misses = insns") mb.Machine.insns
            Lfi_telemetry.Metrics.(e.decode_hits + e.decode_misses);
          checkb (name ^ ": profile sampled") true
            ((Option.get mb.Machine.profile).Lfi_telemetry.Profile.total > 0);
          checkb (name ^ ": sites charged") true
            (Lfi_telemetry.Overhead.attributed_cycles
               (Option.get mb.Machine.overhead)
            > 0.0);
          expect mb)
        [ 7; 1000 ])
    od_streams

(* protect with len = 0 touches no pages (and must not fault on an
   unmapped address); negative lengths are rejected. *)
let test_protect_len_zero () =
  let m = Memory.create () in
  Memory.map m ~addr:0x4000L ~len:Memory.page_size ~perm:Memory.perm_rw;
  Memory.protect m ~addr:0x4000L ~len:0 ~perm:Memory.perm_r;
  Memory.write m 0x4000L 8 5L;
  check64 "still writable" 5L (Memory.read m 0x4000L 8);
  Memory.protect m ~addr:0x9990000L ~len:0 ~perm:Memory.perm_r;
  match Memory.protect m ~addr:0x4000L ~len:(-1) ~perm:Memory.perm_r with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative length accepted"

(* An indirect branch to a target outside [0, 2^62) retires, then takes
   the fetch fault at the unmodified target (a quantum tail steps it):
   never truncated, and never aliased onto the code at 0x20000. *)
let test_wild_branch_target () =
  List.iter
    (fun target ->
      let mem = Memory.create () in
      let m = Machine.create mem in
      let load addr body =
        Memory.map mem ~addr ~len:Memory.page_size ~perm:Memory.perm_rw;
        Memory.write_bytes mem addr
          (Assemble.assemble_string ("_start:\n" ^ body)).Assemble.text;
        Memory.protect mem ~addr ~len:Memory.page_size ~perm:Memory.perm_rx
      in
      load 0x10000L "\tbr x0\n";
      load 0x20000L "\tmovz x1, #42\n\tsvc #1\n";
      Machine.set_x m.Machine.regs 0 target;
      Machine.set_pc m.Machine.regs 0x10000L;
      match Exec.run m ~quantum:100 with
      | Exec.Trap (Exec.Mem_fault f) ->
          check64 "fault address" target f.Memory.addr;
          checkb "fetch fault" true (f.Memory.access = Memory.Fetch);
          check64 "pc" target (Machine.pc m.Machine.regs);
          checki "insns" 1 m.Machine.insns;
          check64 "code at 0x20000 not run" 0L (Machine.x m.Machine.regs 1)
      | e ->
          Alcotest.failf "br to 0x%Lx: %s" target
            (match e with
            | Exec.Trap t -> Format.asprintf "%a" Exec.pp_trap t
            | Exec.Quantum_expired -> "quantum expired"
            | Exec.Runtime_entry pc -> Printf.sprintf "runtime entry 0x%Lx" pc))
    [ 0x4000_0000_0002_0000L; 0x7f00_0000_0000_0000L; 0x8000_0000_0002_0000L ]

let test_undefined_trap () =
  let img = Assemble.assemble_string "_start:\n\tudf #7\n" in
  let mem = Memory.create () in
  let m = Machine.create mem in
  Memory.map mem ~addr:0x10000L ~len:Memory.page_size ~perm:Memory.perm_rw;
  Memory.write_bytes mem 0x10000L img.Assemble.text;
  Memory.protect mem ~addr:0x10000L ~len:Memory.page_size ~perm:Memory.perm_rx;
  Machine.set_pc m.Machine.regs 0x10000L;
  match Exec.run m ~quantum:10 with
  | Exec.Trap (Exec.Undefined _) -> ()
  | _ -> Alcotest.fail "expected undefined trap"

let test_runtime_entry () =
  let mem = Memory.create () in
  let m = Machine.create mem in
  Machine.set_pc m.Machine.regs (Machine.host_region_start);
  match Exec.step m with
  | Some (Exec.Runtime_entry pc) -> check64 "pc" Machine.host_region_start pc
  | _ -> Alcotest.fail "expected runtime entry"

let test_cost_accumulates () =
  let v = run_asm "\tmovz x0, #1\n\tadd x0, x0, #1\n" in
  checkb "result" true (Int64.equal v 2L)


(* ---------------- the register file ---------------- *)

(* The ROADMAP's allocation target: a straight-line loop of guarded
   ALU, load and store instructions — what rewritten code mostly
   runs — allocates under 0.1 minor words per retired instruction
   through [Exec.run].  Register values live unboxed in the register
   file, so only the quantum's own bookkeeping allocates. *)
let test_guarded_loop_allocates_little () =
  let m =
    asm_machine
      "\tmovz x21, #0x4, lsl #16\n\tmovz x6, #50000\n\
       loop:\n\
       \tadd w1, w1, #8\n\tand w1, w1, #0xff8\n\tadd x2, x21, w1, uxtw\n\
       \tldr x3, [x21, w1, uxtw]\n\tadd x3, x3, x4\n\
       \tstr x3, [x21, w1, uxtw]\n\tldr w5, [x2, #8]\n\tstr w5, [x2, #16]\n\
       \teor x4, x4, x3\n\tsubs x6, x6, #1\n\tb.ne loop\n"
  in
  let before = Gc.minor_words () in
  (match Exec.run m ~quantum:10_000_000 with
  | Exec.Trap (Exec.Svc_trap 1) -> ()
  | _ -> Alcotest.fail "the loop did not reach svc #1");
  let words = Gc.minor_words () -. before in
  let per_insn = words /. float_of_int m.Machine.insns in
  checki "retired" 550_003 m.Machine.insns;
  checkb
    (Printf.sprintf "%.4f minor words per instruction < 0.1" per_insn)
    true (per_insn < 0.1)

(* An ldxr/stxr increment loop, bounded like the guarded loop: the
   exclusive monitor is an address slot of the register file plus a
   flag, so an ldxr allocates nothing.  A boxed monitor address costs
   5 words per ldxr, one per retired instruction here. *)
let test_exclusive_loop_allocates_little () =
  let m =
    asm_machine
      "\tmovz x21, #0x4, lsl #16\n\tmovz x6, #50000\n\
       loop:\n\
       \tldxr x3, [x21]\n\tadd x3, x3, #1\n\tstxr w7, x3, [x21]\n\
       \tsubs x6, x6, #1\n\tb.ne loop\n\tldr x0, [x21]\n"
  in
  let before = Gc.minor_words () in
  (match Exec.run m ~quantum:10_000_000 with
  | Exec.Trap (Exec.Svc_trap 1) -> ()
  | _ -> Alcotest.fail "the loop did not reach svc #1");
  let words = Gc.minor_words () -. before in
  let per_insn = words /. float_of_int m.Machine.insns in
  checki "retired" 250_004 m.Machine.insns;
  checki "every stxr succeeded" 50_000
    (Int64.to_int (Machine.x m.Machine.regs 0));
  checkb
    (Printf.sprintf "%.4f minor words per instruction < 0.1" per_insn)
    true (per_insn < 0.1)

(* A random architectural state: every register, sp, pc, NZCV and both
   halves of every vector register. *)
let arch_state =
  QCheck.Gen.(
    quad (array_repeat 31 ui64) (pair ui64 ui64) (int_range 0 15)
      (pair (array_repeat 32 ui64) (array_repeat 32 ui64)))

let set_arch (m : Machine.t) (regs, (sp, pc), nzcv, (vlo, vhi)) =
  let f = m.Machine.regs in
  Array.iteri (Machine.set_x f) regs;
  Machine.set_sp f sp;
  Machine.set_pc f pc;
  Machine.set_nzcv f nzcv;
  Array.iteri (Machine.set_vlo f) vlo;
  Array.iteri (Machine.set_vhi f) vhi

let get_arch (m : Machine.t) =
  let f = m.Machine.regs in
  ( Array.init 31 (Machine.x f),
    (Machine.sp f, Machine.pc f),
    Machine.nzcv f,
    (Array.init 32 (Machine.vlo f), Array.init 32 (Machine.vhi f)) )

(* [switch_to] another file and back brings back every bit of the
   state, after the machine ran the other file and wrote another state
   into it, and clears the exclusive monitor. *)
let prop_switch_round_trip =
  QCheck.Test.make ~count:200 ~name:"switch away, overwrite, switch back"
    (QCheck.make QCheck.Gen.(pair arch_state arch_state))
    (fun (s1, s2) ->
      let m = Machine.create (Memory.create ()) in
      set_arch m s1;
      let mine = m.Machine.regs and flight = m.Machine.flight in
      Machine.switch_to m (Machine.empty_regs ()) flight;
      set_arch m s2;
      Machine.set_monitor m 0x40000L;
      Machine.switch_to m mine flight;
      get_arch m = s1 && Machine.monitor m = None)

let () =
  match Sys.getenv_opt "LFI_GOLDEN_OUT" with
  | Some path when Filename.basename path = "insn_golden.txt" ->
      write_insn_golden path
  | Some path -> write_golden path
  | None ->
  Alcotest.run "emulator"
    [
      ( "memory",
        [
          Alcotest.test_case "map rw" `Quick test_memory_map_rw;
          Alcotest.test_case "faults" `Quick test_memory_faults;
          Alcotest.test_case "cross page" `Quick test_memory_cross_page;
          Alcotest.test_case "protect unmap" `Quick test_memory_protect_unmap;
          Alcotest.test_case "tlb" `Quick test_tlb;
          Alcotest.test_case "protect len 0" `Quick test_protect_len_zero;
          Alcotest.test_case "bit 63 is not aliased" `Quick test_memory_bit63;
          Alcotest.test_case "demand-zero pages" `Quick test_demand_zero_pages;
          Alcotest.test_case "demand-zero translation counts" `Quick
            test_demand_zero_tc_counts;
        ] );
      ("semantics", semantics_cases);
      ( "decode-cache",
        [
          Alcotest.test_case "remap then execute" `Quick test_decode_remap;
          Alcotest.test_case "write to w+x page" `Quick test_decode_wx_write;
          Alcotest.test_case "block straddles invalidated page" `Quick
            test_block_straddle_invalidation;
          Alcotest.test_case "fetch after protect" `Quick
            test_fetch_after_protect;
        ] );
      ( "traps",
        [
          Alcotest.test_case "undefined" `Quick test_undefined_trap;
          Alcotest.test_case "branch target outside 2^62" `Quick
            test_wild_branch_target;
          Alcotest.test_case "runtime entry" `Quick test_runtime_entry;
          Alcotest.test_case "cost" `Quick test_cost_accumulates;
        ] );
      ( "register file",
        [
          Alcotest.test_case "guarded loop allocates little" `Quick
            test_guarded_loop_allocates_little;
          Alcotest.test_case "exclusive loop allocates little" `Quick
            test_exclusive_loop_allocates_little;
          QCheck_alcotest.to_alcotest prop_switch_round_trip;
        ] );
      ( "differential",
        [
          Alcotest.test_case "golden reference" `Slow test_golden_differential;
          Alcotest.test_case "instruction golden, both modes" `Quick
            test_insn_golden;
          Alcotest.test_case "instruction golden coverage" `Quick
            test_insn_coverage;
          Alcotest.test_case "observers inside superblocks" `Quick
            test_observer_differential;
        ] );
    ]
