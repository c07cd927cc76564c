(* The repo benchmark: one workload, in this process only.

     perfbench.exe WORKLOAD --seed N (--seconds S | --rounds R)
                   [--setups K] [--trace FILE]
     perfbench.exe record

   WORKLOAD is build, spec-exec, serve-xzbox or serve-tiny (NOTES.md
   says why each exists).  The run sets the workload up, then runs
   rounds of ops in a closed loop with one client until S seconds have
   passed (or exactly R rounds), and reports its timings from the
   fastest windows of that phase.  K-1 more set-ups, timed and thrown
   away, are spread over that phase (after it, with --rounds); setup_s
   is the median of all K.  Every op's
   output is checked; a wrong output or an error counts as a failed
   op.  With --trace, every op and every call into a layer is
   recorded as a span; the spans go to FILE as a Chrome/Perfetto trace
   at exit, and a per-layer table of time and counts is printed.  The
   last line of stdout is one JSON object with every metric.

   [record] prints expected.ml: the SPEC proxies' exit checksums and
   xzbox's dict_sum, computed by the reference interpreter. *)

open Lfi_minic
open Lfi_libbox
module Trace = Lfi_telemetry.Trace
module Metrics = Lfi_telemetry.Metrics
module Runtime = Lfi_runtime.Runtime
module Proc = Lfi_runtime.Proc
module Elf = Lfi_elf.Elf
module Verifier = Lfi_verifier.Verifier
module Rewriter = Lfi_core.Rewriter
module Assemble = Lfi_arm64.Assemble
module Libs = Lfi_workloads.Libs
module Common = Lfi_workloads.Common

exception Check of string

let fail fmt = Printf.ksprintf (fun m -> raise (Check m)) fmt

(* ------------------------------------------------------------------ *)
(* Spans and counters                                                  *)
(* ------------------------------------------------------------------ *)

(* CLOCK_MONOTONIC in nanoseconds, without allocating *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())
let t_origin = now_ns ()

(** Seconds since start, from the monotonic clock. *)
let now () = float_of_int (now_ns () - t_origin) *. 1e-9

(* busy and self time (busy minus child spans) and calls of one span
   name *)
type acc = {
  mutable busy : float;
  mutable self : float;
  mutable calls : int;
  mutable top : bool;  (** opened outside any other span *)
}

let tracer : Trace.t option ref = ref None
let accs : (string, acc) Hashtbl.t = Hashtbl.create 32

(* child-span time of each open span, innermost first *)
let open_spans : float ref list ref = ref []

(* spans stay in memory until exit; past this many events only the
   accounts grow, so a long traced run cannot exhaust memory *)
let max_events = 200_000

let acc name =
  match Hashtbl.find_opt accs name with
  | Some a -> a
  | None ->
      let a = { busy = 0.0; self = 0.0; calls = 0; top = false } in
      Hashtbl.replace accs name a;
      a

(** [span name f] is [f ()]; when tracing it also records a span named
    [name] (its layer is the part before the dot) and adds its duration
    to [name]'s account.  Untraced runs pay one match per call. *)
let span ?(args = []) name f =
  match !tracer with
  | None -> f ()
  | Some tr ->
      let kids = ref 0.0 in
      open_spans := kids :: !open_spans;
      let t0 = now () in
      let close () =
        let dur = now () -. t0 in
        open_spans := List.tl !open_spans;
        (match !open_spans with p :: _ -> p := !p +. dur | [] -> ());
        let a = acc name in
        a.top <- !open_spans = [];
        a.busy <- a.busy +. dur;
        a.self <- a.self +. dur -. !kids;
        a.calls <- a.calls + 1;
        if Trace.num_events tr < max_events then
          Trace.complete tr ~name
            ~cat:(List.hd (String.split_on_char '.' name))
            ~ts:(t0 *. 1e6) ~dur:(dur *. 1e6) ~pid:1 ~tid:1 ~args
      in
      match f () with
      | r ->
          close ();
          r
      | exception e ->
          close ();
          raise e

(* event and size counters, kept in traced and untraced runs alike *)
let counters : (string, float ref) Hashtbl.t = Hashtbl.create 32

let count name v =
  match Hashtbl.find_opt counters name with
  | Some r -> r := !r +. v
  | None -> Hashtbl.replace counters name (ref v)

let counter name =
  match Hashtbl.find_opt counters name with Some r -> !r | None -> 0.0

let words_allocated () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let geomean_pct (ratios : float list) =
  let n = float_of_int (List.length ratios) in
  (exp (List.fold_left (fun a r -> a +. log r) 0.0 ratios /. n) -. 1.0)
  *. 100.0

let shuffle rng (a : 'a array) =
  for k = Array.length a - 1 downto 1 do
    let j = rng (k + 1) in
    let t = a.(k) in
    a.(k) <- a.(j);
    a.(j) <- t
  done

let o2 = Lfi_core.Config.o2

let vconfig =
  { Verifier.default_config with
    sandbox_loads = o2.Lfi_core.Config.sandbox_loads;
    allow_exclusives = o2.Lfi_core.Config.allow_exclusives }

let insn_ratio (st : Rewriter.stats) =
  float_of_int st.Rewriter.output_insns /. float_of_int st.Rewriter.input_insns

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

(** A set-up workload.  [op k] runs op [k] (counted from 0 across
    rounds), checks its output, and returns its service time in
    seconds; it raises on a wrong output.  Every run covers at least one
    round, and a run timed in windows of whole rounds stops only at a
    round boundary, so every window has the same mix of ops. *)
type t = {
  round : int;
  op : int -> float;
  job : (int -> int) option;
      (** the job op [k] ran, for workloads whose ops are long runs of a
          few distinct jobs: each op is then a timing window of its own,
          compared only with the other runs of its job *)
  warm : unit -> unit;  (** after set-up, before timing *)
  finish : unit -> unit;  (** after timing: fold layer state into counters *)
  code_growth_pct : unit -> float;
      (** rewritten vs native instruction count of the code this
          workload builds or runs, geomean over its programs *)
  sim : unit -> float * float;
      (** [(sim_overhead_pct, sim_cycles_per_op)]; 0 where the workload
          simulates nothing *)
}

let nothing () = ()

(* --- build: MiniC source to a verified, packaged image --------------- *)

(* The registry programs: the 14 SPEC proxies, coremark, and the libbox
   libraries with their return trampoline. *)
let registry_programs : (string * Ast.program) list =
  List.map
    (fun (w : Common.t) -> (w.Common.short, w.Common.program))
    (Lfi_workloads.Registry.all @ [ Lfi_workloads.Coremark.workload ])
  @ List.map
      (fun (s : Api.lib_spec) ->
        (s.Api.l_short, Library.with_trampoline s.Api.l_program))
      Libs.all

(* A round is REGISTRY_PASSES passes over the registry and one seeded
   synthetic program.  A registry program builds in under a millisecond
   and the synthetic one in ~0.15 s, so the two kinds get similar shares
   of the round's ~0.3 s; the synthetic build is more than 1% of the ops,
   so p99 is the synthetic build.  A short round lets the fastest
   windows catch the machine's short fast moments. *)
let registry_passes = 4

(* SYNTH_FUNCS generated functions give ~200 KiB of rewritten text.
   Keep it well under ~1 MiB: there MiniC's [adr x10, g] global
   addressing goes out of range and the assembler rejects the program. *)
let synth_funcs = 400

let synth_mix : Ast.func =
  Ast.
    {
      name = "mix";
      params = [ ("a", Int); ("b", Int) ];
      ret = Int;
      body =
        [
          Decl ("t", Int, Bin (Xor, Var "a", Bin (Mul, Var "b", Int 31)));
          If (Bin (Lt, Var "t", Int 0), [ Return (Un (Neg, Var "t")) ], []);
          Return (Var "t");
        ];
    }

(** A program of many functions whose bodies come from the fuzz
    generator's MiniC statements. *)
let synth_program (rand : Random.State.t) : Ast.program =
  let module G = QCheck.Gen in
  let stmts = G.list_size (G.int_range 4 10) (Lfi_fuzz.Gen_minic.gen_stmt 2)
  and expr = Lfi_fuzz.Gen_minic.gen_expr 2 in
  let f k =
    let body = G.generate1 ~rand stmts in
    let result = G.generate1 ~rand expr in
    Ast.
      {
        name = Printf.sprintf "s%d" k;
        params = [ ("x", Int); ("y", Int); ("z", Int) ];
        ret = Int;
        body = body @ [ Return result ];
      }
  in
  let main =
    Ast.{ name = "main"; params = []; ret = Int; body = [ Return (Int 0) ] }
  in
  Ast.
    {
      globals = [ Zeroed ("g", 512) ];
      funcs = (synth_mix :: List.init synth_funcs f) @ [ main ];
    }

let build_program (name, prog) : Rewriter.stats =
  let native = span "minic.compile" (fun () -> Compile.compile prog) in
  let rewritten, st =
    span "core.rewrite" (fun () -> Rewriter.rewrite ~config:o2 native)
  in
  let img = span "arm64.assemble" (fun () -> Assemble.assemble rewritten) in
  let elf =
    span "elf.package" (fun () -> Elf.read (Elf.write (Elf.of_image img)))
  in
  let text =
    match Elf.text_segment elf with
    | Some s -> s
    | None -> fail "%s: no text segment after the ELF round trip" name
  in
  if not (Bytes.equal text.Elf.data img.Assemble.text) then
    fail "%s: the ELF round trip changed the text" name;
  (match
     span "verifier.verify" (fun () ->
         Verifier.verify ~config:vconfig ~origin:text.Elf.vaddr
           ~code:text.Elf.data ())
   with
  | Ok _ -> ()
  | Error _ ->
      count "verifier.rejects" 1.0;
      fail "%s: the verifier rejected the image" name);
  count "core.guards" (float_of_int st.Rewriter.guards);
  count "core.hoists" (float_of_int st.Rewriter.hoists);
  count "arm64.text_bytes" (float_of_int (Bytes.length img.Assemble.text));
  count "arm64.data_bytes" (float_of_int (Bytes.length img.Assemble.data));
  count "verifier.bytes" (float_of_int (Bytes.length text.Elf.data));
  st

let setup_build ~seed =
  let synth = ("synth", synth_program (Random.State.make [| seed |])) in
  let progs =
    Array.of_list
      (synth
      :: List.concat (List.init registry_passes (fun _ -> registry_programs)))
  in
  let rng = Serve.make_rng seed in
  let order = Array.init (Array.length progs) Fun.id in
  let growth = Hashtbl.create 32 in
  let op k =
    let i = k mod Array.length progs in
    if i = 0 then shuffle rng order;
    let ((name, _) as p) = progs.(order.(i)) in
    let t0 = now () in
    let st = build_program p in
    let dt = now () -. t0 in
    if List.mem_assoc name registry_programs then
      Hashtbl.replace growth name (insn_ratio st);
    dt
  in
  {
    round = Array.length progs;
    op;
    job = None;
    warm = nothing;
    finish = nothing;
    code_growth_pct =
      (fun () ->
        geomean_pct
          (List.map (fun (n, _) -> Hashtbl.find growth n) registry_programs));
    sim = (fun () -> (0.0, 0.0));
  }

(* --- spec-exec: run the SPEC proxies, native and LFI-O2 ------------- *)

type job = { j_name : string; j_lfi : bool; j_elf : Elf.t; j_expect : int }

let spec_config = { Runtime.default_config with verifier_config = vconfig }

let setup_spec ~seed =
  let growth = ref [] in
  let jobs =
    List.concat_map
      (fun (w : Common.t) ->
        let expect =
          match List.assoc_opt w.Common.short Expected.spec with
          | Some c -> c
          | None -> failwith ("no expected checksum for " ^ w.Common.short)
        in
        let native = Compile.compile w.Common.program in
        let rewritten, st = Rewriter.rewrite ~config:o2 native in
        growth := insn_ratio st :: !growth;
        let elf src = Elf.of_image (Assemble.assemble src) in
        [ { j_name = w.Common.short; j_lfi = false; j_elf = elf native;
            j_expect = expect };
          { j_name = w.Common.short; j_lfi = true; j_elf = elf rewritten;
            j_expect = expect } ])
      Lfi_workloads.Registry.all
    |> Array.of_list
  in
  let n = Array.length jobs in
  let rng = Serve.make_rng seed in
  let order = Array.init n Fun.id in
  let cycles = Array.make n 0.0 in
  let op k =
    let i = k mod n in
    if i = 0 then shuffle rng order;
    let j = order.(i) in
    let job = jobs.(j) in
    let t0 = now () in
    let rt, p =
      span "runtime.load" (fun () ->
          let rt = Runtime.create ~config:spec_config () in
          let personality =
            if job.j_lfi then Proc.Lfi else Proc.Native_in_lfi_runtime
          in
          (rt, Runtime.load rt ~personality job.j_elf))
    in
    let w0 = words_allocated () in
    let reason, _, cyc, insns =
      span "emulator.run" (fun () -> Runtime.run_one rt p)
    in
    let dt = now () -. t0 in
    count "emulator.alloc_words" (words_allocated () -. w0);
    (match reason with
    | Runtime.Exited c when c = job.j_expect -> ()
    | Runtime.Exited c ->
        fail "%s (%s) exited %d, expected %d" job.j_name
          (if job.j_lfi then "lfi-o2" else "native")
          c job.j_expect
    | Runtime.Killed why -> fail "%s killed: %s" job.j_name why);
    cycles.(j) <- cyc;
    let s = Runtime.metrics_snapshot rt in
    count "emulator.insns" (float_of_int insns);
    count "emulator.blk_execs" (float_of_int s.Metrics.blk_execs);
    count "emulator.blk_builds" (float_of_int s.Metrics.blk_builds);
    count "emulator.blk_insns" (float_of_int s.Metrics.blk_insns);
    count "emulator.deopts" (float_of_int s.Metrics.blk_deopts);
    dt
  in
  let growth = geomean_pct !growth in
  {
    round = n;
    op;
    job = Some (fun k -> order.(k mod n));
    warm = nothing;
    finish = nothing;
    code_growth_pct = (fun () -> growth);
    sim =
      (fun () ->
        (* jobs alternate native, lfi for each proxy *)
        let ratios =
          List.init (n / 2) (fun k -> cycles.((2 * k) + 1) /. cycles.(2 * k))
        in
        (geomean_pct ratios, Array.fold_left ( +. ) 0.0 cycles /. float_of_int n));
  }

(* --- serve-xzbox / serve-tiny: calls into a warm pool ---------------- *)

(* the pool `make serve-bench` serves xzbox with *)
let pool_size = 4

(* requests per round; sim_cycles_per_op averages the first round, so
   it depends on the seed alone, not on how many rounds ran *)
let serve_round = 1000

let check_xz name (args : Api.arg list) (r : Api.reply) =
  let ret = Int64.to_int r.Api.ret in
  match (name, args, r.Api.outs) with
  | "checksum", [ Api.In b; _ ], [] ->
      if ret <> Libs.ref_checksum b then fail "checksum: wrong hash %d" ret
  | "compress", [ Api.In src; _; _ ], [ out ] ->
      let expect = Libs.ref_compress src in
      if ret <> Bytes.length expect || Bytes.sub out 0 ret <> expect then
        fail "compress: wrong output (%d bytes)" ret
  | "expand", [ _; Api.I len; Api.I seed ], [ out ] ->
      let b, h =
        Libs.ref_expand ~len:(Int64.to_int len) ~seed:(Int64.to_int seed)
      in
      if ret <> h || out <> b then fail "expand: wrong output"
  | "dict_sum", [], [] ->
      if ret <> Expected.dict_sum then
        fail "dict_sum: %d, expected %d" ret Expected.dict_sum
  | _ -> fail "%s: unexpected reply shape" name

(* The tiny stream pokes a nonzero value into a global on each of the
   pool's instances in turn, then peeks it on each of them again.  The
   pool dispatches in strict rotation, so ops alternate in blocks of
   POOL_SIZE pokes and POOL_SIZE peeks, and every peek runs on an
   instance whose last call was a poke, undone by the reset after it.
   The peek must read the reset baseline 0.  [check_tiny] also checks
   that the peek did land on a poked instance, so a change in dispatch
   order fails ops instead of making the check vacuous. *)
let tiny_request rng k : string * Api.arg list =
  if k / pool_size mod 2 = 0 then
    ("poke_global", [ Api.I (Int64.of_int (1 + rng 0x3FFFFFFF)) ])
  else ("peek_global", [])

(* [poked.(i)]: instance [i]'s last call was a poke *)
let check_tiny (pool : Pool.t) poked inst name (r : Api.reply) =
  let rec slot i =
    if i = Array.length pool.Pool.instances then fail "%s: unknown instance" name
    else if pool.Pool.instances.(i) == inst then i
    else slot (i + 1)
  in
  let i = slot 0 in
  if name = "poke_global" then poked.(i) <- true
  else begin
    if not poked.(i) then
      fail "peek_global on instance %d, whose last call was not a poke" i;
    poked.(i) <- false;
    if r.Api.ret <> 0L then
      fail "peek_global returned %Ld: a poke leaked through reset" r.Api.ret
  end

(* one request on the next instance: (that instance, the reply) *)
let serve_call pool name args =
  match !tracer with
  | None -> Pool.dispatch pool name args
  | Some _ -> (
      (* the two halves of Pool.dispatch_on, timed apart *)
      match span "sched.select" (fun () -> Pool.next_instance pool) with
      | None -> (None, Error Api.No_instances)
      | Some inst ->
          let w0 = words_allocated () in
          let r = span "libbox.call" (fun () -> Instance.call inst name args) in
          count "libbox.alloc_words" (words_allocated () -. w0);
          if inst.Instance.alive then
            span "libbox.reset" (fun () -> Instance.reset inst);
          (Some inst, r))

let setup_serve ~tiny ~seed =
  let spec = Libs.xzbox in
  let exports =
    List.map (fun e -> e.Api.e_name) spec.Api.l_exports
    @ Option.to_list spec.Api.l_init
  in
  let lib, pool =
    span "libbox.create" (fun () ->
        let lib =
          Library.create ~name:spec.Api.l_short ~exports spec.Api.l_program
        in
        ( lib,
          Pool.create ~arena:spec.Api.l_arena ?init:spec.Api.l_init
            ~size:pool_size lib ))
  in
  let weighted =
    List.filter (fun e -> e.Api.e_weight > 0) spec.Api.l_exports
  in
  let poked = Array.make pool_size false in
  let call name args =
    match serve_call pool name args with
    | Some inst, Ok r ->
        if tiny then check_tiny pool poked inst name r
        else check_xz name args r;
        r
    | _, Ok _ -> fail "%s: a reply without an instance" name
    | _, Error e -> fail "%s: %s" name (Api.error_to_string e)
  in
  let rng = Serve.make_rng seed in
  let op k =
    let name, args =
      if tiny then tiny_request rng k
      else
        let e = Serve.pick_export rng weighted in
        (e.Api.e_name, e.Api.e_gen ~rng)
    in
    let t0 = now () in
    let r = call name args in
    let dt = now () -. t0 in
    let st = r.Api.stats in
    count "libbox.calls" 1.0;
    count "libbox.call_insns" (float_of_int st.Api.call_insns);
    count "libbox.gate_cycles" st.Api.gate_cycles;
    if k < serve_round then count "sim.round_cycles" st.Api.total_cycles;
    dt
  in
  let rt = pool.Pool.rt in
  let totals () =
    Array.fold_left
      (fun (r, p) (i : Instance.t) ->
        (r + i.Instance.resets, p + i.Instance.pages_restored))
      (0, 0) pool.Pool.instances
  in
  let base = ref (Runtime.metrics_snapshot rt, totals ()) in
  let warm () =
    (* lower every instance's blocks before timing: each export of the
       stream a few times on each instance, drawn apart from the timed
       stream *)
    let wrng = Serve.make_rng 0x3a3a and traced = !tracer in
    tracer := None;
    for k = 0 to (8 * pool_size) - 1 do
      if tiny then
        let name, args = tiny_request wrng k in
        ignore (call name args)
      else
        List.iter
          (fun e -> ignore (call e.Api.e_name (e.Api.e_gen ~rng:wrng)))
          weighted
    done;
    tracer := traced;
    (* the runtime layer's load of the library image, on its own *)
    for _ = 1 to 8 do
      span "runtime.load" (fun () ->
          let rt =
            Runtime.create
              ~config:{ Runtime.default_config with verify = false }
              ()
          in
          ignore (Runtime.load rt ~personality:Proc.Lfi lib.Library.elf))
    done;
    base := (Runtime.metrics_snapshot rt, totals ())
  in
  let finish () =
    let s0, (r0, p0) = !base in
    let s1 = Runtime.metrics_snapshot rt and r1, p1 = totals () in
    let d f = float_of_int (f s1 - f s0) in
    count "emulator.insns" (counter "libbox.call_insns");
    count "emulator.blk_execs" (d (fun s -> s.Metrics.blk_execs));
    count "emulator.blk_builds" (d (fun s -> s.Metrics.blk_builds));
    count "emulator.blk_insns" (d (fun s -> s.Metrics.blk_insns));
    count "emulator.deopts" (d (fun s -> s.Metrics.blk_deopts));
    count "libbox.resets" (float_of_int (r1 - r0));
    count "libbox.pages_restored" (float_of_int (p1 - p0))
  in
  {
    round = serve_round;
    op;
    job = None;
    warm;
    finish;
    code_growth_pct =
      (fun () ->
        (* the code this workload runs: xzbox, native vs rewritten *)
        let native =
          Compile.compile (Library.with_trampoline spec.Api.l_program)
        in
        geomean_pct [ insn_ratio (snd (Rewriter.rewrite ~config:o2 native)) ]);
    sim =
      (fun () ->
        (0.0, counter "sim.round_cycles" /. float_of_int serve_round));
  }

(* ------------------------------------------------------------------ *)
(* The measured run                                                    *)
(* ------------------------------------------------------------------ *)

type stop = Seconds of float | Rounds of int

let median (xs : float list) =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Service times go into histograms of 1%-wide log buckets from 100 ns
   to 100 s: no allocation per op.  Only a bounded number of histograms
   is ever live (see [retain]), so the harness's memory is small and
   fixed, whatever the run's length or speed. *)
let bucket_base = 1e-7
let bucket_growth = 1.01
let buckets = 2_090

let bucket_of dt =
  let b = int_of_float (log (dt /. bucket_base) /. log bucket_growth) in
  max 0 (min (buckets - 1) b)

(* nearest-rank percentile, at the middle of its bucket *)
let percentile (h : int array) ~total p =
  let rank = max 1 (int_of_float (Float.ceil (p *. float_of_int total))) in
  let rec go b seen =
    let seen = seen + h.(b) in
    if seen >= rank || b = buckets - 1 then b else go (b + 1) seen
  in
  bucket_base *. (bucket_growth ** (float_of_int (go 0 0) +. 0.5))

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* The timed phase is cut into windows of whole rounds lasting at least
   WINDOW_S each (or, with [job], one window per op): service times per
   window, in a histogram. *)
let window_s = 0.25

type window = {
  hist : int array;  (** service times, by bucket *)
  mutable passed : int;
  mutable secs : float;
}

let throughput (w : window) = ratio (float_of_int w.passed) w.secs

(* The machine's speed drifts (NOTES.md): it has fast moments even in
   slow periods, and the fastest moments of a run vary far less from run
   to run than its mean.  So the timings pool the run's fastest windows:
   the fastest FASTEST_SHARE of them, and more if needed to pool at least
   MIN_POOLED_OPS ops, so that at least 10 service times lie beyond p99. *)
let fastest_share = 0.05
let min_pooled_ops = 1000
let share_of n = max 1 (int_of_float (Float.ceil (fastest_share *. float_of_int n)))

(** The windows the timings pool, from windows sorted fastest first: the
    shortest prefix of at least [count] windows and MIN_POOLED_OPS ops,
    or all of them. *)
let selection ~count (sorted : window list) =
  let rec go taken ops = function
    | w :: tl when taken < count || ops < min_pooled_ops ->
        w :: go (taken + 1) (ops + w.passed) tl
    | _ -> []
  in
  go 0 0 sorted

(** [retain ~count kept w] is [kept] (fastest first) with [w] added,
    cut to [selection ~count], and the windows cut off.  Any later
    selection of at most [count] windows lies within what is kept, so a
    run keeps only as many histograms as its final selection can need. *)
let retain ~count kept w =
  let rec insert = function
    | x :: tl when throughput x >= throughput w -> x :: insert tl
    | l -> w :: l
  in
  let all = insert kept in
  let keep = selection ~count all in
  (keep, List.filteri (fun i _ -> i >= List.length keep) all)

type run = {
  w : t;
  setup_times : float list;
  ops : int;
  failed : int;
  job_windows : (int * float) list;  (** with [job]: job, service time *)
  kept : window list;
      (** without [job]: the fastest windows, fastest first, enough to
          hold [selection ~count:(share_of n_windows)] *)
  n_windows : int;
  tp_range : float * float;  (** slowest and fastest window, ops/s *)
  elapsed : float;
}

(** Set the workload up and warm it, then run whole rounds until
    [stop].  The other [setups - 1] set-ups are timed and thrown away;
    with [Seconds s] one runs every [s / setups] seconds, at a window
    boundary and outside every window.  Set-ups a few milliseconds long,
    run back to back, would all fall into one of the machine's fast or
    slow phases (NOTES.md); spread over the run, their median is the
    run's. *)
let measure ~(setup : unit -> t) ~setups ~stop : run =
  let times = ref [] in
  let timed_setup () =
    Gc.compact ();
    let t0 = now () in
    let w = setup () in
    times := (now () -. t0) :: !times;
    w
  in
  let extra_setup () =
    ignore (timed_setup ());
    Gc.compact ()
  in
  let w = timed_setup () in
  w.warm ();
  Gc.compact ();
  let failed = ref 0 and k = ref 0 in
  (* the most windows the run can have: each lasts a round and WINDOW_S
     at least, bar the last *)
  let count =
    share_of
      (match stop with
      | Rounds r -> r
      | Seconds s -> int_of_float (s /. window_s) + 2)
  in
  let spare = ref [] in
  let new_window () =
    match !spare with
    | h :: tl ->
        spare := tl;
        Array.fill h 0 buckets 0;
        { hist = h; passed = 0; secs = 0.0 }
    | [] -> { hist = Array.make buckets 0; passed = 0; secs = 0.0 }
  in
  let cur = ref (new_window ()) and kept = ref [] and job_windows = ref [] in
  let n_windows = ref 0 and tp_range = ref (infinity, 0.0) in
  let t0 = now () in
  let t_window = ref t0 in
  let go () =
    match stop with
    | Rounds r -> !k < r * w.round
    | Seconds s ->
        (* one-op windows need no whole rounds after the first *)
        (if w.job = None then !k mod w.round <> 0 else !k < w.round)
        || now () -. t0 < s
  in
  let setup_due () =
    match stop with
    | Rounds _ -> false
    | Seconds s ->
        let n = List.length !times in
        n < setups && now () -. t0 >= s *. float_of_int n /. float_of_int setups
  in
  while go () do
    (match span ~args:[ ("op", Trace.Int !k) ] "op" (fun () -> w.op !k) with
    | dt -> (
        match w.job with
        | Some job -> job_windows := (job !k, dt) :: !job_windows
        | None ->
            let b = bucket_of dt in
            !cur.hist.(b) <- !cur.hist.(b) + 1;
            !cur.passed <- !cur.passed + 1)
    | exception e ->
        incr failed;
        if !failed <= 5 then
          Printf.eprintf "op %d failed: %s\n%!" !k
            (match e with Check m -> m | e -> Printexc.to_string e));
    incr k;
    if w.job = None && !k mod w.round = 0 then begin
      let t = now () in
      if t -. !t_window >= window_s || not (go ()) then begin
        !cur.secs <- t -. !t_window;
        let tp = throughput !cur and lo, hi = !tp_range in
        tp_range := (Float.min lo tp, Float.max hi tp);
        incr n_windows;
        let keep, cut = retain ~count !kept !cur in
        kept := keep;
        List.iter (fun (c : window) -> spare := c.hist :: !spare) cut;
        cur := new_window ();
        if setup_due () then extra_setup ();
        t_window := now ()
      end
    end
    else if w.job <> None && setup_due () then extra_setup ()
  done;
  let elapsed = now () -. t0 in
  w.finish ();
  while List.length !times < setups do
    extra_setup ()
  done;
  { w; setup_times = !times; ops = !k; failed = !failed;
    job_windows = !job_windows; kept = !kept; n_windows = !n_windows;
    tp_range = !tp_range; elapsed }

(* ------------------------------------------------------------------ *)
(* Metrics and output                                                  *)
(* ------------------------------------------------------------------ *)

let per_call name =
  let a = acc name in
  ratio a.busy (float_of_int a.calls)

(* The pooled fastest windows: [selection] of the round windows, or with
   [job], the fastest FASTEST_SHARE of each job's runs (best-of-N per
   program; too few ops for MIN_POOLED_OPS). *)
let fastest (r : run) : window =
  let pool = { hist = Array.make buckets 0; passed = 0; secs = 0.0 } in
  let add (w : window) =
    Array.iteri (fun b c -> pool.hist.(b) <- pool.hist.(b) + c) w.hist;
    pool.passed <- pool.passed + w.passed;
    pool.secs <- pool.secs +. w.secs
  in
  List.iter add (selection ~count:(share_of r.n_windows) r.kept);
  let jobs = List.sort_uniq compare (List.map fst r.job_windows) in
  List.iter
    (fun j ->
      let times =
        List.filter_map (fun (j', dt) -> if j' = j then Some dt else None)
          r.job_windows
        |> List.sort compare
      in
      List.iteri
        (fun i dt ->
          if i < share_of (List.length times) then begin
            let b = bucket_of dt in
            pool.hist.(b) <- pool.hist.(b) + 1;
            pool.passed <- pool.passed + 1;
            pool.secs <- pool.secs +. dt
          end)
        times)
    jobs;
  pool

(* end-to-end metrics, plus the simulated ones: (name, unit, value) *)
let end_to_end (r : run) =
  let best = fastest r in
  let pct p =
    if best.passed = 0 then 0.0
    else percentile best.hist ~total:best.passed p *. 1e6
  in
  let sim_overhead, sim_cycles = r.w.sim () in
  [
    ("setup_s", "s", median r.setup_times);
    ("ops_per_s", "1/s", throughput best);
    ("latency_p50_us", "us", pct 0.50);
    ("latency_p99_us", "us", pct 0.99);
    ( "peak_heap_mb",
      "MB",
      float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
      /. 1e6 );
    ("code_growth_pct", "%", r.w.code_growth_pct ());
    ("emulator.sim_overhead_pct", "%", sim_overhead);
    ("emulator.sim_cycles_per_op", "cycles", sim_cycles);
  ]

(* per-layer metrics; the times are 0 in an untraced run *)
let layer_metrics (r : run) =
  let per_op name = ratio (counter name) (float_of_int r.ops) in
  let calls = counter "libbox.calls" in
  let run_busy = (acc "emulator.run").busy +. (acc "libbox.call").busy in
  [
    ("minic.compile_s", "s", per_call "minic.compile");
    ("core.rewrite_s", "s", per_call "core.rewrite");
    ("core.guards", "count", per_op "core.guards");
    ("core.hoists", "count", per_op "core.hoists");
    ("arm64.assemble_s", "s", per_call "arm64.assemble");
    ("arm64.text_bytes", "bytes", per_op "arm64.text_bytes");
    ("arm64.data_bytes", "bytes", per_op "arm64.data_bytes");
    ("elf.package_s", "s", per_call "elf.package");
    ("verifier.verify_s", "s", per_call "verifier.verify");
    ( "verifier.mb_per_s",
      "MB/s",
      ratio (counter "verifier.bytes") ((acc "verifier.verify").busy *. 1e6) );
    ("verifier.rejects", "count", counter "verifier.rejects");
    ("runtime.load_s", "s", per_call "runtime.load");
    ("emulator.run_s", "s", per_call "emulator.run");
    ("emulator.insns", "count", per_op "emulator.insns");
    ( "emulator.minsns_per_s",
      "Minsn/s",
      ratio (counter "emulator.insns") (run_busy *. 1e6) );
    ( "emulator.alloc_words_per_insn",
      "words",
      ratio
        (counter "emulator.alloc_words" +. counter "libbox.alloc_words")
        (counter "emulator.insns") );
    ( "emulator.block_hit_rate",
      "ratio",
      ratio
        (counter "emulator.blk_execs" -. counter "emulator.blk_builds")
        (counter "emulator.blk_execs") );
    ( "emulator.avg_block_len",
      "insns",
      ratio (counter "emulator.blk_insns") (counter "emulator.blk_execs") );
    ("emulator.deopts", "count", per_op "emulator.deopts");
    ("sched.select_s", "s", per_call "sched.select");
    ("libbox.call_s", "s", per_call "libbox.call");
    ("libbox.call_insns", "count", ratio (counter "libbox.call_insns") calls);
    ("libbox.reset_s", "s", per_call "libbox.reset");
    ( "libbox.pages_restored_per_reset",
      "pages",
      ratio (counter "libbox.pages_restored") (counter "libbox.resets") );
    ( "libbox.gate_cycles_per_call",
      "cycles",
      ratio (counter "libbox.gate_cycles") calls );
    ( "libbox.alloc_words_per_call",
      "words",
      ratio (counter "libbox.alloc_words") calls );
    ("libbox.create_s", "s", per_call "libbox.create");
  ]

(* the per-span table: calls, busy and self time, and self time as a
   share of all op time; spans outside any op belong to set-up *)
let print_layer_table () =
  let op = acc "op" in
  Printf.printf "  %-20s %9s %12s %12s %12s %7s\n" "span" "calls" "busy_s"
    "self_s" "per_call_us" "share";
  Hashtbl.fold (fun n a l -> (n, a) :: l) accs []
  |> List.sort compare
  |> List.iter (fun (n, a) ->
         Printf.printf "  %-20s %9d %12.6f %12.6f %12.2f %7s\n" n a.calls
           a.busy a.self
           (ratio a.busy (float_of_int a.calls) *. 1e6)
           (if a.top && n <> "op" then "set-up"
            else Printf.sprintf "%.1f%%" (ratio a.self op.busy *. 100.0)));
  Printf.printf "  counts:";
  Hashtbl.fold (fun n r l -> (n, !r) :: l) counters []
  |> List.sort compare
  |> List.iter (fun (n, v) -> Printf.printf " %s=%.0f" n v);
  print_newline ()

let json_num v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else failwith "non-finite metric"

(* set-ups per run, so that setup_s is the median of many *)
let default_setups = 25

let run_workload ~workload ~seed ~setups ~stop ~trace_file =
  let setups = Option.value setups ~default:default_setups in
  (match trace_file with
  | None -> ()
  | Some _ ->
      let tr = Trace.create () in
      Trace.process_name tr ~pid:1 ~name:("perfbench " ^ workload);
      Trace.thread_name tr ~pid:1 ~tid:1 ~name:"client";
      tracer := Some tr);
  let setup () =
    match workload with
    | "build" -> setup_build ~seed
    | "spec-exec" -> setup_spec ~seed
    | "serve-xzbox" -> setup_serve ~tiny:false ~seed
    | "serve-tiny" -> setup_serve ~tiny:true ~seed
    | w -> failwith ("unknown workload " ^ w)
  in
  let r = measure ~setup ~setups ~stop in
  let e2e = end_to_end r in
  Printf.printf
    "%s seed=%d ops=%d failed=%d rounds=%d (of %d ops) elapsed=%.3fs\n\
    \  set-ups (s):%s\n"
    workload seed r.ops r.failed (r.ops / r.w.round) r.w.round r.elapsed
    (String.concat "" (List.rev_map (Printf.sprintf " %.4f") r.setup_times));
  (match (r.n_windows, r.job_windows) with
  | 0, [] -> ()
  | 0, runs ->
      let dts = List.map snd runs in
      Printf.printf "  %d runs, %.4g to %.4g s each\n" (List.length dts)
        (List.fold_left Float.min infinity dts)
        (List.fold_left Float.max 0.0 dts)
  | n, _ ->
      let pooled = selection ~count:(share_of n) r.kept in
      Printf.printf "  %d windows, %.4g to %.4g ops/s; pooled the %d fastest, %d ops\n"
        n (fst r.tp_range) (snd r.tp_range) (List.length pooled)
        (List.fold_left (fun a (w : window) -> a + w.passed) 0 pooled));
  List.iter (fun (n, u, v) -> Printf.printf "  %-26s %16.4f %s\n" n v u) e2e;
  (match (!tracer, trace_file) with
  | Some tr, Some file ->
      Trace.write_file tr file;
      print_layer_table ();
      Printf.printf "  trace: %s (%d events)\n" file (Trace.num_events tr)
  | _ -> ());
  let metric (n, u, v) =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_num v) u
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"setups\": %d, \
     \"metrics\": {%s}}\n"
    (r.failed = 0 && r.ops > 0)
    r.ops r.failed (List.length r.setup_times)
    (String.concat ", " (List.map metric (e2e @ layer_metrics r)))

(* ------------------------------------------------------------------ *)
(* Expected outputs, from the reference interpreter                    *)
(* ------------------------------------------------------------------ *)

let record () =
  let interp prog =
    Int64.to_int (fst (Interp.run ~mem_size:(1 lsl 26) ~fuel:max_int prog))
  in
  print_string
    "(* Expected outputs, recorded once by [perfbench.exe record] with the\n\
    \   reference interpreter Lfi_minic.Interp, never with the compiler\n\
    \   under test: the SPEC proxies' exit checksums and the value of\n\
    \   xzbox's dict_sum export. *)\n\n\
     let spec : (string * int) list =\n\
    \  [\n";
  List.iter
    (fun (w : Common.t) ->
      Printf.printf "    (%S, %d);\n%!" w.Common.short (interp w.Common.program))
    Lfi_workloads.Registry.all;
  print_string "  ]\n\n";
  (* dict_sum after init, as a whole program *)
  let p = Libs.xzbox_program in
  let main =
    Ast.Dsl.(func "main" [ expr (call "init" []); ret (call "dict_sum" []) ])
  in
  let funcs = List.filter (fun f -> f.Ast.name <> "main") p.Ast.funcs in
  Printf.printf "let dict_sum = %d\n"
    (interp { p with Ast.funcs = funcs @ [ main ] })

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: perfbench.exe WORKLOAD --seed N (--seconds S | --rounds R) \
     [--setups K] [--trace FILE]\n\
    \       perfbench.exe record";
  exit 2

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "record" ] -> record ()
  | workload :: rest ->
      let seed = ref 1 and setups = ref None and stop = ref (Seconds 10.0) in
      let trace_file = ref None in
      let rec parse = function
        | "--seed" :: v :: tl -> seed := int_of_string v; parse tl
        | "--seconds" :: v :: tl -> stop := Seconds (float_of_string v); parse tl
        | "--rounds" :: v :: tl -> stop := Rounds (int_of_string v); parse tl
        | "--setups" :: v :: tl -> setups := Some (int_of_string v); parse tl
        | "--trace" :: v :: tl -> trace_file := Some v; parse tl
        | [] -> ()
        | _ -> usage ()
      in
      parse rest;
      if Option.value !setups ~default:1 < 1 then usage ();
      run_workload ~workload ~seed:!seed ~setups:!setups ~stop:!stop
        ~trace_file:!trace_file
  | [] -> usage ()
