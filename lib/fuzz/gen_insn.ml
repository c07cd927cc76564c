(** QCheck generators for the ARM64 instruction subset.

    [insn] is derived from {!Lfi_arm64.Isa.table}, the one list of the
    encodings the subset admits.  It picks a row, fills each of the
    row's fields with raw bits and decodes the word.  A field gets
    uniform bits or an edge value (0, 1, all ones, the sign bit); an
    enum field mostly takes one of its codes.  A word that decodes to
    [udf] outside the [udf] row is drawn again from a fresh row, so no
    row can hang the generator.  Nothing is filtered on
    {!Lfi_arm64.Isa.encode}: decode, encode and decode again is what
    the round-trip properties check.  A new row is drawn as soon as it
    is in the table.

    The fuzzing engines ({!Equiv}, {!Soundness}, {!Complete}) and the
    unit tests draw from it; the differential streams below add their
    own memory forms through x19/x20. *)

open Lfi_arm64
module G = QCheck.Gen

let rows = Array.of_list (List.concat_map snd Isa.table)

(* raw bits for one field *)
let field_bits (Isa.F f) : int G.t =
  let ones = (1 lsl f.Isa.len) - 1 in
  let raw =
    G.frequency
      [ (3, G.int_bound ones); (1, G.oneofl [ 0; 1; ones; 1 lsl (f.len - 1) ]) ]
  in
  match f.kind with
  | Isa.Enum e -> G.frequency [ (3, G.oneofl (List.map snd e.codes)); (1, raw) ]
  | _ -> raw

(** An instruction of the subset: the decoding of a word built from a
    random row of the table. *)
let rec insn : Insn.t G.t =
 fun rand ->
  let r = rows.(Random.State.int rand (Array.length rows)) in
  let word =
    List.fold_left
      (fun w (Isa.F f as field) ->
        w lor Isa.place (field_bits field rand) f.Isa.rparts)
      r.Isa.fixed r.fields
  in
  match Isa.decode word with
  | Insn.Udf _ when r.name <> "udf" -> insn rand
  | i -> i

let arbitrary_insn =
  QCheck.make ~print:Printer.to_string insn

(* ------------------------------------------------------------------ *)
(* Straight-line streams for differential execution (DESIGN.md §5d)   *)
(* ------------------------------------------------------------------ *)

(* The equivalence engine runs the same stream natively and rewritten,
   at a different sandbox base, and compares architectural state — so
   a stream instruction must never produce a value that legitimately
   depends on the load address.  Data registers are drawn from a pool
   that excludes the scheme's reserved registers (x18, x21-x24), the
   link register, and the two address registers the stream's memory
   accesses go through: x19 (always holds a pointer into the data
   section) and x20 (a small index).  pc-relative [adr] and branches
   are excluded. *)

let stream_pool = [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12; 13; 14; 15; 16; 17; 25; 26; 27; 28; 29 ]

let in_stream_pool (i : Insn.t) =
  (match i with
  | Insn.Adr _ -> false (* value depends on the load address *)
  | _ -> true)
  && (not (Insn.is_branch i))
  && (not (Insn.writes_sp i))
  && List.for_all
       (fun r ->
         match Reg.number_of r with
         | Some n -> List.mem n stream_pool
         | None -> (match r with Reg.ZR _ -> true | _ -> false))
       (Insn.regs_mentioned i)

(** Rejection-sample [g] until [pred] holds (a draw of {!insn} meets
    the stream's register pool within a few tries). *)
let rec such_that pred g : 'a G.t =
 fun rand ->
  let v = g rand in
  if pred v then v else such_that pred g rand

let width = G.oneofl [ Reg.W32; Reg.W64 ]

let fp_size3 = G.oneofl [ Reg.Fp.S; Reg.Fp.D; Reg.Fp.Q ]

let fpreg size = G.map (fun n -> Reg.Fp.v size n) (G.int_range 0 31)

let mem_size = G.oneofl ([ B; H; W; X ] : Insn.mem_size list)

let x19 = Reg.R (Reg.W64, 19)
let w20 = Reg.R (Reg.W32, 20)
let x20 = Reg.R (Reg.W64, 20)

(** Addressing through the stream's pointer register x19 (optionally
    indexed by x20, which holds a small constant).  Offsets are kept
    small enough that x19's pre/post drift over a whole stream stays
    well inside the data section. *)
let stream_addr scale =
  let open G in
  let unit = 1 lsl scale in
  frequency
    [
      (2, return (Insn.Imm_off (x19, 0)));
      (3, map (fun o -> Insn.Imm_off (x19, o * unit)) (int_range 0 120));
      (2, map (fun o -> Insn.Imm_off (x19, o)) (int_range (-255) 255));
      (1, map (fun o -> Insn.Pre (x19, o)) (int_range (-128) 128));
      (1, map (fun o -> Insn.Post (x19, o)) (int_range (-128) 128));
      ( 2,
        oneofl [ 0; scale ] >>= fun a ->
        oneofl
          [
            Insn.Reg_off (x19, x20, Insn.Uxtx, a);
            Insn.Reg_off (x19, x20, Insn.Sxtx, a);
            Insn.Reg_off (x19, w20, Insn.Uxtw, a);
            Insn.Reg_off (x19, w20, Insn.Sxtw, a);
          ] );
    ]

let stream_dreg w = G.map (fun n -> Reg.R (w, n)) (G.oneofl stream_pool)

let stream_mem =
  let open G in
  let scale_of (sz : Insn.mem_size) =
    match sz with Insn.B -> 0 | Insn.H -> 1 | Insn.W -> 2 | Insn.X -> 3
  in
  oneof
    [
      (* scalar load *)
      ( mem_size >>= fun sz ->
        stream_addr (scale_of sz) >>= fun addr ->
        bool >>= fun signed ->
        match (sz, signed) with
        | Insn.X, _ ->
            map (fun d -> Insn.Ldr { sz; signed = false; dst = d; addr })
              (stream_dreg Reg.W64)
        | Insn.W, true ->
            map (fun d -> Insn.Ldr { sz; signed = true; dst = d; addr })
              (stream_dreg Reg.W64)
        | _, true ->
            pair (stream_dreg Reg.W32) (stream_dreg Reg.W64) >>= fun (d32, d64) ->
            oneofl [ Insn.Ldr { sz; signed = true; dst = d32; addr };
                     Insn.Ldr { sz; signed = true; dst = d64; addr } ]
        | _, false ->
            map (fun d -> Insn.Ldr { sz; signed = false; dst = d; addr })
              (stream_dreg Reg.W32) );
      (* scalar store *)
      ( mem_size >>= fun sz ->
        stream_addr (scale_of sz) >>= fun addr ->
        let w = if sz = Insn.X then Reg.W64 else Reg.W32 in
        map (fun s -> Insn.Str { sz; src = s; addr }) (stream_dreg w) );
      (* integer pair *)
      ( width >>= fun w ->
        let unit = match w with Reg.W64 -> 8 | Reg.W32 -> 4 in
        pair (stream_dreg w) (stream_dreg w) >>= fun (r1, r2) ->
        pair (int_range (-16) 16) bool >>= fun (o, ld) ->
        oneofl
          [ Insn.Imm_off (x19, o * unit); Insn.Pre (x19, o * unit);
            Insn.Post (x19, o * unit) ]
        >>= fun addr ->
        if ld then return (Insn.Ldp { w; r1; r2; addr })
        else return (Insn.Stp { w; r1; r2; addr }) );
      (* fp load/store *)
      ( fp_size3 >>= fun sz ->
        let scale =
          match sz with Reg.Fp.S -> 2 | Reg.Fp.D -> 3 | Reg.Fp.Q -> 4
        in
        stream_addr scale >>= fun addr ->
        pair (fpreg sz) bool >>= fun (r, ld) ->
        if ld then return (Insn.Fldr { dst = r; addr })
        else return (Insn.Fstr { src = r; addr }) );
      (* fp pair *)
      ( fp_size3 >>= fun sz ->
        let unit =
          match sz with Reg.Fp.S -> 4 | Reg.Fp.D -> 8 | Reg.Fp.Q -> 16
        in
        pair (fpreg sz) (fpreg sz) >>= fun (r1, r2) ->
        pair (int_range (-16) 16) bool >>= fun (o, ld) ->
        oneofl
          [ Insn.Imm_off (x19, o * unit); Insn.Pre (x19, o * unit);
            Insn.Post (x19, o * unit) ]
        >>= fun addr ->
        if ld then return (Insn.Fldp { r1; r2; addr })
        else return (Insn.Fstp { r1; r2; addr }) );
      (* exclusives through x19 *)
      ( mem_size >>= fun sz ->
        let w = if sz = Insn.X then Reg.W64 else Reg.W32 in
        stream_dreg w >>= fun r ->
        oneof
          [
            return (Insn.Ldxr { sz; dst = r; base = x19 });
            map
              (fun status -> Insn.Stxr { sz; status; src = r; base = x19 })
              (stream_dreg Reg.W32);
            return (Insn.Ldar { sz; dst = r; base = x19 });
            return (Insn.Stlr { sz; src = r; base = x19 });
          ] );
    ]

(** One instruction of a differential stream: data processing over the
    pool registers, or a memory access through x19/x20. *)
let stream_insn : Insn.t G.t =
  let data_processing i =
    in_stream_pool i && (not (Insn.is_memory i)) && not (Insn.is_system i)
  in
  G.frequency [ (9, such_that data_processing insn); (4, stream_mem) ]

(** A whole straight-line stream (no branches, no pc-relative values,
    no sp) of 5-40 instructions. *)
let stream : Insn.t list G.t =
  G.(int_range 5 40 >>= fun n -> list_repeat n stream_insn)

(** {!stream} without the forms the rewriter refuses ([ldp] into one
    register twice), from the same draws: the input of the engines that
    sandbox what they generate. *)
let sandbox_stream : Insn.t list G.t =
  G.map (List.filter (fun i -> not (Insn.ldp_overlap i))) stream
