(** Enumeration strata, derived from the ISA table (DESIGN.md §5i).

    Each row of {!Lfi_arm64.Isa.table} is one stratum.  A row states
    its fixed bits and every operand field, and the two cover all 32
    bits of the word, so a stratum's words are the row's fixed bits
    combined with a cross product of raw values per field, chosen by
    the field's kind:

    - a general register: the reserved and boundary numbers 0, 18, 21,
      22, 30 and 31 at [Smoke], all 32 at [Full];
    - an FP register: 0 and 31 (no rule reads FP register numbers);
    - an enum, width or bit field of up to 6 bits, and any field of up
      to 4 bits: every raw code, reserved ones included; a wider enum
      (the system registers): its codes and both ends of its range;
    - an immediate: both ends of its raw range and of its value range,
      0 and ±1, and the raw values either side of each
      {!Lfi_core.Layout} bound the verifier checks, at each access
      scale (1 to 16 bytes);
    - ignored bits: all zeros and all ones.

    Reserved codes and out-of-row immediates make words that decode to
    another row or to nothing; they are candidates like any other.  The
    one raw-word stratum holds encodings no row claims.  Words are
    generated lazily, so a [Full] row of millions of words is never held
    in memory; both tiers are deterministic. *)

open Lfi_arm64
module Layout = Lfi_core.Layout

type tier = Smoke | Full

let tier_name = function Smoke -> "smoke" | Full -> "full"

type stratum = { name : string; desc : string; words : tier -> int Seq.t }

let registers = function
  | Smoke -> [ 0; 18; 21; 22; 30; 31 ]
  | Full -> List.init 32 Fun.id

let bounds =
  Layout.
    [ max_index_immediate; max_sp_drift; max_mem_immediate; guard_size ]

(* Raw immediates of a [len]-bit field: both ends of the raw range and
   of the value range, the values next to zero, and the raw values
   either side of each bound scaled down by each access size, negated
   too for a signed field. *)
let immediates ~len ~signed =
  let lo, hi =
    if signed then (-(1 lsl (len - 1)), (1 lsl (len - 1)) - 1)
    else (0, (1 lsl len) - 1)
  in
  let near =
    List.concat_map
      (fun b ->
        List.concat_map
          (fun s ->
            let r = b asr s in
            [ r - 1; r; r + 1 ])
          [ 0; 1; 2; 3; 4 ])
      bounds
  in
  let near = if signed then near @ List.map Int.neg near else near in
  [ 0; 1; -1; lo; hi ] @ near
  |> List.filter (fun v -> v >= lo && v <= hi)
  |> List.map (fun v -> v land ((1 lsl len) - 1))
  |> List.sort_uniq compare

let values tier (Isa.F f) : int list =
  let len = f.Isa.len in
  match f.Isa.kind with
  | Isa.Gp _ -> registers tier
  | Isa.Fp _ -> [ 0; 31 ]
  | Isa.Imm { signed; _ } when len > 4 -> immediates ~len ~signed
  | (Isa.Lim32 _ | Isa.Bitmask) when len > 4 ->
      immediates ~len ~signed:false
  | Isa.Enum e when len > 6 ->
      List.sort_uniq compare
        (0 :: ((1 lsl len) - 1) :: List.map snd e.Isa.codes)
  | _ -> List.init (1 lsl len) Fun.id

(* The row's fixed bits with each field's raw values placed at its
   bits, as a cross product. *)
let words_of (r : Isa.row) tier : int Seq.t =
  List.fold_left
    (fun acc (Isa.F f as any) ->
      let vs =
        List.to_seq
          (List.map (fun v -> Isa.place v f.Isa.rparts) (values tier any))
      in
      Seq.flat_map (fun w -> Seq.map (fun v -> w lor v) vs) acc)
    (Seq.return r.Isa.fixed) r.Isa.fields

let rows : Isa.row list = List.concat_map snd Isa.table

(** The row that decodes [w], in decode order; [None] for a word no row
    claims (it decodes to [udf]). *)
let row_of (w : int) : Isa.row option =
  Array.find_opt
    (fun (r : Isa.row) ->
      w land r.Isa.mask = r.Isa.fixed
      && match r.Isa.dec w with _ -> true | exception Isa.Reserved -> false)
    Isa.buckets.((w lsr 25) land 0xF)

(* Each op0 bucket's all-zeros and all-ones word, where no row claims
   it. *)
let unallocated =
  List.concat_map (fun k -> [ k lsl 25; (k lsl 25) lor 0xE1FFFFFF ])
    (List.init 16 Fun.id)
  |> List.filter (fun w -> row_of w = None)

let all : stratum list =
  List.map
    (fun (r : Isa.row) ->
      { name = r.Isa.name;
        desc =
          Printf.sprintf "fixed %08x, mask %08x, %d fields" r.Isa.fixed
            r.Isa.mask (List.length r.Isa.fields);
        words = words_of r })
    rows
  @ [ { name = "unallocated"; desc = "op0 buckets' words no row claims";
        words = (fun _ -> List.to_seq unallocated) } ]

let find name = List.find_opt (fun s -> s.name = name) all
