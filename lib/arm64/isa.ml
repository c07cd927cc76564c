(** The A64 instruction classes of the subset, as one table.

    Each row of {!table} states one instruction class once: its fixed
    bits and mask, its operand fields (a bit position plus a kind) and
    its mapping to and from the {!Insn.t} constructor.  The encoder and
    the decoder are both derived from the rows, so the two directions
    cannot drift apart.  They produce and read real A64 words, so that
    the static verifier, like the paper's, checks machine code decoded
    from an ELF text segment rather than a trusted AST.

    - [decode] is total.  It tries the rows of the word's op0 bucket
      (bits 28:25) in order, reading each field straight from the word,
      and returns the first that accepts.  Anything else is [Udf],
      which the verifier rejects, as the paper's verifier admits only
      encodings from a premade list of safe ARMv8.0 forms (§5.2).
    - [encode] returns the word of the first row that takes the
      instruction, or [Error] for a value with no encoding: an
      out-of-range immediate, sp in a zr-only slot, an unencodable
      bitmask immediate.  Operands that set the same bits (the [sf]
      width bit, the FP [type]) must agree, so operands of mixed width
      ([mul x0, w1, w2]) are an error, never a different instruction.

    Property: [encode i = Ok w] implies [decode w = i]. *)

open Insn

type error = string

let err fmt = Printf.ksprintf (fun m -> Error m) fmt

(* ------------------------------------------------------------------ *)
(* Logical (bitmask) immediates                                        *)
(* ------------------------------------------------------------------ *)

let popcount v =
  let rec go v acc = if v = 0 then acc else go (v lsr 1) (acc + (v land 1)) in
  go v 0

(* Rotate the [esize]-bit element [v] right by [r].  For [esize] 64 the
   result is exact in its low 63 bits: the left shift is split in two,
   as OCaml leaves a shift by 63 or more unspecified. *)
let ror_e esize v r =
  let mask = if esize = 64 then -1 else (1 lsl esize) - 1 in
  let v = v land mask in
  if r = 0 then v
  else ((v lsr r) lor ((v lsl (esize - r - 1)) lsl 1)) land mask

(** Encode [v] as an ARM64 bitmask immediate for register width
    [datasize] (32 or 64).  Returns [(n, immr, imms)].

    Note: 64-bit values with bit 62 or 63 set are not representable in
    an OCaml [int] and therefore not supported; {!decode_bitmask}
    rejects them too. *)
let encode_bitmask ~datasize (v : int) : (int * int * int, error) result =
  let mask = if datasize = 64 then max_int else (1 lsl datasize) - 1 in
  (* max_int covers bits 0-61, so no 64-bit value here is all ones *)
  if v <= 0 || v land mask <> v || (datasize = 32 && v = mask) then
    err "value %d is not an encodable bitmask immediate" v
  else
    let rec try_esize = function
      | [] -> err "value %d is not an encodable bitmask immediate" v
      | esize :: rest ->
          if esize > datasize then
            err "value %d is not an encodable bitmask immediate" v
          else
            let emask = if esize = 64 then -1 else (1 lsl esize) - 1 in
            let elt = v land emask in
            (* check replication *)
            let rec replicated i =
              if i >= datasize then true
              else if (v lsr i) land emask = elt then replicated (i + esize)
              else false
            in
            if not (replicated 0) then try_esize rest
            else
              let ones = popcount elt in
              if ones = 0 || ones = esize then try_esize rest
              else
                let run = (1 lsl ones) - 1 in
                let rec find_r r =
                  if r >= esize then None
                  else if ror_e esize run r = elt then Some r
                  else find_r (r + 1)
                in
                (match find_r 0 with
                | None -> try_esize rest
                | Some r ->
                    let s = ones - 1 in
                    let n, imms_hi =
                      match esize with
                      | 64 -> (1, 0b0000000)
                      | 32 -> (0, 0b0000000)
                      | 16 -> (0, 0b0100000)
                      | 8 -> (0, 0b0110000)
                      | 4 -> (0, 0b0111000)
                      | _ -> (0, 0b0111100) (* esize = 2 *)
                    in
                    Ok (n, r, imms_hi lor s))
    in
    try_esize [ 2; 4; 8; 16; 32; 64 ]

(** Decode (n, immr, imms) for width [datasize]; returns [None] when the
    fields are reserved or the value does not fit in 0..2{^62}-1. *)
let decode_bitmask ~datasize ~n ~immr ~imms : int option =
  let len =
    (* highest set bit of n:NOT(imms) over 7 bits *)
    let v = (n lsl 6) lor (lnot imms land 0x3f) in
    let rec hsb i = if i < 0 then -1 else if v lsr i land 1 = 1 then i else hsb (i - 1) in
    hsb 6
  in
  if len < 1 then None
  else
    let esize = 1 lsl len in
    if esize > datasize then None
    else
      let levels = esize - 1 in
      let s = imms land levels and r = immr land levels in
      (* bit j of the element is set iff (j + r) mod esize <= s; the
         top element's two top bits are the value's bits 63 and 62 *)
      let bit j = (j + r) land levels <= s in
      if s = levels then None
      else if datasize = 64 && (bit (esize - 1) || bit (esize - 2)) then None
      else
        let run = (1 lsl (s + 1)) - 1 in
        let elt = ror_e esize run r in
        let rec replicate acc i =
          if i >= datasize then acc else replicate (acc lor (elt lsl i)) (i + esize)
        in
        Some (replicate 0 0)

(** The system registers the subset reads and writes, with their
    op0:op1:CRn:CRm:op2 encodings. *)
let sysregs =
  [ ("tpidr_el0", 0b1_011_1101_0000_010);
    ("scxtnum_el0", 0b1_011_1101_0000_111);
    ("fpcr", 0b1_011_0100_0100_000) ]

(* ------------------------------------------------------------------ *)
(* Fields                                                              *)
(* ------------------------------------------------------------------ *)

(** Raised by a field read when the word is not the row's: a reserved
    code, a reserved bitmask, a 32-bit bound exceeded. *)
exception Reserved

(** Raised by a field write when the value has no encoding. *)
exception Unencodable of string

let fail fmt = Printf.ksprintf (fun m -> raise (Unencodable m)) fmt

(** A field is one or more bit ranges [(lo, len)], most significant
    first; its value is their bits concatenated ([len] in all). *)
type 'a field = {
  parts : (int * int) list;
  rparts : (int * int) list;  (** least significant first *)
  len : int;
  mask : int;
  kind : 'a kind;
}

and _ kind =
  | Gp : slot * Reg.width src -> Reg.t kind
      (** general register; number 31 names the [slot] register *)
  | Fp : Reg.Fp.size src -> Reg.Fp.t kind  (** SIMD/FP register *)
  | Imm : { signed : bool; scale : int } -> int kind
      (** the value is the field shifted left by [scale] *)
  | Lim32 : int -> int kind
      (** unsigned, and below the bound when bit 31 (sf) is clear *)
  | Bit : bool kind
  | Width : Reg.width kind  (** sf (or sf:N): all ones for 64-bit *)
  | Enum : 'a enum -> 'a kind  (** a code outside the list is reserved *)
  | Bitmask : int kind  (** N:immr:imms logical immediate of the sf width *)

and slot = Zr | Sp

(** Where a register's width or FP size comes from: a field that other
    operands may set too (they must agree), a fixed value, or the row,
    which passes it to [gp_as], [fp_as] and [put_as]. *)
and 'w src = By of 'w field | Fixed of 'w | Given

and 'a enum = { codes : ('a * int) list; table : 'a option array }

let field parts kind =
  let len = List.fold_left (fun n (_, l) -> n + l) 0 parts in
  let mask =
    List.fold_left (fun m (lo, l) -> m lor (((1 lsl l) - 1) lsl lo)) 0 parts
  in
  { parts; rparts = List.rev parts; len; mask; kind }

let at lo len kind = field [ (lo, len) ] kind

(** Codes below 64 decode through an array, rarer ones by search. *)
let enum codes =
  let table = Array.make 64 None in
  List.iter (fun (v, c) -> if c < 64 then table.(c) <- Some v) codes;
  { codes; table }

let named l = enum (List.map (fun (v, _, c) -> (v, c)) l)

let lookup e c =
  let v =
    if c < 64 then Array.unsafe_get e.table c
    else List.find_map (fun (v, k) -> if k = c then Some v else None) e.codes
  in
  match v with Some v -> v | None -> raise_notrace Reserved

(* Decoded registers are {!Reg}'s shared values, so decoding allocates
   none. *)
let gp slot wd n =
  if n < 31 then Reg.gp wd n
  else
    match (slot, wd) with
    | Sp, Reg.W64 -> Reg.sp
    | Sp, Reg.W32 -> Reg.wsp
    | Zr, Reg.W64 -> Reg.xzr
    | Zr, Reg.W32 -> Reg.wzr

let fp size n = Reg.Fp.v size n

let rec bits w v = function
  | [] -> v
  | (lo, l) :: rest ->
      bits w ((v lsl l) lor ((w lsr lo) land ((1 lsl l) - 1))) rest

let sf32 w = w land (1 lsl 31) = 0

(** Read field [f] of word [w]. *)
let rec get : type a. a field -> int -> a =
 fun f w ->
  let v = bits w 0 f.parts in
  match f.kind with
  | Gp (slot, By wf) -> gp slot (get wf w) v
  | Gp (slot, Fixed wd) -> gp slot wd v
  | Fp (By sf) -> fp (get sf w) v
  | Fp (Fixed size) -> fp size v
  | Gp (_, Given) | Fp Given -> invalid_arg "Isa.get: the row gives the width"
  | Imm { signed; scale } ->
      (if signed && v lsr (f.len - 1) = 1 then v - (1 lsl f.len) else v)
      lsl scale
  | Lim32 n -> if v >= n && sf32 w then raise_notrace Reserved else v
  | Bit -> v = 1
  | Width ->
      if v = 0 then Reg.W32
      else if v = (1 lsl f.len) - 1 then Reg.W64
      else raise_notrace Reserved
  | Enum e -> lookup e v
  | Bitmask -> (
      let datasize = if sf32 w then 32 else 64 in
      match
        decode_bitmask ~datasize ~n:(v lsr 12) ~immr:((v lsr 6) land 63)
          ~imms:(v land 63)
      with
      | Some x -> x
      | None -> raise_notrace Reserved)

let gp_as (f : Reg.t field) w wd =
  match f.kind with
  | Gp (slot, _) -> gp slot wd (bits w 0 f.parts)
  | _ -> invalid_arg "Isa.gp_as"

let fp_as (f : Reg.Fp.t field) w size = fp size (bits w 0 f.parts)

(** A word being encoded: its bits so far, and which bits are set. *)
type acc = { mutable word : int; mutable set : int }

let rec place v = function
  | [] -> 0
  | (lo, l) :: rest ->
      ((v land ((1 lsl l) - 1)) lsl lo) lor place (v lsr l) rest

let write a f v =
  let bits = place v f.rparts in
  if (a.word lxor bits) land a.set land f.mask <> 0 then
    fail "mixed operand widths";
  a.word <- a.word lor bits;
  a.set <- a.set lor f.mask

(* an enum value's code, or -1; constant constructors match physically *)
let code_of x codes =
  let rec find eq = function
    | [] -> -1
    | (v, c) :: rest -> if eq v x then c else find eq rest
  in
  let c = find ( == ) codes in
  if c >= 0 then c else find ( = ) codes

(** Write [x] into field [f].  A field that sets a width shared with
    another is written after it, or checked against it. *)
let rec put : type a. acc -> a field -> a -> unit =
 fun a f x ->
  match f.kind with
  | Gp (slot, src) ->
      (match src with
      | By wf -> put a wf (Reg.width x)
      | Fixed wd -> if Reg.width x <> wd then fail "mixed operand widths"
      | Given -> ());
      write a f
        (match (x, slot) with
        | Reg.R (_, n), _ -> n
        | Reg.ZR _, Zr | Reg.SP _, Sp -> 31
        | Reg.ZR _, Sp -> fail "zr not encodable here (sp position)"
        | Reg.SP _, Zr -> fail "sp not encodable here (zr position)")
  | Fp src ->
      (match src with
      | By sf -> put a sf x.Reg.Fp.size
      | Fixed size -> if x.Reg.Fp.size <> size then fail "mixed FP sizes"
      | Given -> ());
      write a f x.Reg.Fp.n
  | Imm { signed; scale } ->
      let v = x asr scale and n = f.len in
      if v lsl scale <> x then
        fail "%d is not a multiple of %d" x (1 lsl scale);
      if
        if signed then v < -(1 lsl (n - 1)) || v >= 1 lsl (n - 1)
        else v < 0 || v >= 1 lsl n
      then fail "immediate %d out of range" x;
      write a f (v land ((1 lsl n) - 1))
  | Lim32 n ->
      if x < 0 || x >= (if sf32 a.word then n else 1 lsl f.len) then
        fail "immediate %d out of range" x;
      write a f x
  | Bit -> write a f (Bool.to_int x)
  | Width -> write a f (if x = Reg.W32 then 0 else (1 lsl f.len) - 1)
  | Enum e ->
      let c = code_of x e.codes in
      if c < 0 then fail "operand not encodable here";
      write a f c
  | Bitmask -> (
      match encode_bitmask ~datasize:(if sf32 a.word then 32 else 64) x with
      | Ok (n, immr, imms) -> write a f ((n lsl 12) lor (immr lsl 6) lor imms)
      | Error m -> fail "%s" m)

let put_as a f wd r =
  if Reg.width r <> wd then fail "mixed operand widths";
  put a f r

let off = function
  | Off n -> n
  | Sym s -> fail "unresolved symbol %S (assemble first)" s

(* ------------------------------------------------------------------ *)
(* Shared fields                                                       *)
(* ------------------------------------------------------------------ *)

let u = Imm { signed = false; scale = 0 }
let s scale = Imm { signed = true; scale }
let sf = at 31 1 Width

(* sf:N (bits 31 and 22): the width of bitfield moves and extr *)
let sfn = field [ (31, 1); (22, 1) ] Width

let ftype = at 22 2 (Enum (enum Reg.Fp.[ (S, 0); (D, 1) ]))
let rd = at 0 5 (Gp (Zr, By sf))
let rn = at 5 5 (Gp (Zr, By sf))
let rm = at 16 5 (Gp (Zr, By sf))
let ra = at 10 5 (Gp (Zr, By sf))
let rd_sp = at 0 5 (Gp (Sp, By sf))
let rn_sp = at 5 5 (Gp (Sp, By sf))
let rd_n = at 0 5 (Gp (Zr, By sfn))
let rn_n = at 5 5 (Gp (Zr, By sfn))
let rm_n = at 16 5 (Gp (Zr, By sfn))
let rt_g = at 0 5 (Gp (Zr, Given))
let rt_f = at 0 5 (Fp Given)
let rt2_g = at 10 5 (Gp (Zr, Given))
let rt2_f = at 10 5 (Fp Given)
let rm_g = at 16 5 (Gp (Zr, Given))
let base = at 5 5 (Gp (Sp, Fixed Reg.W64))
let fd = at 0 5 (Fp (By ftype))
let fn = at 5 5 (Fp (By ftype))
let fm = at 16 5 (Fp (By ftype))
let fa = at 10 5 (Fp (By ftype))
let addsub = at 30 1 (Enum (enum [ (ADD, 0); (SUB, 1) ]))
let o10 = at 10 1 Bit
let o15 = at 15 1 Bit
let o16 = at 16 1 Bit
let o23 = at 23 1 Bit
let nz = at 24 1 Bit
let imm6 = at 10 6 (Lim32 32)
let imm12 = at 10 12 u
let imm19 = at 5 19 (s 2)
let cond12 = at 12 4 (Enum (named conds))
let nzcv = at 0 4 u
let size = at 30 2 (Enum (named mem_sizes))
let sized sz = if sz = X then Reg.W64 else Reg.W32

(* ------------------------------------------------------------------ *)
(* The table                                                           *)
(* ------------------------------------------------------------------ *)

type row = {
  name : string;
  mask : int;
  fixed : int;
  fields : any list;
  dec : int -> t;  (** raises [Reserved] if the word is not the row's *)
  enc : acc -> t -> bool;  (** [false] if the value is not the row's *)
}

and any = F : 'a field -> any

let row name mask fixed fields dec enc = { name; mask; fixed; fields; dec; enc }

(* Rows whose mapping is a constructor of the fields' values, [mk], and
   its inverse, [un]; [fs] are fields the operands set (sf, type).  The
   operands are written in order, so registers come first: a 32-bit
   bound or a bitmask immediate reads the width they set. *)
let row1 n m x fs a mk un =
  row n m x (fs @ [ F a ]) (fun w -> mk (get a w)) (fun c i ->
      match un i with Some v -> put c a v; true | None -> false)

let row2 n m x fs (a, b) mk un =
  row n m x (fs @ [ F a; F b ]) (fun w -> mk (get a w) (get b w)) (fun c i ->
      match un i with
      | Some (va, vb) -> put c a va; put c b vb; true
      | None -> false)

let row3 n m x fs (a, b, d) mk un =
  row n m x (fs @ [ F a; F b; F d ])
    (fun w -> mk (get a w) (get b w) (get d w))
    (fun c i ->
      match un i with
      | Some (va, vb, vd) -> put c a va; put c b vb; put c d vd; true
      | None -> false)

let row4 n m x fs (a, b, d, e) mk un =
  row n m x (fs @ [ F a; F b; F d; F e ])
    (fun w -> mk (get a w) (get b w) (get d w) (get e w))
    (fun c i ->
      match un i with
      | Some (va, vb, vd, ve) ->
          put c a va; put c b vb; put c d vd; put c e ve; true
      | None -> false)

let row5 n m x fs (a, b, d, e, f) mk un =
  row n m x (fs @ [ F a; F b; F d; F e; F f ])
    (fun w -> mk (get a w) (get b w) (get d w) (get e w) (get f w))
    (fun c i ->
      match un i with
      | Some (va, vb, vd, ve, vf) ->
          put c a va; put c b vb; put c d vd; put c e ve; put c f vf; true
      | None -> false)

let row6 n m x fs (a, b, d, e, f, g) mk un =
  row n m x (fs @ [ F a; F b; F d; F e; F f; F g ])
    (fun w -> mk (get a w) (get b w) (get d w) (get e w) (get f w) (get g w))
    (fun c i ->
      match un i with
      | Some (va, vb, vd, ve, vf, vg) ->
          put c a va; put c b vb; put c d vd; put c e ve; put c f vf;
          put c g vg; true
      | None -> false)

(* add/sub (immediate); with flags set, Rd 31 is zr, not sp *)
let addsub_imm flags =
  let sh = at 22 1 (Enum (enum [ (0, 0); (12, 1) ])) in
  let rd = if flags then rd else rd_sp in
  row5 (if flags then "adds-imm" else "add-imm") 0x3F800000
    (0x11000000 lor (Bool.to_int flags lsl 29))
    [ F sf ] (rd, rn_sp, addsub, imm12, sh)
    (fun dst src op v h -> Alu { op; flags; dst; src; op2 = Imm (v, h) })
    (function
      | Alu { op = (ADD | SUB) as op; flags = f; dst; src; op2 = Imm (v, h) }
        when f = flags -> Some (dst, src, op, v, h)
      | _ -> None)

let adr page =
  let imm = field [ (5, 19); (29, 2) ] (s (if page then 12 else 0)) in
  row2 (if page then "adrp" else "adr") 0x9F000000
    (0x10000000 lor (Bool.to_int page lsl 31))
    [] (at 0 5 (Gp (Zr, Fixed Reg.W64)), imm)
    (fun dst n -> Adr { page; dst; target = Off n })
    (function
      | Adr { page = p; dst; target } when p = page -> Some (dst, off target)
      | _ -> None)

let bitmask = at 10 13 Bitmask

let logical_imm =
  let op = at 29 2 (Enum (enum [ (AND, 0); (ORR, 1); (EOR, 2) ])) in
  row4 "logical-imm" 0x1F800000 0x12000000 [ F sf ] (rd_sp, rn, op, bitmask)
    (fun dst src op v -> Alu { op; flags = false; dst; src; op2 = Imm (v, 0) })
    (function
      | Alu { op = (AND | ORR | EOR) as op; flags = false; dst; src;
              op2 = Imm (v, 0) } -> Some (dst, src, op, v)
      | _ -> None)

let ands_imm =
  row3 "ands-imm" 0x7F800000 0x72000000 [ F sf ] (rd, rn, bitmask)
    (fun dst src v ->
      Alu { op = AND; flags = true; dst; src; op2 = Imm (v, 0) })
    (function
      | Alu { op = AND; flags = true; dst; src; op2 = Imm (v, 0) } ->
          Some (dst, src, v)
      | _ -> None)

let movw =
  let op = at 29 2 (Enum (named movs)) in
  row4 "movw" 0x1F800000 0x12800000 [ F sf ]
    (rd, op, at 21 2 (Lim32 2), at 5 16 u)
    (fun dst op hw imm -> Mov { op; dst; imm; hw })
    (function Mov { op; dst; imm; hw } -> Some (dst, op, hw, imm) | _ -> None)

let bitfield =
  let op = at 29 2 (Enum (named bf_ops)) in
  row5 "bitfield" 0x1F800000 0x13000000 [ F sfn ]
    (rd_n, rn_n, op, at 16 6 (Lim32 32), imm6)
    (fun dst src op immr imms -> Bitfield { op; dst; src; immr; imms })
    (function
      | Bitfield { op; dst; src; immr; imms } -> Some (dst, src, op, immr, imms)
      | _ -> None)

let extr =
  row4 "extr" 0x7FA00000 0x13800000 [ F sfn ]
    (rd_n, rn_n, rm_n, at 10 6 (Lim32 32))
    (fun dst src1 src2 lsb -> Extr { dst; src1; src2; lsb })
    (function
      | Extr { dst; src1; src2; lsb } -> Some (dst, src1, src2, lsb)
      | _ -> None)

(* add/sub (extended register): Rm is an x register only for a 64-bit
   uxtx/sxtx; with flags set, Rd 31 is zr *)
let addsub_ext flags =
  let ext = at 13 3 (Enum (named extends)) in
  let amount = at 10 3 (Enum (enum (List.init 5 (fun k -> (k, k))))) in
  let rd = if flags then rd else rd_sp in
  let rm_width dst e =
    if dst = Reg.W64 && (e = Uxtx || e = Sxtx) then Reg.W64 else Reg.W32
  in
  row (if flags then "adds-ext" else "add-ext") 0x3FE00000
    (0x0B200000 lor (Bool.to_int flags lsl 29))
    [ F sf; F addsub; F rm_g; F ext; F amount; F rn_sp; F rd ]
    (fun w ->
      let e = get ext w in
      Alu { op = get addsub w; flags; dst = get rd w; src = get rn_sp w;
            op2 = Ext (gp_as rm_g w (rm_width (get sf w) e), e,
                       get amount w) })
    (fun a -> function
      | Alu { op = (ADD | SUB) as op; flags = f; dst; src;
              op2 = Ext (r, e, amt) } when f = flags ->
          put a rd dst; put a rn_sp src; put a addsub op;
          put_as a rm_g (rm_width (Reg.width dst) e) r;
          put a ext e; put a amount amt; true
      | _ -> false)

let addsub_shifted flags =
  let shifts = List.filter (fun (k, _, _) -> k <> Ror) shifts in
  row6 (if flags then "adds-shifted" else "add-shifted") 0x3F200000
    (0x0B000000 lor (Bool.to_int flags lsl 29))
    [ F sf ] (rd, rn, rm, addsub, at 22 2 (Enum (named shifts)), imm6)
    (fun dst src r op k a -> Alu { op; flags; dst; src; op2 = Sh (r, k, a) })
    (function
      | Alu { op = (ADD | SUB) as op; flags = f; dst; src; op2 = Sh (r, k, a) }
        when f = flags -> Some (dst, src, r, op, k, a)
      | _ -> None)

(* opc:N (bits 30:29 and 21) names the operation; opc 11 (ands, bics)
   sets flags *)
let logical_shifted flags =
  let ops = if flags then [ (AND, 6); (BIC, 7) ]
    else [ (AND, 0); (BIC, 1); (ORR, 2); (ORN, 3); (EOR, 4); (EON, 5) ]
  in
  row6 (if flags then "ands-shifted" else "logical-shifted") 0x1F000000
    0x0A000000 [ F sf ]
    (rd, rn, rm, field [ (29, 2); (21, 1) ] (Enum (enum ops)),
     at 22 2 (Enum (named shifts)), imm6)
    (fun dst src r op k a -> Alu { op; flags; dst; src; op2 = Sh (r, k, a) })
    (function
      | Alu { op = (AND | BIC | ORR | ORN | EOR | EON) as op; flags = f; dst;
              src; op2 = Sh (r, k, a) } when f = flags ->
          Some (dst, src, r, op, k, a)
      | _ -> None)

let madd =
  row5 "madd" 0x7FE00000 0x1B000000 [ F sf ] (rd, rn, rm, ra, o15)
    (fun dst src1 src2 acc sub -> Madd { sub; dst; src1; src2; acc })
    (function
      | Madd { sub; dst; src1; src2; acc } -> Some (dst, src1, src2, acc, sub)
      | _ -> None)

(* sf is fixed at 1: Rd, Rn, Rm (and Ra of maddl) are x registers *)
let smulh =
  row4 "smulh" 0xFF60FC00 0x9B407C00 [] (rd, rn, rm, o23)
    (fun dst src1 src2 u -> Smulh { signed = not u; dst; src1; src2 })
    (function
      | Smulh { signed; dst; src1; src2 } -> Some (dst, src1, src2, not signed)
      | _ -> None)

let maddl =
  let w lo = at lo 5 (Gp (Zr, Fixed Reg.W32)) in
  row6 "maddl" 0xFF600000 0x9B200000 [] (rd, w 5, w 16, ra, o23, o15)
    (fun dst src1 src2 acc u sub ->
      Maddl { signed = not u; sub; dst; src1; src2; acc })
    (function
      | Maddl { signed; sub; dst; src1; src2; acc } ->
          Some (dst, src1, src2, acc, not signed, sub)
      | _ -> None)

let div =
  row4 "div" 0x7FE0F800 0x1AC00800 [ F sf ] (rd, rn, rm, o10)
    (fun dst src1 src2 signed -> Div { signed; dst; src1; src2 })
    (function
      | Div { signed; dst; src1; src2 } -> Some (dst, src1, src2, signed)
      | _ -> None)

let shiftv =
  row4 "shiftv" 0x7FE0F000 0x1AC02000 [ F sf ]
    (rd, rn, rm, at 10 2 (Enum (named shifts)))
    (fun dst src amount op -> Shiftv { op; dst; src; amount })
    (function
      | Shiftv { op; dst; src; amount } -> Some (dst, src, amount, op)
      | _ -> None)

let rbit =
  row2 "rbit" 0x7FFFFC00 0x5AC00000 [ F sf ] (rd, rn)
    (fun dst src -> Rbit { dst; src })
    (function Rbit { dst; src } -> Some (dst, src) | _ -> None)

(* rev16, rev32 and rev; a 32-bit rev reverses 4 bytes *)
let rev =
  row3 "rev" 0x7FFFF000 0x5AC00000 [ F sf ]
    (rd, rn, at 10 2 (Enum (enum [ (2, 1); (4, 2); (8, 3) ])))
    (fun dst src bytes ->
      if bytes = 8 && Reg.width dst = Reg.W32 then raise_notrace Reserved;
      Rev { bytes; dst; src })
    (function
      | Rev { bytes = 8; dst; _ } when Reg.width dst = Reg.W32 ->
          fail "invalid rev width"
      | Rev { bytes; dst; src } -> Some (dst, src, bytes)
      | _ -> None)

let cls =
  row3 "cls" 0x7FFFF800 0x5AC01000 [ F sf ] (rd, rn, o10)
    (fun dst src o -> Cls { count_zero = not o; dst; src })
    (function
      | Cls { count_zero; dst; src } -> Some (dst, src, not count_zero)
      | _ -> None)

let csel =
  let op = field [ (30, 1); (10, 1) ] (Enum (named csel_ops)) in
  row5 "csel" 0x3FE00800 0x1A800000 [ F sf ] (rd, rn, rm, op, cond12)
    (fun dst src1 src2 op cond -> Csel { op; dst; src1; src2; cond })
    (function
      | Csel { op; dst; src1; src2; cond } -> Some (dst, src1, src2, op, cond)
      | _ -> None)

(* ccmp/ccmn with a register (bit 11 clear) or a 5-bit immediate *)
let ccmp name fixed op2 mk un =
  row5 name 0x3FE00C10 fixed [ F sf ] (rn, at 30 1 Bit, nzcv, cond12, op2)
    (fun src op nzcv cond v ->
      Ccmp { cmn = not op; src; op2 = mk v; nzcv; cond })
    (function
      | Ccmp { cmn; src; op2; nzcv; cond } ->
          Option.map (fun v -> (src, not cmn, nzcv, cond, v)) (un op2)
      | _ -> None)

let branch name fixed mk un =
  row1 name 0xFC000000 fixed [] (at 0 26 (s 2))
    (fun n -> mk (Off n))
    (fun i -> Option.map off (un i))

let bcond =
  row2 "b.cond" 0xFF000010 0x54000000 [] (at 0 4 (Enum (named conds)), imm19)
    (fun c n -> Bcond (c, Off n))
    (function Bcond (c, t) -> Some (c, off t) | _ -> None)

let cbz =
  row3 "cbz" 0x7E000000 0x34000000 [ F sf ] (rd, nz, imm19)
    (fun reg nz n -> Cbz { nz; reg; target = Off n })
    (function Cbz { nz; reg; target } -> Some (reg, nz, off target) | _ -> None)

(* the bit number's top bit, b5, is bit 31: it sets the register's
   width too *)
let tbz =
  row4 "tbz" 0x7E000000 0x36000000 []
    (rd, field [ (31, 1); (19, 5) ] u, nz, at 5 14 (s 2))
    (fun reg bit nz n -> Tbz { nz; reg; bit; target = Off n })
    (function
      | Tbz { nz; reg; bit; target } -> Some (reg, bit, nz, off target)
      | _ -> None)

(* bit 31 is set: Rn is an x register *)
let indirect name fixed mk un = row1 name 0xFFFFFC1F fixed [] rn mk un

let const name word insn =
  row name 0xFFFFFFFF word [] (fun _ -> insn) (fun _ i -> i = insn)

let sysreg name fixed mk un =
  row2 name 0xFFF00000 fixed [] (rd, at 5 15 (Enum (enum sysregs))) mk un

(* Single loads and stores: size:V:opc (bits 31:30, 26, 23:22) names
   what moves, paired with the log2 access size that scales offsets. *)
let singles =
  let ints (sz, _, c) =
    let w = sized sz in
    [ ((`St (sz, w), c), c lsl 3); ((`Ld (sz, false, w), c), (c lsl 3) lor 1) ]
    @ (if sz = X then []
       else [ ((`Ld (sz, true, Reg.W64), c), (c lsl 3) lor 2) ])
    @
    if sz = B || sz = H then [ ((`Ld (sz, true, Reg.W32), c), (c lsl 3) lor 3) ]
    else []
  in
  let fps (f, scale, c) =
    [ ((`Fst f, scale), c); ((`Fld f, scale), c lor 1) ]
  in
  List.concat_map ints mem_sizes
  @ List.concat_map fps
      Reg.Fp.[ (S, 2, 0b10100); (D, 3, 0b11100); (Q, 4, 0b00110) ]

let ldst = field [ (30, 2); (26, 1); (22, 2) ] (Enum (enum singles))
let index l = Hashtbl.of_seq (List.to_seq l)

(* what moves -> its code *)
let single_codes :
    ([ `Ld of _ | `St of _ | `Fld of _ | `Fst of _ ], _) Hashtbl.t =
  index (List.map (fun ((x, _), c) -> (x, c)) singles)

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1)

(* Rt is a general or an FP register, as the transfer says *)
let single name mask fixed fields addr put_addr =
  row name mask fixed (F ldst :: F rt_g :: F base :: fields)
    (fun w ->
      let x, scale = get ldst w in
      let addr = addr (get base w) w scale in
      match x with
      | `Ld (sz, signed, wd) -> Ldr { sz; signed; dst = gp_as rt_g w wd; addr }
      | `St (sz, wd) -> Str { sz; src = gp_as rt_g w wd; addr }
      | `Fld size -> Fldr { dst = fp_as rt_f w size; addr }
      | `Fst size -> Fstr { src = fp_as rt_f w size; addr })
    (fun a i ->
      let go x addr =
        put_addr a (log2 (access_bytes i)) addr
        &&
        match Hashtbl.find_opt single_codes x with
        | None -> fail "invalid load/store form"
        | Some c -> write a ldst c; true
      in
      match i with
      | Ldr { sz; signed; dst = r; addr } ->
          go (`Ld (sz, signed, Reg.width r)) addr && (put a rt_g r; true)
      | Str { sz; src = r; addr } ->
          go (`St (sz, Reg.width r)) addr && (put a rt_g r; true)
      | Fldr { dst = f; addr } ->
          go (`Fld f.Reg.Fp.size) addr && (put a rt_f f; true)
      | Fstr { src = f; addr } ->
          go (`Fst f.Reg.Fp.size) addr && (put a rt_f f; true)
      | _ -> false)

let scaled scale v =
  if v land ((1 lsl scale) - 1) <> 0 then
    fail "offset %d is not a multiple of %d" v (1 lsl scale);
  v asr scale

(* a negative or unaligned offset is the unscaled row's *)
let ld_uimm =
  single "ldst-uimm" 0x3B000000 0x39000000 [ F imm12 ]
    (fun b w scale -> Imm_off (b, get imm12 w lsl scale))
    (fun a scale -> function
      | Imm_off (b, o) when o >= 0 && o land ((1 lsl scale) - 1) = 0 ->
          put a base b; put a imm12 (o asr scale); true
      | _ -> false)

(* unscaled, post- and pre-indexed: a 9-bit signed byte offset *)
let ld_imm9 name fixed mk un =
  let imm9 = at 12 9 (s 0) in
  single name 0x3B200C00 fixed [ F imm9 ]
    (fun b w _ -> mk b (get imm9 w))
    (fun a _ addr ->
      match un addr with
      | Some (b, o) -> put a base b; put a imm9 o; true
      | None -> false)

(* register offset: option selects the extend, which sets Rm's width;
   S shifts Rm by the access size *)
let ld_reg =
  let ext =
    at 13 3 (Enum (enum [ (Uxtw, 2); (Uxtx, 3); (Sxtw, 6); (Sxtx, 7) ]))
  in
  let shifted = at 12 1 Bit in
  let width e = if e = Uxtx || e = Sxtx then Reg.W64 else Reg.W32 in
  single "ldst-reg" 0x3B200C00 0x38200800 [ F rm_g; F ext; F shifted ]
    (fun b w scale ->
      let e = get ext w in
      Reg_off (b, gp_as rm_g w (width e), e,
               if get shifted w then scale else 0))
    (fun a scale -> function
      | Reg_off (b, m, e, amt) ->
          put a base b; put a ext e; put_as a rm_g (width e) m;
          if amt <> 0 && amt <> scale then fail "register-offset shift %d" amt;
          put a shifted (amt <> 0); true
      | _ -> false)

(* Pairs: opc:V:L (bits 31:30, 26, 22) names what moves and its scale,
   the mode (bits 24:23) the addressing. *)
let pairs =
  List.concat_map
    (fun (k, scale, c) ->
      [ ((k, false, scale), c); ((k, true, scale), c lor 1) ])
    [ (`G Reg.W32, 2, 0b0000); (`G Reg.W64, 3, 0b1000);
      (`F Reg.Fp.S, 2, 0b0010); (`F Reg.Fp.D, 3, 0b0110);
      (`F Reg.Fp.Q, 4, 0b1010) ]

let pair_codes : ([ `G of _ | `F of _ ] * bool, _) Hashtbl.t =
  index (List.map (fun ((k, l, s), c) -> ((k, l), (s, c))) pairs)

let pair =
  let op = field [ (30, 2); (26, 1); (22, 1) ] (Enum (enum pairs)) in
  let mode = at 23 2 (Enum (enum [ (`Post, 1); (`Off, 2); (`Pre, 3) ])) in
  let imm7 = at 15 7 (s 0) in
  row "pair" 0x3A000000 0x28000000
    [ F op; F mode; F imm7; F rt2_g; F base; F rt_g ]
    (fun w ->
      let k, load, scale = get op w in
      let b = get base w and o = get imm7 w lsl scale in
      let addr =
        match get mode w with
        | `Post -> Post (b, o)
        | `Off -> Imm_off (b, o)
        | `Pre -> Pre (b, o)
      in
      match k with
      | `G wd ->
          let r1 = gp_as rt_g w wd and r2 = gp_as rt2_g w wd in
          if load then Ldp { w = wd; r1; r2; addr }
          else Stp { w = wd; r1; r2; addr }
      | `F size ->
          let r1 = fp_as rt_f w size and r2 = fp_as rt2_f w size in
          if load then Fldp { r1; r2; addr } else Fstp { r1; r2; addr })
    (fun a i ->
      let go k load addr =
        let scale, c = Hashtbl.find pair_codes (k, load) in
        let m, b, o =
          match addr with
          | Post (b, o) -> (`Post, b, o)
          | Imm_off (b, o) -> (`Off, b, o)
          | Pre (b, o) -> (`Pre, b, o)
          | Reg_off _ -> fail "register-offset invalid for pair"
        in
        write a op c; put a mode m; put a base b; put a imm7 (scaled scale o);
        true
      in
      match i with
      | Ldp { w; r1; r2; addr } | Stp { w; r1; r2; addr } ->
          put_as a rt_g w r1; put_as a rt2_g w r2;
          go (`G w) (match i with Ldp _ -> true | _ -> false) addr
      | Fldp { r1; r2; addr } | Fstp { r1; r2; addr } ->
          if r2.Reg.Fp.size <> r1.Reg.Fp.size then fail "mixed FP sizes";
          put a rt_f r1; put a rt2_f r2;
          go (`F r1.Reg.Fp.size) (match i with Fldp _ -> true | _ -> false) addr
      | _ -> false)

(* Exclusive and acquire/release: the size sets Rt's width.  ldxr,
   ldar and stlr differ in o2:L:o1:o0 (bits 23:21 and 15), and Rs (bits
   20:16) is all ones but in stxr, where it is the 32-bit status. *)
let ordered =
  let op =
    field [ (21, 3); (15, 1) ]
      (Enum (enum [ (`Ldxr, 0b0100); (`Ldar, 0b1101); (`Stlr, 0b1001) ]))
  in
  row "ldxr-ldar-stlr" 0x3F1F7C00 0x081F7C00 [ F size; F op; F base; F rt_g ]
    (fun w ->
      let sz = get size w and base = get base w in
      let r = gp_as rt_g w (sized sz) in
      match get op w with
      | `Ldxr -> Ldxr { sz; dst = r; base }
      | `Ldar -> Ldar { sz; dst = r; base }
      | `Stlr -> Stlr { sz; src = r; base })
    (fun a i ->
      match i with
      | Ldxr { sz; dst = r; base = b }
      | Ldar { sz; dst = r; base = b }
      | Stlr { sz; src = r; base = b } ->
          let o = match i with Ldxr _ -> `Ldxr | Ldar _ -> `Ldar | _ -> `Stlr in
          put a op o; put a size sz; put_as a rt_g (sized sz) r;
          put a base b; true
      | _ -> false)

let stxr =
  let rs = at 16 5 (Gp (Zr, Fixed Reg.W32)) in
  row "stxr" 0x3FE0FC00 0x08007C00 [ F size; F rs; F base; F rt_g ]
    (fun w ->
      let sz = get size w in
      Stxr { sz; status = get rs w; src = gp_as rt_g w (sized sz);
             base = get base w })
    (fun a -> function
      | Stxr { sz; status; src; base = b } ->
          put a size sz; put a rs status; put_as a rt_g (sized sz) src;
          put a base b; true
      | _ -> false)

let fmadd =
  row5 "fmadd" 0xFF200000 0x1F000000 [ F ftype ] (fd, fn, fm, fa, o15)
    (fun dst src1 src2 acc sub -> Fmadd { sub; dst; src1; src2; acc })
    (function
      | Fmadd { sub; dst; src1; src2; acc } -> Some (dst, src1, src2, acc, sub)
      | _ -> None)

let scvtf =
  row3 "scvtf" 0x7F3EFC00 0x1E220000 [ F sf; F ftype ] (fd, rn, o16)
    (fun dst src u -> Scvtf { signed = not u; dst; src })
    (function
      | Scvtf { signed; dst; src } -> Some (dst, src, not signed)
      | _ -> None)

let fcvtzs =
  row3 "fcvtzs" 0x7F3EFC00 0x1E380000 [ F sf; F ftype ] (rd, fn, o16)
    (fun dst src u -> Fcvtzs { signed = not u; dst; src })
    (function
      | Fcvtzs { signed; dst; src } -> Some (dst, src, not signed)
      | _ -> None)

(* fmov between a general and an FP register: sf and type are fixed,
   one row per width *)
let fmov_to name fixed =
  row2 name 0xFFFFFC00 fixed [] (fd, rn)
    (fun dst src -> Fmov_to_fp { dst; src })
    (function Fmov_to_fp { dst; src } -> Some (dst, src) | _ -> None)

let fmov_from name fixed =
  row2 name 0xFFFFFC00 fixed [] (rd, fn)
    (fun dst src -> Fmov_from_fp { dst; src })
    (function Fmov_from_fp { dst; src } -> Some (dst, src) | _ -> None)

let fop2 =
  row4 "fop2" 0xFF200C00 0x1E200800 [ F ftype ]
    (fd, fn, fm, at 12 4 (Enum (named fop2s)))
    (fun dst src1 src2 op -> Fop2 { op; dst; src1; src2 })
    (function
      | Fop2 { op; dst; src1; src2 } -> Some (dst, src1, src2, op)
      | _ -> None)

let fop1 =
  row3 "fop1" 0xFF3E7C00 0x1E204000 [ F ftype ]
    (fd, fn, at 15 2 (Enum (named fop1s)))
    (fun dst src op -> Fop1 { op; dst; src })
    (function Fop1 { op; dst; src } -> Some (dst, src, op) | _ -> None)

(* fcvt: type is the source's size, [size] the destination's *)
let fcvt name fixed size =
  row2 name 0xFFFFFC00 fixed [] (at 0 5 (Fp (Fixed size)), fn)
    (fun dst src -> Fcvt { dst; src })
    (function
      | Fcvt { dst; src } when src.Reg.Fp.size <> size -> Some (dst, src)
      | _ -> None)

(* fcmp against a register or against +0.0 *)
let fcmp =
  row2 "fcmp" 0xFF20FC1F 0x1E202000 [ F ftype ] (fn, fm)
    (fun src1 r -> Fcmp { src1; src2 = Some r })
    (function Fcmp { src1; src2 = Some r } -> Some (src1, r) | _ -> None)

let fcmp_zero =
  row1 "fcmp-zero" 0xFF3FFC1F 0x1E202008 [ F ftype ] fn
    (fun src1 -> Fcmp { src1; src2 = None })
    (function Fcmp { src1; src2 = None } -> Some src1 | _ -> None)

let udf =
  row1 "udf" 0xFFFF0000 0 [] (at 0 16 u) (fun n -> Udf n)
    (function Udf n -> Some n | _ -> None)

(** The rows by op0 bucket (bits 28:25), each bucket in decode order. *)
let table =
  [
    ( [ 0x8; 0x9 ],
      [ addsub_imm false; addsub_imm true; adr false; adr true; logical_imm;
        ands_imm; movw; bitfield; extr ] );
    ( [ 0x5; 0xD ],
      [ addsub_ext false; addsub_ext true; addsub_shifted false;
        addsub_shifted true; logical_shifted false; logical_shifted true;
        madd; smulh; maddl; div; shiftv; rbit; rev; cls; csel;
        ccmp "ccmp-reg" 0x3A400000 rm (fun r -> CReg r)
          (function CReg r -> Some r | CImm _ -> None);
        ccmp "ccmp-imm" 0x3A400800 (at 16 5 u) (fun v -> CImm v)
          (function CImm v -> Some v | CReg _ -> None) ] );
    ( [ 0x4; 0x6; 0xC; 0xE ],
      [ ld_uimm;
        ld_imm9 "ldst-unscaled" 0x38000000 (fun b o -> Imm_off (b, o))
          (function Imm_off (b, o) -> Some (b, o) | _ -> None);
        ld_imm9 "ldst-post" 0x38000400 (fun b o -> Post (b, o))
          (function Post (b, o) -> Some (b, o) | _ -> None);
        ld_imm9 "ldst-pre" 0x38000C00 (fun b o -> Pre (b, o))
          (function Pre (b, o) -> Some (b, o) | _ -> None);
        ld_reg; pair; ordered; stxr ] );
    ( [ 0xA; 0xB ],
      [ branch "b" 0x14000000 (fun t -> B t)
          (function B t -> Some t | _ -> None);
        branch "bl" 0x94000000 (fun t -> Bl t)
          (function Bl t -> Some t | _ -> None);
        bcond; cbz; tbz;
        indirect "br" 0xD61F0000 (fun r -> Br r)
          (function Br r -> Some r | _ -> None);
        indirect "blr" 0xD63F0000 (fun r -> Blr r)
          (function Blr r -> Some r | _ -> None);
        indirect "ret" 0xD65F0000 (fun r -> Ret r)
          (function Ret r -> Some r | _ -> None);
        const "nop" 0xD503201F Nop; const "dmb" 0xD5033BBF Dmb;
        row1 "svc" 0xFFE0001F 0xD4000001 [] (at 5 16 u) (fun n -> Svc n)
          (function Svc n -> Some n | _ -> None);
        sysreg "mrs" 0xD5300000 (fun dst sysreg -> Mrs { dst; sysreg })
          (function Mrs { dst; sysreg } -> Some (dst, sysreg) | _ -> None);
        sysreg "msr" 0xD5100000 (fun src sysreg -> Msr { sysreg; src })
          (function Msr { sysreg; src } -> Some (src, sysreg) | _ -> None) ]
    );
    ( [ 0x7; 0xF ],
      [ fmadd; scvtf; fcvtzs; fmov_to "fmov-s-w" 0x1E270000;
        fmov_to "fmov-d-x" 0x9E670000; fmov_from "fmov-w-s" 0x1E260000;
        fmov_from "fmov-x-d" 0x9E660000; fop2; fop1;
        fcvt "fcvt-d-s" 0x1E22C000 Reg.Fp.D;
        fcvt "fcvt-s-d" 0x1E624000 Reg.Fp.S; fcmp; fcmp_zero ]
    );
    ([ 0x0 ], [ udf ]);
  ]

(* ------------------------------------------------------------------ *)
(* Decoder and encoder                                                 *)
(* ------------------------------------------------------------------ *)

let buckets =
  let b = Array.make 16 [||] in
  List.iter
    (fun (op0s, rows) -> List.iter (fun k -> b.(k) <- Array.of_list rows) op0s)
    table;
  b

let unknown = Udf 0

let rec scan rows w k =
  if k = Array.length rows then unknown
  else
    let r = Array.unsafe_get rows k in
    if w land r.mask <> r.fixed then scan rows w (k + 1)
    else match r.dec w with i -> i | exception Reserved -> scan rows w (k + 1)

(** Decode a 32-bit word.  Unknown encodings become [Udf]. *)
let decode (w : int) : t =
  let w = w land 0xFFFFFFFF in
  scan (Array.unsafe_get buckets (w lsr 25 land 0xF)) w 0

(** Decode a whole text segment (little-endian words). *)
let decode_all (b : bytes) : t array =
  let n = Bytes.length b / 4 in
  Array.init n (fun i ->
      decode (Int32.to_int (Bytes.get_int32_le b (i * 4)) land 0xFFFFFFFF))

(* the op0 bucket whose rows can take [i]: encode tries only those *)
let bucket_of = function
  | Alu { op2 = Imm _; _ } | Adr _ | Mov _ | Bitfield _ | Extr _ -> 0x8
  | Alu _ | Shiftv _ | Madd _ | Smulh _ | Maddl _ | Div _ | Csel _ | Ccmp _
  | Cls _ | Rbit _ | Rev _ ->
      0x5
  | Ldr _ | Str _ | Ldp _ | Stp _ | Fldr _ | Fstr _ | Fldp _ | Fstp _
  | Ldxr _ | Stxr _ | Ldar _ | Stlr _ ->
      0x4
  | B _ | Bl _ | Bcond _ | Cbz _ | Tbz _ | Br _ | Blr _ | Ret _ | Nop
  | Svc _ | Mrs _ | Msr _ | Dmb ->
      0xA
  | Fop2 _ | Fop1 _ | Fmadd _ | Fcmp _ | Fcvt _ | Scvtf _ | Fcvtzs _
  | Fmov_to_fp _ | Fmov_from_fp _ ->
      0xF
  | Udf _ -> 0x0

(** Encode one instruction to a 32-bit word: the first row of its
    bucket that takes it, or the first row's complaint.  Branch targets
    must be [Off]; the assembler resolves symbols first. *)
let encode (i : t) : (int, error) result =
  let rows = buckets.(bucket_of i) and a = { word = 0; set = 0 } in
  let rec go first k =
    if k = Array.length rows then
      Error (Option.value first ~default:"no encoding for this form")
    else
      let r = rows.(k) in
      a.word <- r.fixed;
      a.set <- r.mask;
      match r.enc a i with
      | true -> Ok a.word
      | false -> go first (k + 1)
      | exception Unencodable m ->
          go (if first = None then Some m else first) (k + 1)
  in
  go None 0

(** Encode a list of instructions into a bytes buffer (little-endian). *)
let encode_all (insns : t list) : (bytes, error) result =
  let buf = Bytes.create (4 * List.length insns) in
  let rec go idx = function
    | [] -> Ok buf
    | i :: tl -> (
        match encode i with
        | Ok w ->
            Bytes.set_int32_le buf (idx * 4) (Int32.of_int w);
            go (idx + 1) tl
        | Error e ->
            err "instruction %d (%s): %s" idx (Printer.to_string i) e)
  in
  go 0 insns
