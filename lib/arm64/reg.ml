(** General-purpose and SIMD/FP registers of the ARM64 subset used by LFI.

    ARM64 has 31 general-purpose registers [x0]-[x30] that can also be
    accessed through their 32-bit halves [w0]-[w30] (writing a 32-bit
    name zeroes the top 32 bits — the property the LFI guard relies on),
    a zero register [xzr]/[wzr], and a dedicated stack pointer [sp]/[wsp]
    that shares encoding number 31 with the zero register. *)

type width = W32 | W64

(** A general register operand.  Encoding number 31 is either the zero
    register or the stack pointer depending on the instruction; we keep
    the distinction explicit so the rewriter and verifier never confuse
    them. *)
type t =
  | R of width * int  (** [x0]-[x30] / [w0]-[w30]; invariant: 0 <= n <= 30 *)
  | ZR of width       (** xzr / wzr *)
  | SP of width       (** sp / wsp *)

let equal (a : t) (b : t) = a = b

(* [x], [w], [gp], [with_width], [of_string] and [Fp.v] return values
   from fixed tables, so naming a register allocates nothing. *)
let xs = Array.init 31 (fun n -> R (W64, n))
let ws = Array.init 31 (fun n -> R (W32, n))

let xzr = ZR W64
let wzr = ZR W32
let sp = SP W64
let wsp = SP W32

let x n =
  if n < 0 || n > 30 then invalid_arg "Reg.x";
  Array.unsafe_get xs n

let w n =
  if n < 0 || n > 30 then invalid_arg "Reg.w";
  Array.unsafe_get ws n

(** [gp w n] is [x n] or [w n] by width. *)
let gp wd n = match wd with W64 -> x n | W32 -> w n

let lr = x 30        (* x30: link register, always a valid target  *)

(* LFI reserved registers (Section 3 of the paper):
   x21  sandbox base address, never written
   x18  always a valid sandbox address
   x22  always holds a 32-bit value
   x23, x24  hoisting registers (valid addresses) *)
let reserved_numbers = [ 18; 21; 22; 23; 24 ]

(** Number used in the machine encoding: 0-30 for named registers and 31
    for both [ZR] and [SP]. *)
let encoding_number = function R (_, n) -> n | ZR _ -> 31 | SP _ -> 31

let width = function R (w, _) | ZR w | SP w -> w

let with_width wd = function
  | R (_, n) -> gp wd n
  | ZR _ -> ( match wd with W64 -> xzr | W32 -> wzr)
  | SP _ -> ( match wd with W64 -> sp | W32 -> wsp)

(** [number_of r] is the architectural register number of [r] when [r]
    names one of x0-x30, regardless of operand width. *)
let number_of = function R (_, n) -> Some n | ZR _ | SP _ -> None

(** [n] is one of {!reserved_numbers}. *)
let is_reserved_number = function 18 | 21 | 22 | 23 | 24 -> true | _ -> false

let is_reserved = function R (_, n) -> is_reserved_number n | ZR _ | SP _ -> false

let is_sp = function SP _ -> true | R _ | ZR _ -> false

let to_string = function
  | R (W64, n) -> Printf.sprintf "x%d" n
  | R (W32, n) -> Printf.sprintf "w%d" n
  | ZR W64 -> "xzr"
  | ZR W32 -> "wzr"
  | SP W64 -> "sp"
  | SP W32 -> "wsp"

let pp fmt r = Format.pp_print_string fmt (to_string r)

(** Parse a register name, e.g. ["x21"], ["wsp"].  Returns [None] on
    anything else. *)
let of_string s =
  match s with
  | "xzr" -> Some xzr
  | "wzr" -> Some wzr
  | "sp" -> Some sp
  | "wsp" -> Some wsp
  | "lr" -> Some lr
  | _ ->
      let len = String.length s in
      if len < 2 || len > 3 then None
      else
        let wd =
          match s.[0] with 'x' -> Some W64 | 'w' -> Some W32 | _ -> None
        in
        match wd with
        | None -> None
        | Some wd -> (
            match int_of_string_opt (String.sub s 1 (len - 1)) with
            | Some n when n >= 0 && n <= 30 -> Some (gp wd n)
            | Some _ | None -> None)

(** SIMD/FP registers.  The subset uses scalar [s]/[d] views and the
    128-bit [q] view (for SIMD loads/stores). *)
module Fp = struct
  type size = S | D | Q

  type t = { size : size; n : int }  (** invariant: 0 <= n <= 31 *)

  let table =
    Array.init 96 (fun i ->
        { size = (match i / 32 with 0 -> S | 1 -> D | _ -> Q); n = i land 31 })

  let v size n =
    if n < 0 || n > 31 then invalid_arg "Reg.Fp.v";
    Array.unsafe_get table ((match size with S -> 0 | D -> 32 | Q -> 64) + n)

  let equal (a : t) (b : t) = a = b

  let to_string { size; n } =
    let c = match size with S -> 's' | D -> 'd' | Q -> 'q' in
    Printf.sprintf "%c%d" c n

  let pp fmt r = Format.pp_print_string fmt (to_string r)

  let of_string s =
    let len = String.length s in
    if len < 2 || len > 3 then None
    else
      let size =
        match s.[0] with
        | 's' -> Some S
        | 'd' -> Some D
        | 'q' -> Some Q
        | _ -> None
      in
      match size with
      | None -> None
      | Some size -> (
          match int_of_string_opt (String.sub s 1 (len - 1)) with
          | Some n when n >= 0 && n <= 31 -> Some (v size n)
          | Some _ | None -> None)

  let bytes { size; _ } = match size with S -> 4 | D -> 8 | Q -> 16
end
