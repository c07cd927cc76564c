(** MiniC: a small imperative language used to write the SPEC-proxy
    workloads.

    MiniC plays the role of C in the paper's pipeline: workloads are
    written once, compiled by the native ARM64 backend ({!Compile}) to
    GNU assembly text — which the LFI rewriter then instruments exactly
    as it would instrument Clang output — and compiled a second time
    through the WebAssembly-like stack IR ({!Lfi_wasm}) for the Figure 4
    comparison.

    The language is deliberately C-shaped: 64-bit integers and doubles,
    flat global arrays, functions with by-value parameters, loops,
    conditionals, raw loads/stores with C-like element types, function
    pointers, and direct access to the runtime calls. *)

type ty = Int | Float

(** Element types for memory access (loads sign- or zero-extend like
    the corresponding C types). *)
type elt =
  | U8
  | U16
  | I32
  | I64
  | F32
  | F64

let elt_size = function
  | U8 -> 1
  | U16 -> 2
  | I32 | F32 -> 4
  | I64 | F64 -> 8

let elt_is_float = function F32 | F64 -> true | U8 | U16 | I32 | I64 -> false

type binop =
  (* integer *)
  | Add | Sub | Mul | Div | Rem
  | And | Or | Xor | Shl | Shr  (** Shr is arithmetic *)
  | Lshr
  | Eq | Ne | Lt | Le | Gt | Ge  (** signed comparisons, produce 0/1 *)
  | Ult  (** unsigned < *)
  (* float *)
  | FAdd | FSub | FMul | FDiv
  | FEq | FLt | FLe

type unop = Neg | Not  (** bitwise not *) | FNeg | FSqrt | FAbs
type cvt = ItoF | FtoI

type expr =
  | Int of int
  | Flt of float
  | Var of string
  | Bin of binop * expr * expr
  | Un of unop * expr
  | Cvt of cvt * expr
  | Load of elt * expr  (** byte address *)
  | Addr of string  (** address of a global or function *)
  | Call of string * expr list
  | Call_indirect of expr * expr list * ty option
      (** call through a function pointer; the callee's return type
          must be given because it cannot be inferred *)
  | Syscall of int * expr list  (** runtime call; returns Int *)

type stmt =
  | Decl of string * ty * expr  (** declare and initialize a local *)
  | Assign of string * expr
  | Store of elt * expr * expr  (** address, value *)
  | If of expr * stmt list * stmt list
  | While of expr * stmt list
  | Return of expr
  | Expr of expr  (** evaluate for side effects *)
  | Break
  | Continue

(** A global definition. *)
type global =
  | Zeroed of string * int  (** name, size in bytes (zero-filled) *)
  | Init64 of string * int list  (** name, 64-bit words *)
  | InitF64 of string * float list
  | Str of string * string  (** name, NUL-terminated string *)

type func = {
  name : string;
  params : (string * ty) list;
  ret : ty;
  body : stmt list;
}

type program = { globals : global list; funcs : func list }

(* ------------------------------------------------------------------ *)
(* EDSL                                                                *)
(* ------------------------------------------------------------------ *)

(** Combinators for writing workloads.  Open this module locally
    ([let open Ast.Dsl in ...]): it shadows the standard comparison and
    arithmetic operators with expression builders, so programs read
    almost like C. *)
module Dsl = struct
  (* ------------------------------------------------------------------ *)
  (* EDSL helpers — workloads read almost like C                          *)
  (* ------------------------------------------------------------------ *)

  let i n = Int n
  let f x = Flt x
  let v name = Var name
  let ( + ) a b = Bin (Add, a, b)
  let ( - ) a b = Bin (Sub, a, b)
  let ( * ) a b = Bin (Mul, a, b)
  let ( / ) a b = Bin (Div, a, b)
  let ( % ) a b = Bin (Rem, a, b)
  let band a b = Bin (And, a, b)
  let bor a b = Bin (Or, a, b)
  let bxor a b = Bin (Xor, a, b)
  let shl a b = Bin (Shl, a, b)
  let sar a b = Bin (Shr, a, b)
  let shr a b = Bin (Lshr, a, b)
  let ( == ) a b = Bin (Eq, a, b)
  let ( != ) a b = Bin (Ne, a, b)
  let ( < ) a b = Bin (Lt, a, b)
  let ( <= ) a b = Bin (Le, a, b)
  let ( > ) a b = Bin (Gt, a, b)
  let ( >= ) a b = Bin (Ge, a, b)
  let ( <. ) a b = Bin (FLt, a, b)
  let ( <=. ) a b = Bin (FLe, a, b)
  let ( ==. ) a b = Bin (FEq, a, b)
  let ( +. ) a b = Bin (FAdd, a, b)
  let ( -. ) a b = Bin (FSub, a, b)
  let ( *. ) a b = Bin (FMul, a, b)
  let ( /. ) a b = Bin (FDiv, a, b)
  let neg a = Un (Neg, a)
  let fneg a = Un (FNeg, a)
  let fsqrt a = Un (FSqrt, a)
  let fabs' a = Un (FAbs, a)
  let itof a = Cvt (ItoF, a)
  let ftoi a = Cvt (FtoI, a)
  let ld elt addr = Load (elt, addr)
  let addr name = Addr name
  let call name args = Call (name, args)

  (** [arr name idx ~elt] — address of element [idx] of global [name]. *)
  let idx name index ~elt = Bin (Add, Addr name, Bin (Mul, index, Int (elt_size elt)))

  let decl name ty e = Decl (name, ty, e)
  let set name e = Assign (name, e)
  let store elt a v = Store (elt, a, v)
  let if_ c t e = If (c, t, e)
  let while_ c body = While (c, body)
  let ret e = Return e
  let expr e = Expr e

  (** for (var = lo; var < hi; var += step) body *)
  let for_ var lo hi ?(step = Int 1) body =
    [ Decl (var, Int, lo);
      While (Bin (Lt, Var var, hi), body @ [ Assign (var, Bin (Add, Var var, step)) ]) ]

  (* Runtime-call wrappers. *)
  let sys_exit e = Expr (Syscall (Lfi_runtime.Sysno.exit, [ e ]))
  let sys_write fd buf len = Syscall (Lfi_runtime.Sysno.write, [ fd; buf; len ])
  let sys_read fd buf len = Syscall (Lfi_runtime.Sysno.read, [ fd; buf; len ])
  let sys_yield () = Syscall (Lfi_runtime.Sysno.yield, [])
  let sys_yield_to pid = Syscall (Lfi_runtime.Sysno.yield_to, [ pid ])
  let sys_getpid () = Syscall (Lfi_runtime.Sysno.getpid, [])
  let sys_fork () = Syscall (Lfi_runtime.Sysno.fork, [])
  let sys_wait status = Syscall (Lfi_runtime.Sysno.wait, [ status ])
  let sys_pipe fds = Syscall (Lfi_runtime.Sysno.pipe, [ fds ])
  let sys_mmap len = Syscall (Lfi_runtime.Sysno.mmap, [ len ])

  let func ?(params = []) ?(ret : ty = Int) name body = { name; params; ret; body }


end

(** Typing judgment used by both backends.  [fenv] maps function names
    to return types, [env] maps locals to their types. *)
let typeof ~(fenv : (string * ty) list) ~(env : (string * ty) list)
    (e : expr) : ty =
  match e with
  | Int _ -> Int
  | Flt _ -> Float
  | Var x -> (
      match List.assoc_opt x env with
      | Some t -> t
      | None -> invalid_arg ("unbound variable " ^ x))
  | Bin (op, _, _) -> (
      match op with
      | FAdd | FSub | FMul | FDiv -> Float
      | _ -> Int)
  | Un ((FNeg | FSqrt | FAbs), _) -> Float
  | Un ((Neg | Not), _) -> Int
  | Cvt (ItoF, _) -> Float
  | Cvt (FtoI, _) -> Int
  | Load ((F32 | F64), _) -> Float
  | Load (_, _) -> Int
  | Addr _ -> Int
  | Call (name, _) -> (
      match List.assoc_opt name fenv with
      | Some t -> t
      | None -> invalid_arg ("unknown function " ^ name))
  | Call_indirect (_, _, Some t) -> t
  | Call_indirect (_, _, None) -> Int
  | Syscall _ -> Int

let is_float ~fenv ~env e = typeof ~fenv ~env e = Float
