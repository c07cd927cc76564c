(** Reference interpreter for MiniC.

    Executes programs directly over an OCaml byte-array memory with the
    same semantics the ARM64 backend implements (int64 arithmetic,
    ARM-style division and float-to-int saturation, 32-bit truncating
    element stores).  The test suite uses it for differential testing:
    a random program must produce the same result interpreted, compiled
    to ARM64 (native and LFI-rewritten), and compiled through the Wasm
    pipeline. *)

open Ast

exception Exited of int64
exception Unsupported of string
exception Break_loop
exception Continue_loop

type value = VI of int64 | VF of float

let as_int = function VI v -> v | VF _ -> raise (Unsupported "float as int")
let as_flt = function VF v -> v | VI _ -> raise (Unsupported "int as float")

type state = {
  mem : Bytes.t;
  gaddr : (string, int) Hashtbl.t;
  faddr : (string, func) Hashtbl.t;  (** functions by name *)
  fslot : (string, int) Hashtbl.t;
  mutable output : Buffer.t;
  mutable fuel : int;  (** instruction budget; Out_of_fuel when spent *)
}

exception Out_of_fuel

(* Function "addresses" are tagged so that Call_indirect can find them;
   they are never dereferenced as data. *)
let fn_tag = 1 lsl 40

(** Lay out the globals exactly like {!Lfi_wasm.From_minic}: 16-aligned
    offsets starting at 1024. *)
let build (prog : program) ~(mem_size : int) ~(fuel : int) : state =
  let gaddr = Hashtbl.create 16 in
  let mem = Bytes.make mem_size '\000' in
  let cursor = ref 1024 in
  let align16 v = (v + 15) / 16 * 16 in
  List.iter
    (fun g ->
      let name, size, init =
        match g with
        | Zeroed (n, s) -> (n, s, None)
        | Init64 (n, ws) ->
            let b = Bytes.create (8 * List.length ws) in
            List.iteri
              (fun k wv -> Bytes.set_int64_le b (8 * k) (Int64.of_int wv))
              ws;
            (n, Bytes.length b, Some b)
        | InitF64 (n, fs) ->
            let b = Bytes.create (8 * List.length fs) in
            List.iteri
              (fun k fv ->
                Bytes.set_int64_le b (8 * k) (Int64.bits_of_float fv))
              fs;
            (n, Bytes.length b, Some b)
        | Str (n, s) -> (n, String.length s + 1, Some (Bytes.of_string (s ^ "\000")))
      in
      let off = align16 !cursor in
      Hashtbl.replace gaddr name off;
      (match init with
      | Some b -> Bytes.blit b 0 mem off (Bytes.length b)
      | None -> ());
      cursor := off + size)
    prog.globals;
  let faddr = Hashtbl.create 16 in
  List.iter (fun f -> Hashtbl.replace faddr f.name f) prog.funcs;
  {
    mem;
    gaddr;
    faddr;
    fslot = Hashtbl.create 8;
    output = Buffer.create 64;
    fuel;
  }

let burn st =
  st.fuel <- st.fuel - 1;
  if st.fuel <= 0 then raise Out_of_fuel

let mask32 = 0xFFFFFFFFL

let load_elt st (elt : elt) (addr : int64) : value =
  let a = Int64.to_int (Int64.logand addr mask32) in
  if a < 0 || a + elt_size elt > Bytes.length st.mem then
    raise (Unsupported (Printf.sprintf "OOB load at %d" a));
  match elt with
  | U8 -> VI (Int64.of_int (Bytes.get_uint8 st.mem a))
  | U16 -> VI (Int64.of_int (Bytes.get_uint16_le st.mem a))
  | I32 -> VI (Int64.of_int32 (Bytes.get_int32_le st.mem a))
  | I64 -> VI (Bytes.get_int64_le st.mem a)
  | F32 ->
      VF (Int32.float_of_bits (Bytes.get_int32_le st.mem a))
  | F64 -> VF (Int64.float_of_bits (Bytes.get_int64_le st.mem a))

let store_elt st (elt : elt) (addr : int64) (v : value) =
  let a = Int64.to_int (Int64.logand addr mask32) in
  if a < 0 || a + elt_size elt > Bytes.length st.mem then
    raise (Unsupported (Printf.sprintf "OOB store at %d" a));
  match elt with
  | U8 -> Bytes.set_uint8 st.mem a (Int64.to_int (as_int v) land 0xff)
  | U16 -> Bytes.set_uint16_le st.mem a (Int64.to_int (as_int v) land 0xffff)
  | I32 -> Bytes.set_int32_le st.mem a (Int64.to_int32 (as_int v))
  | I64 -> Bytes.set_int64_le st.mem a (as_int v)
  | F32 ->
      Bytes.set_int32_le st.mem a (Int32.bits_of_float (as_flt v))
  | F64 -> Bytes.set_int64_le st.mem a (Int64.bits_of_float (as_flt v))

(* ARM semantics for the corner cases *)
let arm_div a b =
  if Int64.equal b 0L then 0L
  else if Int64.equal a Int64.min_int && Int64.equal b (-1L) then Int64.min_int
  else Int64.div a b

let arm_rem a b = Int64.sub a (Int64.mul (arm_div a b) b)

let shift_amount b = Int64.to_int (Int64.logand b 63L)

let bool64 c = if c then 1L else 0L

let fcvtzs v =
  if Float.is_nan v then 0L
  else if v >= 9.2233720368547758e18 then Int64.max_int
  else if v <= -9.2233720368547758e18 then Int64.min_int
  else Int64.of_float v

exception Returned of value

let rec eval_expr (st : state) (env : (string, value) Hashtbl.t) (e : expr) :
    value =
  burn st;
  match e with
  | Int v -> VI (Int64.of_int v)
  | Flt v -> VF v
  | Var x -> (
      match Hashtbl.find_opt env x with
      | Some v -> v
      | None -> raise (Unsupported ("unbound " ^ x)))
  | Addr name -> (
      match Hashtbl.find_opt st.gaddr name with
      | Some off -> VI (Int64.of_int off)
      | None -> (
          (* function address: return its table slot, tagged *)
          match Hashtbl.find_opt st.fslot name with
          | Some s -> VI (Int64.of_int (fn_tag + s))
          | None ->
              if not (Hashtbl.mem st.faddr name) then
                raise (Unsupported ("unknown symbol " ^ name));
              let s = Hashtbl.length st.fslot in
              Hashtbl.replace st.fslot name s;
              VI (Int64.of_int (fn_tag + s))))
  | Bin (op, a, b) -> eval_bin st env op a b
  | Un (Neg, a) -> VI (Int64.neg (as_int (eval_expr st env a)))
  | Un (Not, a) -> VI (Int64.lognot (as_int (eval_expr st env a)))
  | Un (FNeg, a) -> VF (-.as_flt (eval_expr st env a))
  | Un (FSqrt, a) -> VF (Float.sqrt (as_flt (eval_expr st env a)))
  | Un (FAbs, a) -> VF (Float.abs (as_flt (eval_expr st env a)))
  | Cvt (ItoF, a) -> VF (Int64.to_float (as_int (eval_expr st env a)))
  | Cvt (FtoI, a) -> VI (fcvtzs (as_flt (eval_expr st env a)))
  | Load (elt, a) -> load_elt st elt (as_int (eval_expr st env a))
  | Call (name, args) -> (
      match Hashtbl.find_opt st.faddr name with
      | Some f -> call_func st f (List.map (eval_expr st env) args)
      | None -> raise (Unsupported ("unknown function " ^ name)))
  | Call_indirect (fp, args, _) -> (
      let fv = Int64.to_int (as_int (eval_expr st env fp)) in
      let slot = fv - fn_tag in
      let name =
        Hashtbl.fold (fun n s acc -> if s = slot then Some n else acc)
          st.fslot None
      in
      match name with
      | Some n ->
          call_func st (Hashtbl.find st.faddr n)
            (List.map (eval_expr st env) args)
      | None -> raise (Unsupported "indirect call to a non-function"))
  | Syscall (k, args) ->
      let args = List.map (fun a -> as_int (eval_expr st env a)) args in
      if k = Lfi_runtime.Sysno.exit then
        raise (Exited (match args with a :: _ -> a | [] -> 0L))
      else if k = Lfi_runtime.Sysno.getpid then VI 1L
      else if k = Lfi_runtime.Sysno.write then (
        match args with
        | [ _fd; buf; len ] ->
            let off = Int64.to_int (Int64.logand buf mask32) in
            let n = Int64.to_int len in
            if off >= 0 && off + n <= Bytes.length st.mem && n >= 0 then begin
              Buffer.add_subbytes st.output st.mem off n;
              VI len
            end
            else VI (-22L)
        | _ -> VI (-22L))
      else raise (Unsupported (Printf.sprintf "syscall %d" k))

and eval_bin st env op a b : value =
  let va = eval_expr st env a in
  let vb = eval_expr st env b in
  match op with
  | Add -> VI (Int64.add (as_int va) (as_int vb))
  | Sub -> VI (Int64.sub (as_int va) (as_int vb))
  | Mul -> VI (Int64.mul (as_int va) (as_int vb))
  | Div -> VI (arm_div (as_int va) (as_int vb))
  | Rem -> VI (arm_rem (as_int va) (as_int vb))
  | And -> VI (Int64.logand (as_int va) (as_int vb))
  | Or -> VI (Int64.logor (as_int va) (as_int vb))
  | Xor -> VI (Int64.logxor (as_int va) (as_int vb))
  | Shl -> VI (Int64.shift_left (as_int va) (shift_amount (as_int vb)))
  | Shr -> VI (Int64.shift_right (as_int va) (shift_amount (as_int vb)))
  | Lshr ->
      VI (Int64.shift_right_logical (as_int va) (shift_amount (as_int vb)))
  | Eq -> VI (bool64 (Int64.equal (as_int va) (as_int vb)))
  | Ne -> VI (bool64 (not (Int64.equal (as_int va) (as_int vb))))
  | Lt -> VI (bool64 (Int64.compare (as_int va) (as_int vb) < 0))
  | Le -> VI (bool64 (Int64.compare (as_int va) (as_int vb) <= 0))
  | Gt -> VI (bool64 (Int64.compare (as_int va) (as_int vb) > 0))
  | Ge -> VI (bool64 (Int64.compare (as_int va) (as_int vb) >= 0))
  | Ult -> VI (bool64 (Int64.unsigned_compare (as_int va) (as_int vb) < 0))
  | FAdd -> VF (as_flt va +. as_flt vb)
  | FSub -> VF (as_flt va -. as_flt vb)
  | FMul -> VF (as_flt va *. as_flt vb)
  | FDiv -> VF (as_flt va /. as_flt vb)
  | FEq -> VI (bool64 (as_flt va = as_flt vb))
  | FLt -> VI (bool64 (as_flt va < as_flt vb))
  | FLe -> VI (bool64 (as_flt va <= as_flt vb))

and exec_stmts st env (stmts : stmt list) : unit =
  List.iter (exec_stmt st env) stmts

and exec_stmt st env (s : stmt) : unit =
  burn st;
  match s with
  | Decl (n, _, e) | Assign (n, e) ->
      Hashtbl.replace env n (eval_expr st env e)
  | Store (elt, a, v) ->
      let addr = as_int (eval_expr st env a) in
      store_elt st elt addr (eval_expr st env v)
  | If (c, t, e) ->
      if not (Int64.equal (as_int (eval_expr st env c)) 0L) then
        exec_stmts st env t
      else exec_stmts st env e
  | While (c, body) -> exec_while st env c body
  | Return e -> raise (Returned (eval_expr st env e))
  | Expr e -> ignore (eval_expr st env e)
  | Break -> raise Break_loop
  | Continue -> raise Continue_loop

and exec_while st env c body =
  let rec go () =
    burn st;
    if not (Int64.equal (as_int (eval_expr st env c)) 0L) then begin
      (try exec_stmts st env body with Continue_loop -> ());
      go ()
    end
  in
  try go () with Break_loop -> ()

and call_func st (f : func) (args : value list) : value =
  let env = Hashtbl.create 16 in
  (try
     List.iter2 (fun (n, _) v -> Hashtbl.replace env n v) f.params args
   with Invalid_argument _ -> raise (Unsupported "arity mismatch"));
  try
    exec_stmts st env f.body;
    (* implicit return 0 *)
    match f.ret with Int -> VI 0L | Float -> VF 0.0
  with Returned v -> v

(** Run a program; returns [(exit_code, stdout)].  [fuel] bounds the
    number of evaluation steps so that generated programs cannot hang
    the test suite. *)
let run ?(mem_size = 1 lsl 20) ?(fuel = 10_000_000) (prog : program) :
    int64 * string =
  let st = build prog ~mem_size ~fuel in
  match Hashtbl.find_opt st.faddr "main" with
  | None -> raise (Unsupported "no main")
  | Some main -> (
      try
        let v = call_func st main [] in
        (as_int v, Buffer.contents st.output)
      with Exited code -> (code, Buffer.contents st.output))
