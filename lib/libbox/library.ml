(** A sandboxed library: compiled, rewritten, and verified once.

    The ELF is built through the ordinary pipeline (MiniC → rewriter →
    assembler → ELF) with one addition: a return trampoline,
    [__libbox_ret], appended to the program.  Host→sandbox calls are
    started by pointing the machine at an export with x30 set to the
    trampoline's (in-sandbox) address; when the export returns, the
    trampoline forwards its result to the host through the
    runtime-call table ([Sysno.box_ret]).  The trampoline address
    survives the rewriter's x30 guard because it is a sandbox offset —
    clamping it to [base | low32] is the identity — whereas a host
    address in x30 would be clamped into the slot.  The runtime-call
    table is thus the only door out of the sandbox, for library calls
    exactly as for system calls (§4.4).

    Verification happens here, once per library; instances then load
    the pre-verified image with verification off.  Exports are
    resolved through the ELF [.symtab] — every MiniC function label is
    a symbol, so an export list is just a set of names. *)

type t = {
  name : string;
  elf : Lfi_elf.Elf.t;
  exports : (string * int) list;  (** name → sandbox-relative address *)
  trampoline : int;  (** sandbox-relative address of [__libbox_ret] *)
  config : Lfi_core.Config.t;
}

exception Error of string

let trampoline_name = "__libbox_ret"

(** Append the return trampoline.  Its single parameter binds the
    export's return value (still in x0 when the export's [ret] lands
    here), which it hands to the host. *)
let with_trampoline (prog : Lfi_minic.Ast.program) : Lfi_minic.Ast.program =
  let open Lfi_minic.Ast in
  let open Lfi_minic.Ast.Dsl in
  let tramp =
    func trampoline_name
      ~params:[ ("r", Int) ]
      [ expr (Syscall (Lfi_runtime.Sysno.box_ret, [ v "r" ])); ret (i 0) ]
  in
  { prog with funcs = prog.funcs @ [ tramp ] }

let create ?(config = Lfi_core.Config.o2) ~(name : string)
    ~(exports : string list) (prog : Lfi_minic.Ast.program) : t =
  let elf =
    Lfi_core.Build.elf (Some config)
      (Lfi_minic.Compile.compile (with_trampoline prog))
  in
  (* Verify once; instances load with verification off. *)
  (match
     Lfi_verifier.Verifier.(verify_elf ~config:(config_of config) elf)
   with
  | Ok _ -> ()
  | Error e ->
      raise
        (Error (name ^ ": " ^ Lfi_verifier.Verifier.elf_error_message e)));
  let resolve n =
    match Lfi_elf.Elf.find_symbol elf n with
    | Some a -> a
    | None -> raise (Error (Printf.sprintf "%s: unknown export %S" name n))
  in
  {
    name;
    elf;
    exports = List.map (fun n -> (n, resolve n)) exports;
    trampoline = resolve trampoline_name;
    config;
  }

let export_addr (t : t) (n : string) : int option = List.assoc_opt n t.exports

(** Any symbol of the library image (globals included), for tests that
    need an in-sandbox address. *)
let symbol (t : t) (n : string) : int option = Lfi_elf.Elf.find_symbol t.elf n
