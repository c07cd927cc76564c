(** A sandboxed process: one 4GiB slot plus scheduler state.

    All processes share one emulated address space (and one emulated
    hardware thread).  Each owns its register file, and the machine
    points at the running one: a context switch is a pointer swap,
    never a copy or a page-table operation — the property that makes
    LFI context switches fast (Section 6.4). *)

open Lfi_emulator

(** How system calls are priced, for the comparison personalities of
    Table 5 / §6.1. *)
type personality =
  | Lfi  (** verified sandbox; runtime calls through the call table *)
  | Native_in_lfi_runtime
      (** unsandboxed code hosted by the LFI runtime — the "native"
          baseline of §6.1, which also benefits from fast calls *)
  | Native_linux  (** models ordinary hardware-protected Linux *)
  | Native_gvisor  (** models the gVisor systrap containerization *)

let personality_name = function
  | Lfi -> "lfi"
  | Native_in_lfi_runtime -> "native"
  | Native_linux -> "linux"
  | Native_gvisor -> "gvisor"

type blocked_on =
  | On_read of { fd : int; addr : int64; len : int }
  | On_write of { fd : int; addr : int64; len : int }
  | On_wait of { status_addr : int64 }

type state = Runnable | Blocked of blocked_on | Zombie of int

type t = {
  pid : int;
  slot : int;
  base : int64;  (** slot base address (0 for native processes) *)
  personality : personality;
  mutable state : state;
  regs : Bytes.t;  (** its register file, the machine's while it runs *)
  fds : Vfs.fd_object Itbl.t;
  mutable next_fd : int;
  mutable heap_end : int64;  (** first unmapped heap address *)
  mutable children : int list;
  stdout : Buffer.t;
  mutable user_insns : int;
  symbols : Lfi_telemetry.Profile.sym_table;
      (** the ELF symbol table sorted for pc-sample folding; [[||]]
          when the image carried no symbols *)
  sites : Lfi_telemetry.Overhead.site list;
      (** the image's [.lfi_sites] overhead site table
          (sandbox-relative pcs); [[]] when the image carried none *)
  flight : Lfi_telemetry.Flight.t;
      (** per-sandbox flight recorder; the runtime installs it on the
          machine while this process runs, and drains it into the
          postmortem report if the process is killed *)
}

let is_runnable p = p.state = Runnable

(** Allocate the lowest unused descriptor >= 3, as POSIX open(2) does.
    Closed descriptors are reused — pool-style instances churn through
    open/close far more than one-shot runs, and a high-water-mark
    allocator would leak fd numbers without bound.  [next_fd] is kept
    as a high-water mark so {!dup_fds} still copies the full range. *)
let alloc_fd (p : t) (obj : Vfs.fd_object) : int =
  let rec first_free n = if Itbl.mem p.fds n then first_free (n + 1) else n in
  let fd = first_free 3 in
  Itbl.replace p.fds fd obj;
  if fd >= p.next_fd then p.next_fd <- fd + 1;
  fd

let fd (p : t) (n : int) = Itbl.find_opt p.fds n

let close_fd (p : t) (n : int) =
  match Itbl.find_opt p.fds n with
  | Some obj ->
      Vfs.close_fd obj;
      Itbl.remove p.fds n;
      0
  | None -> Vfs.ebadf

let close_all (p : t) =
  Itbl.iter (fun _ obj -> Vfs.close_fd obj) p.fds;
  Itbl.reset p.fds

(** Standard file descriptors. *)
let install_std_fds (p : t) =
  Itbl.replace p.fds 0 Vfs.Console_in;
  Itbl.replace p.fds 1 Vfs.Console_out;
  Itbl.replace p.fds 2 Vfs.Console_out;
  p.next_fd <- 3

(* [n] is open on [obj], a constant constructor; no option is built *)
let fd_is (p : t) (n : int) (obj : Vfs.fd_object) =
  match Itbl.find p.fds n with
  | o -> o == obj
  | exception Not_found -> false

(** The table is exactly what {!install_std_fds} leaves: fds 0/1/2 on
    the console and nothing else, ever ([next_fd = 3]).  Allocates
    nothing. *)
let has_only_std_fds (p : t) =
  p.next_fd = 3
  && Itbl.length p.fds = 3
  && fd_is p 0 Vfs.Console_in
  && fd_is p 1 Vfs.Console_out
  && fd_is p 2 Vfs.Console_out

(** Duplicate the descriptor table for fork, bumping pipe endpoint
    reference counts. *)
let dup_fds (src : t) (dst : t) =
  Itbl.iter
    (fun n obj ->
      (match obj with
      | Vfs.Pipe_read pipe -> pipe.Vfs.readers <- pipe.Vfs.readers + 1
      | Vfs.Pipe_write pipe -> pipe.Vfs.writers <- pipe.Vfs.writers + 1
      | _ -> ());
      Itbl.replace dst.fds n obj)
    src.fds;
  dst.next_fd <- src.next_fd
