(** In-memory filesystem and pipes.

    The runtime implements "a small Unix-like operating system within a
    single Linux process" (Section 5.3): file-backed runtime calls are
    serviced from this in-memory tree, and the runtime checks arguments
    — e.g. path-prefix access control — before touching it. *)

type file = { mutable content : Bytes.t; mutable size : int }

(** A unidirectional byte pipe. *)
type pipe = {
  mutable buf : Bytes.t;
  mutable rpos : int;
  mutable wpos : int;  (** bytes in flight = wpos - rpos *)
  mutable readers : int;
  mutable writers : int;
}

type fd_object =
  | Console_out  (** stdout/stderr; captured per process *)
  | Console_in
  | File of { file : file; mutable pos : int; writable : bool }
  | Pipe_read of pipe
  | Pipe_write of pipe

type t = {
  files : (string, file) Hashtbl.t;
  allowed_prefixes : string list;
      (** empty means everything is allowed; otherwise a path must
          start with one of these prefixes *)
}

let create ?(allowed_prefixes = []) () =
  { files = Hashtbl.create 32; allowed_prefixes }

let path_allowed t path =
  t.allowed_prefixes = []
  || List.exists
       (fun p ->
         String.length path >= String.length p
         && String.sub path 0 (String.length p) = p)
       t.allowed_prefixes

(** Pre-populate a file (host-side; not subject to access control). *)
let add_file t path content =
  Hashtbl.replace t.files path
    { content = Bytes.of_string content; size = String.length content }

let lookup t path = Hashtbl.find_opt t.files path

(** Errno-style results: negative values returned to the sandbox. *)
let eacces = -13
let enoent = -2
let ebadf = -9
let efault = -14
let einval = -22
let eagain = -11
let epipe = -32

type open_result = (fd_object, int) result

let open_file t ~path ~(writable : bool) : open_result =
  if not (path_allowed t path) then Error eacces
  else
    match lookup t path with
    | Some file ->
        if writable then file.size <- 0 (* truncate *);
        Ok (File { file; pos = 0; writable })
    | None ->
        if writable then begin
          let file = { content = Bytes.create 0; size = 0 } in
          Hashtbl.replace t.files path file;
          Ok (File { file; pos = 0; writable })
        end
        else Error enoent

let file_read (f : file) ~pos ~len : bytes =
  let avail = max 0 (f.size - pos) in
  let n = min len avail in
  Bytes.sub f.content pos n

let file_write (f : file) ~pos (b : bytes) =
  let needed = pos + Bytes.length b in
  if needed > Bytes.length f.content then begin
    let cap = max needed (2 * Bytes.length f.content) in
    let nc = Bytes.make cap '\000' in
    Bytes.blit f.content 0 nc 0 f.size;
    f.content <- nc
  end;
  Bytes.blit b 0 f.content pos (Bytes.length b);
  f.size <- max f.size needed

let file_contents (f : file) = Bytes.sub_string f.content 0 f.size

(* ------------------------------------------------------------------ *)
(* Pipes                                                               *)
(* ------------------------------------------------------------------ *)

let pipe_capacity = 64 * 1024

let make_pipe () =
  { buf = Bytes.create pipe_capacity; rpos = 0; wpos = 0; readers = 1;
    writers = 1 }

let pipe_available p = p.wpos - p.rpos
let pipe_space p = pipe_capacity - pipe_available p

(** Non-blocking read; the runtime blocks the process when this returns
    [`Would_block]. *)
let pipe_read (p : pipe) (len : int) :
    [ `Data of bytes | `Eof | `Would_block ] =
  let avail = pipe_available p in
  if avail > 0 then begin
    let n = min len avail in
    let out = Bytes.create n in
    for i = 0 to n - 1 do
      Bytes.set out i (Bytes.get p.buf ((p.rpos + i) mod pipe_capacity))
    done;
    p.rpos <- p.rpos + n;
    if p.rpos >= pipe_capacity then begin
      p.rpos <- p.rpos - pipe_capacity;
      p.wpos <- p.wpos - pipe_capacity
    end;
    `Data out
  end
  else if p.writers = 0 then `Eof
  else `Would_block

let pipe_write (p : pipe) (b : bytes) : [ `Wrote of int | `Would_block | `Broken ] =
  if p.readers = 0 then `Broken
  else
    let space = pipe_space p in
    if space = 0 then `Would_block
    else begin
      let n = min (Bytes.length b) space in
      for i = 0 to n - 1 do
        Bytes.set p.buf ((p.wpos + i) mod pipe_capacity) (Bytes.get b i)
      done;
      p.wpos <- p.wpos + n;
      `Wrote n
    end

let close_fd = function
  | Console_out | Console_in | File _ -> ()
  | Pipe_read p -> p.readers <- p.readers - 1
  | Pipe_write p -> p.writers <- p.writers - 1
