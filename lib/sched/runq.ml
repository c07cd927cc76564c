(** The shared run queue: a deterministic FIFO of integer ids with the
    rotation discipline both schedulers in the tree need.

    [Runtime]'s preemptive scheduler runs pids through it and [Pool]
    (and the serve layer's tenant/shard queues) run instance and tenant
    indexes through it — one abstraction, one set of ordering rules:

    - [push] appends at the tail (new work runs last);
    - [promote] moves an id to the head (direct-yield handoff:
      [Sysno.yield_to] wants the target to run {e next});
    - [select] is the scheduling scan: walk from the head, drop ids
      that are no longer [keep] (dead processes, retired instances),
      skip ids that are kept but not [runnable] (blocked), and on the
      first runnable id rotate the queue so the unscanned tail runs
      first, the skipped ids keep their relative order behind it, and
      the chosen id goes to the back.  If nothing is runnable the queue
      is compacted to the kept ids in their original order.

    Ids are plain ints; the queue never interprets them.  Everything is
    arrays and ints — no hash tables, no closures captured across
    calls — so iteration order (and therefore every report built on a
    scheduler) is a pure function of the call sequence. *)

type t = {
  mutable buf : int array;
  mutable head : int;  (** index of the first element *)
  mutable len : int;
}

let create ?(capacity = 8) () =
  { buf = Array.make (max capacity 1) 0; head = 0; len = 0 }

let length q = q.len

let nth q i = q.buf.((q.head + i) mod Array.length q.buf)

let grow q =
  let cap = Array.length q.buf in
  let buf = Array.make (2 * cap) 0 in
  for i = 0 to q.len - 1 do
    buf.(i) <- nth q i
  done;
  q.buf <- buf;
  q.head <- 0

(** Append [x] at the tail. *)
let push q x =
  if q.len = Array.length q.buf then grow q;
  q.buf.((q.head + q.len) mod Array.length q.buf) <- x;
  q.len <- q.len + 1

(** Prepend [x] at the head. *)
let push_front q x =
  if q.len = Array.length q.buf then grow q;
  let cap = Array.length q.buf in
  q.head <- (q.head + cap - 1) mod cap;
  q.buf.(q.head) <- x;
  q.len <- q.len + 1

(** Pop the head, if any. *)
let pop q =
  if q.len = 0 then None
  else begin
    let x = q.buf.(q.head) in
    q.head <- (q.head + 1) mod Array.length q.buf;
    q.len <- q.len - 1;
    Some x
  end

let clear q =
  q.head <- 0;
  q.len <- 0

let to_list q = List.init q.len (nth q)

let iter f q =
  for i = 0 to q.len - 1 do
    f (nth q i)
  done

(** Remove every occurrence of [x], preserving the order of the rest. *)
let remove q x =
  let n = q.len in
  let items = Array.init n (nth q) in
  clear q;
  Array.iter (fun y -> if y <> x then push q y) items

(** Move [x] to the head whether or not it is queued (the direct-yield
    path: run the handoff target next, exactly once). *)
let promote q x =
  remove q x;
  push_front q x

(* [select]'s pass over the next [k] ids: pop the head, drop it if it
   is not kept, otherwise push it back at the tail, and stop at the
   first runnable one.  A pop always frees the slot the push needs, so
   nothing is copied or grown.  A toplevel function, not a local one,
   so that a pick builds no closure over the queue and predicates. *)
let rec rotate q keep runnable k =
  if k = 0 then None
  else begin
    let cap = Array.length q.buf in
    let x = q.buf.(q.head) in
    q.head <- (q.head + 1) mod cap;
    q.len <- q.len - 1;
    if not (keep x) then rotate q keep runnable (k - 1)
    else begin
      q.buf.((q.head + q.len) mod cap) <- x;
      q.len <- q.len + 1;
      if runnable x then Some x else rotate q keep runnable (k - 1)
    end
  end

(** The scheduling scan (see the module doc for the rotation rules).
    Returns the chosen id, still enqueued at the tail.  One in-place
    pass over the [len] ids present at entry; a runnable head is one
    step of the ring. *)
let select q ~(keep : int -> bool) ~(runnable : int -> bool) : int option =
  rotate q keep runnable q.len
