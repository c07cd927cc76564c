(** Sliding-window aggregation over log2 histograms.

    A window [t] chops the simulated-cycle axis into fixed-width
    windows from an [origin] and keeps the most recent [depth] of them
    in a ring, one {!Histogram} plus ok/err/over/insns counters per
    window.  Observing is O(1): find the current window (advancing the
    ring over any boundary crossed since the last observation), then a
    histogram observe and a few counter stores — cheap enough to stay
    always-on in the serve path.

    Rolling percentiles come from {!Histogram.merge} over the retained
    ring ({!merged}), burn-rate windows from counter sums over a seq
    range ({!range}).  A whole-run [total] histogram is maintained in
    parallel; while nothing has been evicted, merging every retained
    window reproduces it {e exactly} (bucket arithmetic is exact under
    merge) — the invariant the tests pin down. *)

type slot = {
  hist : Histogram.t;
  mutable ok : int;  (** successful requests observed *)
  mutable err : int;  (** failed requests *)
  mutable over : int;  (** requests over the latency objective *)
  mutable insns : int;  (** sandboxed instructions, ok requests *)
  mutable seq : int;  (** window sequence number; -1 = never used *)
}

(** Counter sums over a window range (see {!range}). *)
type rstats = { r_ok : int; r_err : int; r_over : int; r_insns : int }

let rstats_zero = { r_ok = 0; r_err = 0; r_over = 0; r_insns = 0 }

type t = {
  width : float;  (** cycles per window *)
  origin : float;  (** cycle timestamp of window 0's left edge *)
  ring : slot array;
  total : Histogram.t;  (** whole-run latency histogram *)
  mutable t_ok : int;
  mutable t_err : int;
  mutable t_insns : int;
  mutable cur : int;  (** highest window seq started; -1 before any *)
}

let create ?(depth = 128) ?(origin = 0.0) ~(width : float) () : t =
  if width <= 0.0 then invalid_arg "Window.create: width <= 0";
  if depth < 1 then invalid_arg "Window.create: depth < 1";
  {
    width;
    origin;
    ring =
      Array.init depth (fun _ ->
          { hist = Histogram.create (); ok = 0; err = 0; over = 0; insns = 0;
            seq = -1 });
    total = Histogram.create ();
    t_ok = 0;
    t_err = 0;
    t_insns = 0;
    cur = -1;
  }

let depth t = Array.length t.ring
let width t = t.width
let cur t = t.cur

(** Window sequence number containing cycle timestamp [now] (clamped:
    observations before the origin land in window 0). *)
let seq_of t ~(now : float) : int =
  let s = int_of_float ((now -. t.origin) /. t.width) in
  if s < 0 then 0 else s

(** Number of windows started so far. *)
let spanned t = t.cur + 1

(** Windows whose histogram has been dropped off the ring. *)
let evicted t = max 0 (spanned t - depth t)

let clear_slot sl seq =
  Histogram.reset sl.hist;
  sl.ok <- 0;
  sl.err <- 0;
  sl.over <- 0;
  sl.insns <- 0;
  sl.seq <- seq

(** Roll the ring forward so the window containing [now] is current.
    Every slot crossed is reset and stamped; a jump larger than the
    ring touches each slot once. *)
let advance t ~(now : float) =
  let seq = seq_of t ~now in
  if seq > t.cur then begin
    let d = Array.length t.ring in
    let lo = max (t.cur + 1) (seq - d + 1) in
    for s = lo to seq do
      clear_slot t.ring.(s mod d) s
    done;
    t.cur <- seq
  end

let current_slot t = t.ring.(max t.cur 0 mod Array.length t.ring)

(** Record one successful request completing at [now]: [latency] into
    the window and whole-run histograms, [insns] into the counters,
    [over] when the request blew its latency objective. *)
let observe t ~(now : float) ~(latency : float) ~(insns : int) ~(over : bool)
    =
  advance t ~now;
  let sl = current_slot t in
  Histogram.observe sl.hist latency;
  sl.ok <- sl.ok + 1;
  sl.insns <- sl.insns + insns;
  if over then sl.over <- sl.over + 1;
  Histogram.observe t.total latency;
  t.t_ok <- t.t_ok + 1;
  t.t_insns <- t.t_insns + insns

(** Record one failed request at [now] (no latency observation — a
    killed call has no completion to time). *)
let fail t ~(now : float) =
  advance t ~now;
  let sl = current_slot t in
  sl.err <- sl.err + 1;
  t.t_err <- t.t_err + 1

(** Retained slot holding window [seq], if it is still on the ring. *)
let slot_for t (seq : int) : slot option =
  if seq < 0 || seq > t.cur then None
  else
    let sl = t.ring.(seq mod Array.length t.ring) in
    if sl.seq = seq then Some sl else None

(** Counter sums over the retained windows with seq in [[lo, hi]]. *)
let range t ~(lo : int) ~(hi : int) : rstats =
  let acc = ref rstats_zero in
  for s = max lo 0 to min hi t.cur do
    match slot_for t s with
    | None -> ()
    | Some sl ->
        acc :=
          {
            r_ok = !acc.r_ok + sl.ok;
            r_err = !acc.r_err + sl.err;
            r_over = !acc.r_over + sl.over;
            r_insns = !acc.r_insns + sl.insns;
          }
  done;
  !acc

(** Merge of every retained window's histogram — the rolling view the
    serve report takes percentiles over.  While nothing has been
    evicted this equals [total t] exactly. *)
let merged t : Histogram.t =
  let h = Histogram.create () in
  Array.iter (fun sl -> if sl.seq >= 0 then Histogram.merge h sl.hist) t.ring;
  h

let total t = t.total
let total_ok t = t.t_ok
let total_err t = t.t_err
let total_insns t = t.t_insns
