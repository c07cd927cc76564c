(** A small direct-mapped TLB model.

    Used to reproduce the paper's virtualization comparison (Figure 5):
    under hardware-assisted virtualization "the cost of a TLB miss is
    doubled due to the additional pagetable levels" (Section 6.4).  The
    emulator looks every data access up here; misses charge the page
    walk cost, multiplied by [nested_walk_factor] when the machine
    simulates a guest behind nested page tables.

    Entries are untagged page numbers in a flat [int array] sized to a
    power of two, so the per-access lookup is an untagged shift, a mask
    and an array compare — no boxed [int64] arithmetic on the emulator's
    hot path.  Slot selection by mask agrees with the previous
    modulo-based mapping for power-of-two sizes, so modeled miss counts
    (and hence cycle totals) are unchanged. *)

type t = {
  entries : int array;  (** page number per slot; -1 = invalid *)
  mask : int;  (** slot mask; [Array.length entries - 1] *)
  mutable hits : int;
  mutable misses : int;
}

let rec pow2_ge n k = if k >= n then k else pow2_ge n (k * 2)

let create ~entries =
  let n = pow2_ge entries 1 in
  { entries = Array.make n (-1); mask = n - 1; hits = 0; misses = 0 }

(** Look up page number [page] — a data address as an untagged int,
    shifted right by [Memory.page_bits] — and return [true] on a hit;
    install the translation on a miss.  An int argument, so the
    emulator's per-access lookup never boxes the address. *)
let[@inline] access (t : t) (page : int) : bool =
  let slot = page land t.mask in
  if Array.unsafe_get t.entries slot = page then begin
    t.hits <- t.hits + 1;
    true
  end
  else begin
    Array.unsafe_set t.entries slot page;
    t.misses <- t.misses + 1;
    false
  end

let miss_rate t =
  let total = t.hits + t.misses in
  if total = 0 then 0.0 else float_of_int t.misses /. float_of_int total
