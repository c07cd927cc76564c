(** The one hash table keyed by an [int]: page indices (the memory
    system's page table, the decode cache's code records, libbox's
    reset baselines) and file descriptors.

    The stdlib's polymorphic [Hashtbl] hashes every key through the
    [caml_hash] C call and compares it through [caml_compare]; here the
    hash is a shift, a multiply and a xor, and the compare an integer
    [=], all OCaml.  A page index is its 4 GiB slot number (the bits
    from 18 up) over its page offset in the slot, and the pages of warm
    instances sit at the same offsets of their slots.  The slot number
    is multiplied by an odd constant with well-mixed low bits before it
    is folded into the bits the bucket mask keeps: xored in as it is, a
    small slot number only permutes an aligned run of offsets within
    itself, so the stacks of every slot shared one run of buckets (a
    64-instance xzbox pool served ~1.0M calls/s instead of ~1.4M,
    release build on a 2-vCPU x86-64 VM).  Nothing may depend on
    iteration order: callers that report pages sort them. *)

include Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b
  let hash x = x lxor ((x lsr 18) * 0x9E3779B1)
end)
