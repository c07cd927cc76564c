(** The LFI sandbox layout (Figure 1 of the paper).

    Each sandbox occupies one 4GiB-aligned 4GiB slot:

    {v
    +0        runtime-call table (one 16KiB page, read-only)
    +16KiB    guard region (48KiB, unmapped)
    +64KiB    code (read/execute-only), then data (read/write)
    ...       heap (grows up), stack (grows down from stack_top)
    4GiB-48KiB..4GiB   guard region (unmapped)
    v}

    Code must end at least 128MiB before the end of the slot so that a
    direct branch (±128MiB reach) can never land in a neighbouring
    sandbox's executable region. *)

let page_size = 16 * 1024 (* Apple ARM64 page size; see §3 footnote 1 *)

let sandbox_bits = 32
let sandbox_size = 1 lsl sandbox_bits (* 4 GiB *)

(** Guard regions are 48KiB: the smallest multiple of the 16KiB page
    size greater than 2^15 + 2^10, covering the largest scaled
    immediate (32KiB) plus the largest pre/post-index drift (1KiB). *)
let guard_size = 48 * 1024

(** The runtime-call table occupies the first page of the sandbox. *)
let rtcall_table_size = page_size
let rtcall_entry_count = rtcall_table_size / 8

(** Sandbox-relative address where code starts. *)
let code_origin = rtcall_table_size + guard_size (* 64 KiB *)

(** No executable bytes may live at or above this offset (128MiB below
    the end of the slot). *)
let code_limit = sandbox_size - (128 * 1024 * 1024)

(** Top of the stack: just below the top guard region. *)
let stack_top = sandbox_size - guard_size

(** Largest immediate reachable by a scaled load/store offset (the
    encodings cap immediates at 2^15 bytes, §2). *)
let max_mem_immediate = 1 lsl 15

(** Largest pre/post-index immediate (9 bits signed). *)
let max_index_immediate = 1 lsl 8

(** sp may drift this far via unguarded small-immediate arithmetic
    (§4.2: immediates below 2^10). *)
let max_sp_drift = 1 lsl 10

(** Number of sandboxes in a 48-bit user address space (§3: 64Ki,
    one slot possibly reserved for the runtime). *)
let max_sandboxes_48bit = (1 lsl (48 - sandbox_bits)) - 1

let slot_base index = Int64.mul (Int64.of_int index) (Int64.of_int sandbox_size)

(** Runtime-call table entry [k] lives at sandbox offset [8k]. *)
let rtcall_entry_offset k = 8 * k
