(** Sparse, page-protected 64-bit memory.

    Pages are 16KiB — the page size on Apple ARM64 machines, which is
    why the paper sizes guard regions at 48KiB (the smallest multiple of
    16KiB greater than 2^15 + 2^10).  Each page carries read / write /
    execute permissions; unmapped or mis-permissioned accesses fault,
    which is what makes the sandbox guard regions effective.

    Lookups go through a direct-mapped {e translation cache}: an
    [tc_size]-entry array keyed by page index whose entries hold the
    page and its permission bitmask, so the hot load/store/fetch path
    is an array probe plus a bit test instead of a hash-table lookup.
    A page's line folds in its 4 GiB slot number ({!tc_line}), so
    sandboxes in different slots do not evict each other's pages at
    the same offset.  Any mapping or permission change flushes the
    cache and fires [on_code_change], the invalidation hook the
    emulator's decode cache registers (see {!Machine.create}): stale
    translations and stale decoded instructions are impossible by
    construction.

    A mapped page costs host memory only once it is written: [map]
    backs every new page with the one shared, all-zero {!zero_page},
    and the first store gives the page bytes of its own.  The
    translation cache holds such a page's permission without [pb_w],
    so reads and fetches hit as usual while the first store fails the
    cache's write test, reaches [get_page]'s out-of-line end and
    allocates there ({!page_own_data}); every later store hits.  The
    hot paths gain no check.

    Each page also carries a clean mask, one bit per 512-byte chunk,
    and the space keeps a change log of the pages that changed while
    wholly clean (see [page.clean]): snapshot-based reset drains it to
    visit exactly the pages a request changed, and rewrites only the
    chunks whose bit the request cleared, so a reset costs O(bytes
    changed), not O(pages changed) x 16 KiB. *)

let page_bits = 14
let page_size = 1 lsl page_bits (* 16 KiB *)

(* Clean-mask geometry: 32 chunks of 512 bytes per page. *)
let chunk_bits = 9
let chunk_size = 1 lsl chunk_bits
let chunks_per_page = page_size / chunk_size
let all_clean = (1 lsl chunks_per_page) - 1

(** Permissions: one bitmask, bit 0 = read, bit 1 = write, bit 2 =
    execute, in the [access] order used by [get_page]; the translation
    cache stores a page's [perm] as it is. *)
type perm = int

let pb_r = 1
let pb_w = 2
let pb_x = 4
let perm_rw = pb_r lor pb_w
let perm_r = pb_r
let perm_rx = pb_r lor pb_x

type page = {
  mutable perm : perm;
  mutable data : Bytes.t;
      (** {!zero_page} until the page is first written, then the
          page's own bytes *)
  mutable clean : int;
      (** Bit [c] is set while chunk [c] (bytes [c * chunk_size] up to
          the next chunk) is unchanged since a consumer's baseline:
          snapshot-based reset (see [lib/libbox]) sets all
          [chunks_per_page] bits at its baseline.  A store clears the
          bits of the chunks it touches; a permission change through
          [map] / [protect] / [set_page_perm], or an [unmap], clears
          them all.  The first change to a wholly clean page also
          appends the page's index to the space's change log, so the
          consumer finds every page changed since its baseline without
          walking its pages, and within each page the chunks to
          rewrite.  [0] means the whole page is dirty; pages are born
          that way, so a space nobody cleans logs nothing, and the
          store path pays one mask test. *)
}

type access = Read | Write | Fetch

type fault = { addr : int64; access : access; reason : string }

exception Fault of fault

let access_to_string = function
  | Read -> "read"
  | Write -> "write"
  | Fetch -> "fetch"

let pp_fault fmt f =
  Format.fprintf fmt "%s fault at 0x%Lx (%s)"
    (access_to_string f.access)
    f.addr f.reason

(* Translation-cache geometry: 256 entries x 16KiB pages = 4MiB of
   reach, comfortably covering a proxy workload's working set. *)
let tc_size = 256
let tc_mask = tc_size - 1

(** The translation-cache line of page [idx]: its index plus an odd
    multiple of its 4 GiB slot number ([idx lsr 18]), masked.  Within
    one slot the fold adds a constant, so a single sandbox keeps its
    hit/miss pattern; pages at the same offset in the slots of warm
    instances served in turn get different lines instead of evicting
    each other on every call.  A run in one slot gains nothing and
    pays the shift, multiply and add on every probe (DESIGN.md §5a
    gives the measured cost). *)
let[@inline] tc_line (idx : int) =
  (idx + ((idx lsr (32 - page_bits)) * 157)) land tc_mask

let dummy_page = { perm = 0; data = Bytes.create 0; clean = 0 }

(** The bytes of every mapped page nobody has written yet.  Shared by
    all pages and all address spaces, so it is only ever read: code
    that writes page bytes takes them from {!page_own_data}. *)
let zero_page = Bytes.make page_size '\000'

(** The bytes of [p] that it may write: on first use a fresh zeroed
    copy replaces {!zero_page}.  A translation-cache line may still
    hold [p] without write permission; the next store through it
    re-caches the page in [get_page]'s out-of-line end. *)
let page_own_data (p : page) : Bytes.t =
  if p.data == zero_page then p.data <- Bytes.make page_size '\000';
  p.data

(* The permission the translation cache holds for [p]: a page still
   backed by {!zero_page} is cached without write permission, so its
   first store misses the cache's write test. *)
let[@inline] cached_perm (p : page) =
  if p.data == zero_page then p.perm land lnot pb_w else p.perm

type t = {
  pages : page Itbl.t;
  (* direct-mapped translation cache, keyed by page index *)
  tc_idx : int array;  (** cached page index per slot; -1 = invalid *)
  tc_page : page array;  (** valid iff [tc_idx] matches *)
  tc_bits : int array;  (** [perm] of the cached page *)
  mutable tc_hits : int;
      (** translation-cache hit/miss counters; flat mutable ints kept
          unconditionally, like {!Tlb.t}'s — an increment is cheaper
          than a telemetry-handle branch on this path *)
  mutable tc_misses : int;
  mutable on_code_change : int64 -> int -> unit;
      (** invalidation hook: [on_code_change addr len] is fired after
          any operation that can change what a fetch from
          [addr, addr+len) would observe — map / unmap / protect of the
          range, or a write into an executable page *)
  mutable changes : int array;
      (** the change log: indices of pages that changed while clean,
          in order, in [changes.(0 .. n_changes - 1)]; each page is
          logged at most once until a consumer drains it *)
  mutable n_changes : int;
}

let create () =
  {
    pages = Itbl.create 1024;
    tc_idx = Array.make tc_size (-1);
    tc_page = Array.make tc_size dummy_page;
    tc_bits = Array.make tc_size 0;
    tc_hits = 0;
    tc_misses = 0;
    on_code_change = (fun _ _ -> ());
    changes = [||];
    n_changes = 0;
  }

let page_index (addr : int64) = Int64.to_int (Int64.shift_right_logical addr page_bits)
let page_offset (addr : int64) = Int64.to_int addr land (page_size - 1)

let fault addr access reason = raise (Fault { addr; access; reason })

let tc_flush m = Array.fill m.tc_idx 0 tc_size (-1)

let code_changed m (addr : int64) (len : int) = m.on_code_change addr len

(** The clean-mask bits of the chunks holding the first and the last
    byte of a [size]-byte access at page offset [off]: every chunk it
    touches, since an access spans at most two chunks. *)
let[@inline] chunk_mask (off : int) (size : int) =
  (1 lsl (off lsr chunk_bits)) lor (1 lsl ((off + size - 1) lsr chunk_bits))

(* A change to clean chunks [mask] of page [p] at index [idx]: clear
   their bits, and if the page was wholly clean append it to the change
   log.  Callers test [p.clean land mask] first, so the common case
   never leaves the store path. *)
let[@inline never] log_change m (p : page) (idx : int) (mask : int) =
  if p.clean = all_clean then begin
    if m.n_changes = Array.length m.changes then begin
      let grown = Array.make (max 16 (2 * m.n_changes)) 0 in
      Array.blit m.changes 0 grown 0 m.n_changes;
      m.changes <- grown
    end;
    m.changes.(m.n_changes) <- idx;
    m.n_changes <- m.n_changes + 1
  end;
  p.clean <- p.clean land lnot mask

let set_perm m (idx : int) (p : page) (perm : perm) =
  if p.perm <> perm then begin
    if p.clean <> 0 then log_change m p idx all_clean;
    p.perm <- perm
  end

(** Map [len] bytes starting at [addr] (both page-aligned) with [perm].
    New pages read as zeros and share {!zero_page} until first
    written; already-mapped pages are re-protected, not cleared. *)
let map m ~(addr : int64) ~(len : int) ~(perm : perm) =
  if page_offset addr <> 0 then invalid_arg "Memory.map: unaligned address";
  if len mod page_size <> 0 then invalid_arg "Memory.map: unaligned length";
  let first = page_index addr in
  for i = first to first + (len / page_size) - 1 do
    match Itbl.find_opt m.pages i with
    | Some p -> set_perm m i p perm
    | None ->
        Itbl.replace m.pages i { perm; data = zero_page; clean = 0 }
  done;
  tc_flush m;
  code_changed m addr len

let unmap m ~(addr : int64) ~(len : int) =
  if page_offset addr <> 0 || len mod page_size <> 0 then
    invalid_arg "Memory.unmap: unaligned";
  let first = page_index addr in
  for i = first to first + (len / page_size) - 1 do
    (match Itbl.find_opt m.pages i with
    | Some p when p.clean <> 0 -> log_change m p i all_clean
    | _ -> ());
    Itbl.remove m.pages i
  done;
  tc_flush m;
  code_changed m addr len

let is_mapped m (addr : int64) = Itbl.mem m.pages (page_index addr)

(** Change the protection of every page overlapping [addr, addr+len).
    [len] is rounded up to whole pages; [len = 0] is a no-op. *)
let protect m ~(addr : int64) ~(len : int) ~(perm : perm) =
  if len < 0 then invalid_arg "Memory.protect: negative length";
  if len > 0 then begin
    let first = page_index addr in
    let last = page_index (Int64.add addr (Int64.of_int (len - 1))) in
    for i = first to last do
      match Itbl.find_opt m.pages i with
      | Some p -> set_perm m i p perm
      | None -> invalid_arg "Memory.protect: unmapped page"
    done;
    tc_flush m;
    code_changed m addr len
  end

(** Re-protect a single page by index (used by fork to clone page
    permissions); goes through the same invalidation as {!protect}. *)
let set_page_perm m (idx : int) (perm : perm) =
  match Itbl.find_opt m.pages idx with
  | None -> invalid_arg "Memory.set_page_perm: unmapped page"
  | Some p ->
      set_perm m idx p perm;
      tc_flush m;
      code_changed m (Int64.shift_left (Int64.of_int idx) page_bits) page_size

(* [get_page]'s out-of-line end, when the permission cached in line
   [slot] lacks [access]'s bit: a fault, unless the page is writable
   and only its cached permission lacks [pb_w] (see {!cached_perm}) —
   its first store, which gives the page bytes of its own and caches
   its full permission.  The access was already counted as a hit or a
   miss, exactly as for any page. *)
let[@inline never] no_cached_perm m (slot : int) (addr : int64)
    (access : access) : page =
  let p = Array.unsafe_get m.tc_page slot in
  match access with
  | Write when p.perm land pb_w <> 0 ->
      ignore (page_own_data p);
      m.tc_bits.(slot) <- p.perm;
      p
  | Read -> fault addr access "no read permission"
  | Write -> fault addr access "no write permission"
  | Fetch -> fault addr access "not executable"

(* The translation-cache lookup: one array probe + one bit test on a
   hit; misses fill the slot from the page table.  The page index is
   shifted out of the full 64-bit address, as in [page_index]: an
   address with bit 63 set must not alias the page below 2^63. *)
let[@inline] get_page m (addr : int64) (access : access) : page =
  let idx = Int64.to_int (Int64.shift_right_logical addr page_bits) in
  let slot = tc_line idx in
  let bit = match access with Read -> pb_r | Write -> pb_w | Fetch -> pb_x in
  if Array.unsafe_get m.tc_idx slot = idx then begin
    m.tc_hits <- m.tc_hits + 1;
    if Array.unsafe_get m.tc_bits slot land bit = 0 then
      no_cached_perm m slot addr access
    else Array.unsafe_get m.tc_page slot
  end
  else begin
    m.tc_misses <- m.tc_misses + 1;
    match Itbl.find m.pages idx with
    | exception Not_found -> fault addr access "unmapped"
    | p ->
        let bits = cached_perm p in
        m.tc_idx.(slot) <- idx;
        m.tc_page.(slot) <- p;
        m.tc_bits.(slot) <- bits;
        if bits land bit = 0 then no_cached_perm m slot addr access else p
  end

(** The bytes of page [idx] when the translation cache holds it with
    read permission, counting the hit as [get_page] would; otherwise
    [Bytes.empty], counting nothing, and the caller takes {!read},
    which counts, faults and reads as usual.  The emulator's loads
    inline their hit path on this: the page index is an untagged int
    and the result a pointer, so no address or value is boxed. *)
let[@inline] read_hit m (idx : int) : Bytes.t =
  let slot = tc_line idx in
  if
    Array.unsafe_get m.tc_idx slot = idx
    && Array.unsafe_get m.tc_bits slot land pb_r <> 0
  then begin
    m.tc_hits <- m.tc_hits + 1;
    (Array.unsafe_get m.tc_page slot).data
  end
  else Bytes.empty

(** The same for a [size]-byte store at page offset [off]: the page
    must be cached writable (so it has bytes of its own, see
    {!cached_perm}) and not executable, and the chunks of the store's
    first and last byte already dirty, so that the store needs neither
    the clean mask, the change log nor a decode-cache invalidation;
    otherwise the caller takes {!write}.  A page nobody
    cleaned (mask 0) skips the chunk arithmetic. *)
let[@inline] write_hit m (idx : int) (off : int) (size : int) : Bytes.t =
  let slot = tc_line idx in
  if
    Array.unsafe_get m.tc_idx slot = idx
    && Array.unsafe_get m.tc_bits slot land (pb_w lor pb_x) = pb_w
    &&
    let clean = (Array.unsafe_get m.tc_page slot).clean in
    clean = 0 || clean land chunk_mask off size = 0
  then begin
    m.tc_hits <- m.tc_hits + 1;
    (Array.unsafe_get m.tc_page slot).data
  end
  else Bytes.empty

(* Writes into an executable page must invalidate decoded instructions
   covering it.  Pages are almost never writable+executable, so the
   check is a single bit test in practice. *)
let[@inline] wx_invalidate m (p : page) (addr : int64) (len : int) =
  if p.perm land pb_x <> 0 then code_changed m addr len

(* Single-byte primitives; multi-byte accesses may cross pages. *)

let read_u8 m addr =
  let p = get_page m addr Read in
  Bytes.get_uint8 p.data (page_offset addr)

let write_u8 m addr v =
  let p = get_page m addr Write in
  let off = page_offset addr in
  let mask = 1 lsl (off lsr chunk_bits) in
  if p.clean land mask <> 0 then log_change m p (page_index addr) mask;
  wx_invalidate m p addr 1;
  Bytes.set_uint8 p.data off v

(** Read [size] (1/2/4/8) bytes little-endian as an unsigned Int64
    (fully represented; 8-byte reads use the native int64 range). *)
let read m (addr : int64) (size : int) : int64 =
  let off = page_offset addr in
  if off + size <= page_size then begin
    let p = get_page m addr Read in
    match size with
    | 8 -> Bytes.get_int64_le p.data off
    | 4 -> Int64.logand (Int64.of_int32 (Bytes.get_int32_le p.data off)) 0xFFFFFFFFL
    | 2 -> Int64.of_int (Bytes.get_uint16_le p.data off)
    | 1 -> Int64.of_int (Bytes.get_uint8 p.data off)
    | _ -> invalid_arg "Memory.read: bad size"
  end
  else begin
    (* page-crossing: byte by byte *)
    let v = ref 0L in
    for i = size - 1 downto 0 do
      let b = read_u8 m (Int64.add addr (Int64.of_int i)) in
      v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int b)
    done;
    !v
  end

let write m (addr : int64) (size : int) (v : int64) =
  let off = page_offset addr in
  if off + size <= page_size then begin
    let p = get_page m addr Write in
    let mask = chunk_mask off size in
    if p.clean land mask <> 0 then log_change m p (page_index addr) mask;
    wx_invalidate m p addr size;
    match size with
    | 8 -> Bytes.set_int64_le p.data off v
    | 4 -> Bytes.set_int32_le p.data off (Int64.to_int32 v)
    | 2 -> Bytes.set_uint16_le p.data off (Int64.to_int v land 0xffff)
    | 1 -> Bytes.set_uint8 p.data off (Int64.to_int v land 0xff)
    | _ -> invalid_arg "Memory.write: bad size"
  end
  else
    for i = 0 to size - 1 do
      write_u8 m
        (Int64.add addr (Int64.of_int i))
        (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xff)
    done

(** Fetch a 4-byte instruction word (requires execute permission). *)
let fetch m (addr : int64) : int =
  if Int64.logand addr 3L <> 0L then fault addr Fetch "misaligned pc";
  let p = get_page m addr Fetch in
  Int32.to_int (Bytes.get_int32_le p.data (page_offset addr)) land 0xFFFFFFFF

(** Bulk copy-in (for loaders). *)
let write_bytes m (addr : int64) (b : bytes) =
  Bytes.iteri
    (fun i c -> write_u8 m (Int64.add addr (Int64.of_int i)) (Char.code c))
    b

let read_bytes m (addr : int64) (len : int) : bytes =
  Bytes.init len (fun i ->
      Char.chr (read_u8 m (Int64.add addr (Int64.of_int i))))

(** The page's bytes, to read: {!zero_page} until the page is first
    written.  Writers take {!page_own_data}. *)
let page_data (p : page) = p.data
let page_perm (p : page) = p.perm
let page_clean (p : page) = p.clean
let page_mark_clean (p : page) = p.clean <- all_clean

(** Take every page index in [\[lo, hi)] out of the change log, calling
    [f x] on each in log order; entries outside the range stay.  [f]
    must leave some chunk of its page dirty until it is done with it
    (marking it clean last), so that nothing it does appends to the log
    being drained.  [x] is passed apart from [f] so that a caller with
    a toplevel [f] builds no closure. *)
let drain_changes m ~(lo : int) ~(hi : int) (f : 'a -> int -> unit) (x : 'a)
    =
  let kept = ref 0 in
  for k = 0 to m.n_changes - 1 do
    let idx = m.changes.(k) in
    if idx >= lo && idx < hi then f x idx
    else begin
      m.changes.(!kept) <- idx;
      incr kept
    end
  done;
  m.n_changes <- !kept

(** The change log's page indices, in log order. *)
let changed_pages m = Array.to_list (Array.sub m.changes 0 m.n_changes)

(** The mapped page at index [idx] (fork's bulk copy, reset's restore,
    postmortems); raises [Not_found] when none is mapped there, so a
    hit builds no option. *)
let page_at m (idx : int) = Itbl.find m.pages idx

(** Unordered iteration over the mapped pages and their indices. *)
let iter_pages m (f : int -> page -> unit) = Itbl.iter f m.pages
