(** Minimal ELF64 writer/reader for AArch64 executables.

    The runtime loads sandbox programs from real ELF images: the
    verifier reads the executable segment's bytes out of the file, so
    the trust boundary is the binary itself, exactly as in the paper
    (Section 5.3: "ELF executables are verified and then loaded into
    appropriate 4GiB slots").

    Only what the system needs is implemented: little-endian ELF64,
    [ET_EXEC], [EM_AARCH64], [PT_LOAD] program headers, and — for the
    telemetry profiler — an optional [.symtab]/[.strtab] pair so a
    sampled pc histogram can be folded back into workload function
    names.  Virtual addresses are sandbox-relative (see
    {!Lfi_arm64.Assemble}). *)

type segment = {
  vaddr : int;  (** sandbox-relative address *)
  flags : int;  (** PF_X = 1, PF_W = 2, PF_R = 4 *)
  data : bytes;  (** file contents (p_filesz bytes) *)
  memsz : int;  (** in-memory size; the tail beyond [data] is BSS *)
}

type t = {
  entry : int;
  segments : segment list;
  symbols : (string * int) list;
      (** symbol name -> sandbox-relative address; empty when the
          image was written or read without a symbol table *)
  sites : Lfi_telemetry.Overhead.site list;
      (** the rewriter's overhead-attribution site table, carried in a
          [.lfi_sites] sidecar section; empty for native images or
          images written before the profiler existed *)
}

let pf_x = 1
let pf_w = 2
let pf_r = 4

let ehsize = 64
let phentsize = 56
let shentsize = 64
let symentsize = 24

exception Bad_elf of string

(* ------------------------------------------------------------------ *)
(* Writing                                                             *)
(* ------------------------------------------------------------------ *)

(* Section-header-string-table layout, shared by writer and tests. *)
let shstrtab_data = "\000.symtab\000.strtab\000.shstrtab\000"
let shname_symtab = 1
let shname_strtab = 9
let shname_shstrtab = 17

(* [.lfi_sites] payload: an 8-byte header (magic "LFIS", u32 version)
   followed by one 12-byte record per site: u32 pc, u32 orig_pc,
   u8 category code, u8 inserted flag, u16 reserved. *)
let sites_magic = "LFIS"
let sites_version = 1
let sites_entsize = 12
let shname_sites = String.length shstrtab_data (* 27 *)

let align8 v = (v + 7) land lnot 7

let write (t : t) : bytes =
  let phnum = List.length t.segments in
  let header_bytes = ehsize + (phnum * phentsize) in
  let seg_bytes =
    List.fold_left (fun acc s -> acc + Bytes.length s.data) 0 t.segments
  in
  (* Optional .symtab / .strtab / .shstrtab (plus the null section and,
     when a site table is present, .lfi_sites): written after the
     loadable segments so a symbol-free, site-free image is
     byte-for-byte what the seed writer produced. *)
  let with_sites = t.sites <> [] in
  let with_syms = t.symbols <> [] || with_sites in
  let nsyms = List.length t.symbols in
  let strtab =
    if not with_syms then ""
    else "\000" ^ String.concat "" (List.map (fun (n, _) -> n ^ "\000") t.symbols)
  in
  let shstrtab =
    if with_sites then shstrtab_data ^ ".lfi_sites\000" else shstrtab_data
  in
  let symtab_off = align8 (header_bytes + seg_bytes) in
  let symtab_size = (nsyms + 1) * symentsize in
  let strtab_off = symtab_off + symtab_size in
  let shstr_off = strtab_off + String.length strtab in
  let sites_off = align8 (shstr_off + String.length shstrtab) in
  let sites_size =
    if with_sites then 8 + (List.length t.sites * sites_entsize) else 0
  in
  let shoff =
    if with_sites then align8 (sites_off + sites_size)
    else align8 (shstr_off + String.length shstrtab)
  in
  let shnum = if with_sites then 5 else 4 in
  let total =
    if with_syms then shoff + (shnum * shentsize) else header_bytes + seg_bytes
  in
  let b = Bytes.make total '\000' in
  let u8 off v = Bytes.set_uint8 b off v in
  let u16 off v = Bytes.set_uint16_le b off v in
  let u32 off v = Bytes.set_int32_le b off (Int32.of_int v) in
  let u64 off v = Bytes.set_int64_le b off (Int64.of_int v) in
  (* e_ident *)
  u8 0 0x7f;
  u8 1 (Char.code 'E');
  u8 2 (Char.code 'L');
  u8 3 (Char.code 'F');
  u8 4 2 (* ELFCLASS64 *);
  u8 5 1 (* ELFDATA2LSB *);
  u8 6 1 (* EV_CURRENT *);
  u16 16 2 (* ET_EXEC *);
  u16 18 0xB7 (* EM_AARCH64 *);
  u32 20 1 (* e_version *);
  u64 24 t.entry;
  u64 32 ehsize (* e_phoff *);
  u64 40 (if with_syms then shoff else 0) (* e_shoff *);
  u32 48 0 (* e_flags *);
  u16 52 ehsize;
  u16 54 phentsize;
  u16 56 phnum;
  if with_syms then begin
    u16 58 shentsize;
    u16 60 shnum;
    u16 62 3 (* e_shstrndx: .shstrtab *)
  end;
  (* segments *)
  let off = ref header_bytes in
  List.iteri
    (fun i s ->
      let ph = ehsize + (i * phentsize) in
      u32 ph 1 (* PT_LOAD *);
      u32 (ph + 4) s.flags;
      u64 (ph + 8) !off (* p_offset *);
      u64 (ph + 16) s.vaddr;
      u64 (ph + 24) s.vaddr (* p_paddr *);
      u64 (ph + 32) (Bytes.length s.data) (* p_filesz *);
      u64 (ph + 40) s.memsz;
      u64 (ph + 48) Lfi_arm64.Assemble.default_origin (* p_align *);
      Bytes.blit s.data 0 b !off (Bytes.length s.data);
      off := !off + Bytes.length s.data)
    t.segments;
  if with_syms then begin
    (* .symtab: null entry, then one STT_FUNC / STB_GLOBAL / SHN_ABS
       entry per symbol (addresses are sandbox-relative, not
       section-relative, so SHN_ABS is the honest binding) *)
    let name_off = ref 1 in
    List.iteri
      (fun i (name, value) ->
        let e = symtab_off + ((i + 1) * symentsize) in
        u32 e !name_off (* st_name *);
        u8 (e + 4) 0x12 (* st_info: GLOBAL | FUNC *);
        u16 (e + 6) 0xfff1 (* st_shndx: SHN_ABS *);
        u64 (e + 8) value;
        name_off := !name_off + String.length name + 1)
      t.symbols;
    Bytes.blit_string strtab 0 b strtab_off (String.length strtab);
    Bytes.blit_string shstrtab 0 b shstr_off (String.length shstrtab);
    if with_sites then begin
      Bytes.blit_string sites_magic 0 b sites_off 4;
      u32 (sites_off + 4) sites_version;
      List.iteri
        (fun i (s : Lfi_telemetry.Overhead.site) ->
          let e = sites_off + 8 + (i * sites_entsize) in
          u32 e s.pc;
          u32 (e + 4) s.orig_pc;
          u8 (e + 8) (Lfi_telemetry.Overhead.category_code s.category);
          u8 (e + 9) (if s.inserted then 1 else 0))
        t.sites
    end;
    (* section headers: [null; .symtab; .strtab; .shstrtab; .lfi_sites?] *)
    let sh i ~name ~ty ~off ~size ~link ~info ~entsize =
      let s = shoff + (i * shentsize) in
      u32 s name;
      u32 (s + 4) ty;
      u64 (s + 24) off;
      u64 (s + 32) size;
      u32 (s + 40) link;
      u32 (s + 44) info;
      u64 (s + 48) 8 (* sh_addralign *);
      u64 (s + 56) entsize
    in
    sh 1 ~name:shname_symtab ~ty:2 (* SHT_SYMTAB *) ~off:symtab_off
      ~size:symtab_size ~link:2 ~info:1 ~entsize:symentsize;
    sh 2 ~name:shname_strtab ~ty:3 (* SHT_STRTAB *) ~off:strtab_off
      ~size:(String.length strtab) ~link:0 ~info:0 ~entsize:0;
    sh 3 ~name:shname_shstrtab ~ty:3 ~off:shstr_off
      ~size:(String.length shstrtab) ~link:0 ~info:0 ~entsize:0;
    if with_sites then
      sh 4 ~name:shname_sites ~ty:1 (* SHT_PROGBITS *) ~off:sites_off
        ~size:sites_size ~link:0 ~info:0 ~entsize:sites_entsize
  end;
  b

(* ------------------------------------------------------------------ *)
(* Reading                                                             *)
(* ------------------------------------------------------------------ *)

let read (b : bytes) : t =
  let len = Bytes.length b in
  if len < ehsize then raise (Bad_elf "truncated header");
  let u8 off = Bytes.get_uint8 b off in
  let u16 off = Bytes.get_uint16_le b off in
  let u64 off = Int64.to_int (Bytes.get_int64_le b off) in
  if u8 0 <> 0x7f || u8 1 <> Char.code 'E' || u8 2 <> Char.code 'L'
     || u8 3 <> Char.code 'F' then raise (Bad_elf "bad magic");
  if u8 4 <> 2 then raise (Bad_elf "not ELF64");
  if u8 5 <> 1 then raise (Bad_elf "not little-endian");
  if u16 18 <> 0xB7 then raise (Bad_elf "not AArch64");
  let entry = u64 24 in
  let phoff = u64 32 in
  let phnum = u16 56 in
  let phentsize' = u16 54 in
  if phentsize' <> phentsize then raise (Bad_elf "bad phentsize");
  let segments =
    List.init phnum (fun i ->
        let ph = phoff + (i * phentsize) in
        if ph + phentsize > len then raise (Bad_elf "truncated phdr");
        let p_type = Int32.to_int (Bytes.get_int32_le b ph) in
        if p_type <> 1 then None
        else
          let flags = Int32.to_int (Bytes.get_int32_le b (ph + 4)) in
          let offset = u64 (ph + 8) in
          let vaddr = u64 (ph + 16) in
          let filesz = u64 (ph + 32) in
          let memsz = u64 (ph + 40) in
          if offset + filesz > len then raise (Bad_elf "segment past EOF");
          if memsz < filesz then raise (Bad_elf "memsz < filesz");
          Some { vaddr; flags; data = Bytes.sub b offset filesz; memsz })
    |> List.filter_map Fun.id
  in
  (* Optional metadata sections: the first SHT_SYMTAB (names resolved
     through its sh_link string table) and the [.lfi_sites] sidecar
     (found by name through e_shstrndx).  e_shoff = 0 (the seed layout)
     means no sections at all. *)
  let symbols, sites =
    let shoff = u64 40 in
    let shnum = u16 60 in
    if shoff = 0 || shnum = 0 then ([], [])
    else begin
      if u16 58 <> shentsize then raise (Bad_elf "bad shentsize");
      if shoff + (shnum * shentsize) > len then raise (Bad_elf "truncated shdrs");
      let u32at off = Int32.to_int (Bytes.get_int32_le b off) land 0xffffffff in
      let sh_name i = u32at (shoff + (i * shentsize)) in
      let sh_type i = Int32.to_int (Bytes.get_int32_le b (shoff + (i * shentsize) + 4)) in
      let sh_off i = u64 (shoff + (i * shentsize) + 24) in
      let sh_size i = u64 (shoff + (i * shentsize) + 32) in
      let sh_link i = Int32.to_int (Bytes.get_int32_le b (shoff + (i * shentsize) + 40)) in
      let rec find_symtab i =
        if i >= shnum then None
        else if sh_type i = 2 (* SHT_SYMTAB *) then Some i
        else find_symtab (i + 1)
      in
      let symbols =
        match find_symtab 0 with
        | None -> []
        | Some si ->
            let link = sh_link si in
            if link >= shnum || sh_type link <> 3 then
              raise (Bad_elf "symtab without strtab");
            let str_off = sh_off link and str_size = sh_size link in
            if str_off + str_size > len then raise (Bad_elf "truncated strtab");
            let name_at off =
              if off >= str_size then raise (Bad_elf "bad st_name");
              let stop = Bytes.index_from b (str_off + off) '\000' in
              Bytes.sub_string b (str_off + off) (stop - (str_off + off))
            in
            let sym_off = sh_off si and sym_size = sh_size si in
            if sym_off + sym_size > len then raise (Bad_elf "truncated symtab");
            let nsyms = sym_size / symentsize in
            List.init nsyms (fun i ->
                let e = sym_off + (i * symentsize) in
                let st_name = Int32.to_int (Bytes.get_int32_le b e) in
                if st_name = 0 then None
                else Some (name_at st_name, u64 (e + 8)))
            |> List.filter_map Fun.id
      in
      (* section names live in the e_shstrndx string table *)
      let shstrndx = u16 62 in
      let section_name =
        if shstrndx = 0 || shstrndx >= shnum || sh_type shstrndx <> 3 then
          fun _ -> ""
        else
          let str_off = sh_off shstrndx and str_size = sh_size shstrndx in
          fun i ->
            let noff = sh_name i in
            if noff >= str_size then ""
            else
              let stop = Bytes.index_from b (str_off + noff) '\000' in
              Bytes.sub_string b (str_off + noff) (stop - (str_off + noff))
      in
      let rec find_sites i =
        if i >= shnum then None
        else if section_name i = ".lfi_sites" then Some i
        else find_sites (i + 1)
      in
      let sites =
        match find_sites 0 with
        | None -> []
        | Some si ->
            let off = sh_off si and size = sh_size si in
            if off + size > len then raise (Bad_elf "truncated .lfi_sites");
            if size < 8 || Bytes.sub_string b off 4 <> sites_magic then
              raise (Bad_elf "bad .lfi_sites header");
            if u32at (off + 4) <> sites_version then
              raise (Bad_elf "unsupported .lfi_sites version");
            let n = (size - 8) / sites_entsize in
            List.init n (fun i ->
                let e = off + 8 + (i * sites_entsize) in
                match
                  Lfi_telemetry.Overhead.category_of_code (u8 (e + 8))
                with
                | None -> raise (Bad_elf "bad .lfi_sites category")
                | Some category ->
                    { Lfi_telemetry.Overhead.pc = u32at e;
                      category;
                      inserted = u8 (e + 9) <> 0;
                      orig_pc = u32at (e + 4) })
      in
      (symbols, sites)
    end
  in
  { entry; segments; symbols; sites }

(* ------------------------------------------------------------------ *)
(* Bridges                                                             *)
(* ------------------------------------------------------------------ *)

(** The file contents of a writable segment: its initialised bytes
    without their trailing zeros, which join the BSS (zero file size,
    nonzero memory size), as a real linker would arrange. *)
let trim_bss (data : bytes) : bytes =
  let rec last k = if k > 0 && Bytes.get data (k - 1) = '\000' then last (k - 1) else k in
  Bytes.sub data 0 (last (Bytes.length data))

(** Package an assembled image as an ELF executable, carrying the
    assembler's label table as ELF symbols (sorted by address, then
    name, so the written bytes are deterministic) and, when the image
    came out of the rewriter, its overhead site table ([?sites]). *)
let of_image ?(sites = []) (img : Lfi_arm64.Assemble.image) : t =
  let symbols =
    Hashtbl.fold (fun n v acc -> (n, v) :: acc) img.Lfi_arm64.Assemble.symbols []
    |> List.sort (fun (n1, v1) (n2, v2) ->
           match compare (v1 : int) v2 with 0 -> compare n1 n2 | c -> c)
  in
  {
    entry = img.Lfi_arm64.Assemble.entry;
    segments =
      [ { vaddr = img.origin; flags = pf_r lor pf_x; data = img.text;
          memsz = Bytes.length img.text };
        { vaddr = img.data_origin; flags = pf_r lor pf_w;
          data = trim_bss img.data; memsz = img.data_size } ];
    symbols;
    sites;
  }

(** Look up an exported symbol's sandbox-relative address.  This is how
    library sandboxing (lib/libbox) resolves host-callable entry points:
    every MiniC function label lands in [symbols], so an export list is
    just a set of names to find here. *)
let find_symbol (t : t) (name : string) : int option =
  List.find_map (fun (n, v) -> if String.equal n name then Some v else None)
    t.symbols

(** The executable segment's bytes (what the verifier checks). *)
let text_segment (t : t) : segment option =
  List.find_opt (fun s -> s.flags land pf_x <> 0) t.segments

(** The instruction at address [pc] of the executable segment, if
    [pc] lies in it. *)
let decode_at (t : t) (pc : int) : Lfi_arm64.Insn.t option =
  match text_segment t with
  | Some s when pc >= s.vaddr && pc + 4 <= s.vaddr + Bytes.length s.data ->
      Some
        (Lfi_arm64.Isa.decode
           (Int32.to_int (Bytes.get_int32_le s.data (pc - s.vaddr))
           land 0xffffffff))
  | _ -> None

let text_size (t : t) =
  match text_segment t with Some s -> Bytes.length s.data | None -> 0

(** Loadable file size: header + program headers + segment contents.
    Deliberately excludes the optional symbol-table sections, which are
    debug metadata — the code-size experiment compares what must be
    shipped and mapped, and symbols would skew it. *)
let total_size (t : t) =
  List.fold_left
    (fun acc s -> acc + Bytes.length s.data)
    (ehsize + (List.length t.segments * phentsize))
    t.segments
