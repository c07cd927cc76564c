(** Assembler: one layout walk gives every label its address and sizes
    text and data, then one emission walk encodes instructions to
    machine code and writes the data.

    All addresses are *sandbox-relative*: the image is linked at
    [origin] (by default 64KiB, the start of code in the LFI sandbox
    layout of Figure 1) and pointer-valued data (".quad symbol") stores
    sandbox-relative addresses.  This is exactly the paper's fork
    argument (Section 5.3): because every access is guarded, pointers
    are 32-bit offsets into the sandbox and the image can be placed at
    any 4GiB-aligned base without relocation.  Native (unsandboxed)
    processes are simply loaded at base 0, where relative and absolute
    addresses coincide. *)

type error = { index : int; msg : string }

exception Error of error

let errorf index fmt =
  Printf.ksprintf (fun msg -> raise (Error { index; msg })) fmt

(** Default link origin: code starts 64KiB into the sandbox (after the
    runtime-call-table page and the low guard region). *)
let default_origin = 0x10000

type section = Text | Data

type image = {
  origin : int;  (** sandbox-relative address of the first text byte *)
  text : bytes;
  data_origin : int;
  data : bytes;
      (** the initialised prefix of the data section: it ends where the
          last byte-writing directive does, and everything after it is
          zero fill (.zero, .skip, .space, .align) that is never
          allocated *)
  data_size : int;  (** the data section's full size, BSS included *)
  symbols : (string, int) Hashtbl.t;
      (** symbol -> sandbox-relative address *)
  entry : int;  (** address of [_start] (or the first instruction) *)
}

let align_up v a = (v + a - 1) / a * a

(* ------------------------------------------------------------------ *)
(* Directive argument parsing                                          *)
(* ------------------------------------------------------------------ *)

let split_args s =
  String.split_on_char ',' s |> List.map String.trim
  |> List.filter (fun x -> x <> "")

(** Unescape a quoted string literal (supports the n, t, 0, backslash
    and quote escapes). *)
let parse_string_lit index (s : string) =
  let s = String.trim s in
  let n = String.length s in
  if n < 2 || s.[0] <> '"' || s.[n - 1] <> '"' then
    errorf index "expected string literal, got %S" s
  else begin
    let buf = Buffer.create (n - 2) in
    let i = ref 1 in
    while !i < n - 1 do
      (if s.[!i] = '\\' && !i + 1 < n - 1 then begin
         (match s.[!i + 1] with
         | 'n' -> Buffer.add_char buf '\n'
         | 't' -> Buffer.add_char buf '\t'
         | '0' -> Buffer.add_char buf '\000'
         | '\\' -> Buffer.add_char buf '\\'
         | '"' -> Buffer.add_char buf '"'
         | c -> Buffer.add_char buf c);
         incr i
       end
       else Buffer.add_char buf s.[!i]);
      incr i
    done;
    Buffer.contents buf
  end

(** Does the directive write bytes?  The others are zero fill or
    ignored. *)
let writes_bytes = function
  | ".quad" | ".xword" | ".dword" | ".word" | ".long" | ".4byte" | ".short"
  | ".hword" | ".2byte" | ".byte" | ".double" | ".float" | ".asciz"
  | ".string" | ".ascii" ->
      true
  | _ -> false

(** Size in bytes contributed by a directive, for the layout pass.
    [at] is the current offset within the section (needed by .align). *)
let directive_size index ~at (name : string) (args : string) : int =
  match name with
  | ".quad" | ".xword" | ".dword" -> 8 * List.length (split_args args)
  | ".word" | ".long" | ".4byte" -> 4 * List.length (split_args args)
  | ".short" | ".hword" | ".2byte" -> 2 * List.length (split_args args)
  | ".byte" -> List.length (split_args args)
  | ".double" -> 8 * List.length (split_args args)
  | ".float" -> 4 * List.length (split_args args)
  | ".asciz" | ".string" -> String.length (parse_string_lit index args) + 1
  | ".ascii" -> String.length (parse_string_lit index args)
  | ".zero" | ".skip" | ".space" -> (
      match int_of_string_opt (String.trim args) with
      | Some n when n >= 0 -> n
      | _ -> errorf index "bad %s size %S" name args)
  | ".align" | ".p2align" -> (
      match int_of_string_opt (String.trim args) with
      | Some n when n >= 0 && n < 16 -> align_up at (1 lsl n) - at
      | _ -> errorf index "bad alignment %S" args)
  | ".balign" -> (
      match int_of_string_opt (String.trim args) with
      | Some n when n > 0 -> align_up at n - at
      | _ -> errorf index "bad alignment %S" args)
  | _ -> 0 (* .globl, .type, .size, .file, ... are ignored *)

let section_of_directive name args =
  match name with
  | ".text" -> Some Text
  | ".data" | ".bss" | ".rodata" -> Some Data
  | ".section" ->
      let arg = List.nth_opt (split_args args) 0 in
      (match arg with
      | Some ".text" -> Some Text
      | Some _ -> Some Data
      | None -> Some Data)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Layout                                                              *)
(* ------------------------------------------------------------------ *)

type layout = {
  labels : (string, int) Hashtbl.t;  (** label -> sandbox-relative address *)
  text_size : int;
  data_size : int;
  data_init : int;
      (** end of the last byte-writing directive in the data section *)
  data_addr : int;  (** the data section's address, 16KiB-aligned *)
}

(** The layout walk: one pass over [src] that gives every label its
    address, rejects duplicate labels and instructions outside .text,
    and sizes both sections and the data section's initialised prefix.
    [on_insn] sees the text offset of every
    instruction, in order.  Data labels are recorded as section offsets
    and rebased once the text size fixes the data origin. *)
let layout ~origin ?(on_insn = ignore) (src : Source.t) : layout =
  let labels : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let data_labels = ref [] in
  let tpos = ref 0 and dpos = ref 0 and data_init = ref 0 in
  let section = ref Text in
  List.iteri
    (fun idx item ->
      match item with
      | Source.Label l -> (
          if Hashtbl.mem labels l then errorf idx "duplicate label %S" l;
          match !section with
          | Text -> Hashtbl.add labels l (origin + !tpos)
          | Data ->
              Hashtbl.add labels l !dpos;
              data_labels := (l, !dpos) :: !data_labels)
      | Source.Insn _ ->
          if !section <> Text then
            errorf idx "instruction outside .text section";
          on_insn !tpos;
          tpos := !tpos + 4
      | Source.Directive (name, args) -> (
          match section_of_directive name args with
          | Some s -> section := s
          | None -> (
              match !section with
              | Text -> tpos := !tpos + directive_size idx ~at:!tpos name args
              | Data ->
                  dpos := !dpos + directive_size idx ~at:!dpos name args;
                  if writes_bytes name then data_init := !dpos)))
    src;
  (* The data section starts on its own 16KiB page so that the loader
     can give text and data different page protections (W^X). *)
  let data_addr = align_up (origin + !tpos) 16384 in
  List.iter
    (fun (l, off) -> Hashtbl.replace labels l (data_addr + off))
    !data_labels;
  { labels; text_size = !tpos; data_size = !dpos; data_init = !data_init;
    data_addr }

(* ------------------------------------------------------------------ *)
(* Assembly                                                            *)
(* ------------------------------------------------------------------ *)

let float_arg idx a =
  match float_of_string_opt a with
  | Some f -> f
  | None -> errorf idx "bad floating-point value %S" a

(** A data directive's integer argument, up to full 64-bit width (hex
    constants up to 0xFFFFFFFFFFFFFFFF); [None] for a symbol reference.
    A token that starts like a number must be one. *)
let int_arg idx a =
  match Int64.of_string_opt a with
  | Some v -> Some v
  | None when a <> "" && (a.[0] = '-' || (a.[0] >= '0' && a.[0] <= '9')) ->
      errorf idx "bad integer %S" a
  | None -> None

(** Assemble a parsed source file into an image: the layout walk, then
    one emission walk that encodes instructions and writes data.  Only
    the data section's initialised prefix is allocated; the BSS after
    it is carried as [data_size]. *)
let assemble ?(origin = default_origin) (src : Source.t) : image =
  let { labels = symbols; text_size; data_size; data_init;
        data_addr = data_origin } =
    layout ~origin src
  in
  let text = Bytes.make text_size '\000'
  and data = Bytes.make data_init '\000' in
  let resolve idx name =
    match Hashtbl.find_opt symbols name with
    | Some a -> a
    | None -> errorf idx "undefined symbol %S" name
  in
  let tpos = ref 0 and dpos = ref 0 in
  let section = ref Text in
  List.iteri
    (fun idx item ->
      match item with
      | Source.Label _ -> ()
      | Source.Insn i -> (
          let pc = origin + !tpos in
          let resolved =
            Insn.map_target
              (function
                | Insn.Off o -> Insn.Off o
                | Insn.Sym s ->
                    let a = resolve idx s in
                    (* adrp targets are page-relative *)
                    Insn.Off (a - pc))
              i
          in
          match Isa.encode resolved with
          | Ok w ->
              Bytes.set_int32_le text !tpos (Int32.of_int w);
              tpos := !tpos + 4
          | Error e ->
              errorf idx "cannot encode %S: %s" (Printer.to_string i) e)
      | Source.Directive (name, args) -> (
          match section_of_directive name args with
          | Some s -> section := s
          | None ->
              let buf, cursor =
                match !section with
                | Text -> (text, tpos)
                | Data -> (data, dpos)
              in
              let emit_int64 size v =
                (match size with
                | 8 -> Bytes.set_int64_le buf !cursor v
                | 4 -> Bytes.set_int32_le buf !cursor (Int64.to_int32 v)
                | 2 -> Bytes.set_uint16_le buf !cursor (Int64.to_int v land 0xffff)
                | _ -> Bytes.set_uint8 buf !cursor (Int64.to_int v land 0xff));
                cursor := !cursor + size
              in
              let emit_value size arg =
                match int_arg idx arg with
                | Some v -> emit_int64 size v
                | None ->
                    (* a symbol reference: store its sandbox-relative
                       address (optionally with +offset) *)
                    let sym, off =
                      match String.index_opt arg '+' with
                      | Some i -> (
                          let off =
                            String.trim
                              (String.sub arg (i + 1)
                                 (String.length arg - i - 1))
                          in
                          match int_of_string_opt off with
                          | Some o -> (String.trim (String.sub arg 0 i), o)
                          | None -> errorf idx "bad symbol offset in %S" arg)
                      | None -> (arg, 0)
                    in
                    emit_int64 size (Int64.of_int (resolve idx sym + off))
              in
              match name with
              | ".quad" | ".xword" | ".dword" ->
                  List.iter (emit_value 8) (split_args args)
              | ".word" | ".long" | ".4byte" ->
                  List.iter (emit_value 4) (split_args args)
              | ".short" | ".hword" | ".2byte" ->
                  List.iter (emit_value 2) (split_args args)
              | ".byte" -> List.iter (emit_value 1) (split_args args)
              | ".double" ->
                  List.iter
                    (fun a ->
                      emit_int64 8 (Int64.bits_of_float (float_arg idx a)))
                    (split_args args)
              | ".float" ->
                  List.iter
                    (fun a ->
                      emit_int64 4
                        (Int64.of_int32 (Int32.bits_of_float (float_arg idx a))))
                    (split_args args)
              | ".asciz" | ".string" ->
                  let s = parse_string_lit idx args in
                  Bytes.blit_string s 0 buf !cursor (String.length s);
                  cursor := !cursor + String.length s + 1
              | ".ascii" ->
                  let s = parse_string_lit idx args in
                  Bytes.blit_string s 0 buf !cursor (String.length s);
                  cursor := !cursor + String.length s
              | _ ->
                  (* zero fill (.zero/.skip/.space/.align), which in the
                     data section lies past [data] when it ends the
                     section, and ignored directives *)
                  cursor := !cursor + directive_size idx ~at:!cursor name args))
    src;
  let entry =
    match Hashtbl.find_opt symbols "_start" with
    | Some a -> a
    | None -> origin
  in
  { origin; text; data_origin; data; data_size; symbols; entry }

(** Assemble straight from assembly text.  A parse error is reported as
    {!Error} too, with the source line in [index]. *)
let assemble_string ?origin text =
  match Parser.parse_string text with
  | Ok src -> assemble ?origin src
  | Error { Parser.line; msg } -> errorf line "parse error at line %d: %s" line msg

(** Sandbox-relative address of every instruction in [src], in item
    order, without encoding anything: the layout walk of {!assemble}.
    Used by the rewriter to resolve its site table (instruction index
    -> pc) against the exact addresses {!assemble} will assign. *)
let insn_addresses ?(origin = default_origin) (src : Source.t) : int array =
  let pcs = Array.make (Source.insn_count src) 0 and k = ref 0 in
  ignore
    (layout ~origin
       ~on_insn:(fun off ->
         pcs.(!k) <- origin + off;
         incr k)
       src);
  pcs

let symbol_address img name = Hashtbl.find_opt img.symbols name
