(** Two-pass assembler: resolves labels, lays out text and data, and
    encodes instructions to machine code.

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
(* Assembly                                                            *)
(* ------------------------------------------------------------------ *)

(** Assemble a parsed source file into an image. *)
let assemble ?(origin = default_origin) (src : Source.t) : image =
  let symbols : (string, int) Hashtbl.t = Hashtbl.create 64 in
  (* Pass 1: layout. *)
  let text_size = ref 0 and data_size = ref 0 in
  let sizes = Hashtbl.create 64 in
  (* item index -> (section, offset) *)
  let places = Hashtbl.create 64 in
  let section = ref Text in
  List.iteri
    (fun idx item ->
      let cursor = match !section with Text -> text_size | Data -> data_size in
      match item with
      | Source.Label l ->
          if Hashtbl.mem symbols l then errorf idx "duplicate label %S" l;
          Hashtbl.replace symbols l 0 (* real address assigned below *)
      | Source.Insn _ ->
          if !section <> Text then
            errorf idx "instruction outside .text section";
          Hashtbl.replace places idx (Text, !cursor);
          cursor := !cursor + 4
      | Source.Directive (name, args) -> (
          match section_of_directive name args with
          | Some s -> section := s
          | None ->
              let sz = directive_size idx ~at:!cursor name args in
              Hashtbl.replace sizes idx sz;
              Hashtbl.replace places idx (!section, !cursor);
              cursor := !cursor + sz))
    src;
  ignore places;
  (* Recompute symbol addresses properly with a second labelling pass
     (avoiding the Obj.magic placeholder hack above). *)
  Hashtbl.reset symbols;
  (* The data section starts on its own 16KiB page so that the loader
     can give text and data different page protections (W^X). *)
  let data_origin = align_up (origin + !text_size) 16384 in
  let tpos = ref 0 and dpos = ref 0 in
  let section = ref Text in
  List.iteri
    (fun idx item ->
      let cursor = match !section with Text -> tpos | Data -> dpos in
      let addr () =
        match !section with
        | Text -> origin + !cursor
        | Data -> data_origin + !cursor
      in
      match item with
      | Source.Label l -> Hashtbl.replace symbols l (addr ())
      | Source.Insn _ -> cursor := !cursor + 4
      | Source.Directive (name, args) -> (
          match section_of_directive name args with
          | Some s -> section := s
          | None ->
              cursor := !cursor + directive_size idx ~at:!cursor name args))
    src;
  (* Pass 2: emission. *)
  let text = Bytes.make !text_size '\000'
  and data = Bytes.make !data_size '\000' in
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
              let emit_int size v =
                for k = 0 to size - 1 do
                  Bytes.set_uint8 buf (!cursor + k) ((v lsr (8 * k)) land 0xff)
                done;
                cursor := !cursor + size
              in
              let emit_value size arg =
                match int_of_string_opt arg with
                | Some v -> emit_int size v
                | None ->
                    (* a symbol reference: store its sandbox-relative
                       address (optionally with +offset) *)
                    let sym, off =
                      match String.index_opt arg '+' with
                      | Some i ->
                          ( String.trim (String.sub arg 0 i),
                            int_of_string
                              (String.trim
                                 (String.sub arg (i + 1)
                                    (String.length arg - i - 1))) )
                      | None -> (arg, 0)
                    in
                    emit_int size (resolve idx sym + off)
              in
              (match name with
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
                      let v = Int64.bits_of_float (float_of_string a) in
                      Bytes.set_int64_le buf !cursor v;
                      cursor := !cursor + 8)
                    (split_args args)
              | ".float" ->
                  List.iter
                    (fun a ->
                      let f = float_of_string a in
                      emit_int 4 (Int32.to_int (Int32.bits_of_float f) land 0xFFFFFFFF))
                    (split_args args)
              | ".asciz" | ".string" ->
                  let s = parse_string_lit idx args in
                  Bytes.blit_string s 0 buf !cursor (String.length s);
                  cursor := !cursor + String.length s + 1
              | ".ascii" ->
                  let s = parse_string_lit idx args in
                  Bytes.blit_string s 0 buf !cursor (String.length s);
                  cursor := !cursor + String.length s
              | ".zero" | ".skip" | ".space" ->
                  cursor := !cursor + int_of_string (String.trim args)
              | ".align" | ".p2align" | ".balign" ->
                  cursor :=
                    !cursor + directive_size idx ~at:!cursor name args
              | _ -> ())))
    src;
  let entry =
    match Hashtbl.find_opt symbols "_start" with
    | Some a -> a
    | None -> origin
  in
  { origin; text; data_origin; data; symbols; entry }

(** Assemble straight from assembly text. *)
let assemble_string ?origin text =
  assemble ?origin (Parser.parse_string_exn text)

(** Sandbox-relative address of every instruction in [src], in item
    order, without encoding anything: replays the layout pass only.
    Used by the rewriter to resolve its site table (instruction index
    -> pc) against the exact addresses {!assemble} will assign. *)
let insn_addresses ?(origin = default_origin) (src : Source.t) : int array =
  let out = ref [] in
  let tpos = ref 0 and dpos = ref 0 in
  let section = ref Text in
  List.iteri
    (fun idx item ->
      let cursor = match !section with Text -> tpos | Data -> dpos in
      match item with
      | Source.Label _ -> ()
      | Source.Insn _ ->
          out := (origin + !tpos) :: !out;
          tpos := !tpos + 4
      | Source.Directive (name, args) -> (
          match section_of_directive name args with
          | Some s -> section := s
          | None -> cursor := !cursor + directive_size idx ~at:!cursor name args))
    src;
  Array.of_list (List.rev !out)

let symbol_address img name = Hashtbl.find_opt img.symbols name

(** Total image size in bytes (text + alignment padding + data). *)
let image_size img =
  img.data_origin - img.origin + Bytes.length img.data
