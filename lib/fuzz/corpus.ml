(** The adversarial corpus and fuzzing repros (DESIGN.md §5d).

    Corpus entries are assembly files under [test/corpus/] with a
    small comment header:

    {v
    // engine: soundness
    // expect: reject
    movz x21, #0
    v}

    [expect] is what the *verifier* must do with the assembled text:

    - [reject]   — at least one violation;
    - [accept]   — verifies clean (and, when executed, must not trip
                   the escape oracle);
    - [accept-escape-weakened] — verifies clean as written, and the
      soundness engine's single-bit-flip mutation pass, run against
      the deliberately weakened verifier
      ([unsafe_no_uxtw_check = true]), must find at least one mutant
      that the weakened verifier accepts but that escapes at runtime —
      while the *real* verifier rejects every such mutant.  This is
      the regression test for the oracle itself.

    Failing engine runs minimize their input and write it back here as
    a [repro_*.s] file, so every bug becomes a replayable corpus
    entry. *)

type expect = Accept | Reject | Accept_escape_weakened

let expect_of_string = function
  | "accept" -> Some Accept
  | "reject" -> Some Reject
  | "accept-escape-weakened" -> Some Accept_escape_weakened
  | _ -> None

let expect_to_string = function
  | Accept -> "accept"
  | Reject -> "reject"
  | Accept_escape_weakened -> "accept-escape-weakened"

type entry = {
  path : string;
  engine : string;  (** which engine the case belongs to *)
  expect : expect;
  text : string;  (** the whole file; headers are [//] comments the
                      assembly parser already ignores *)
}

exception Bad_entry of string

let header_value line key =
  let prefix = "// " ^ key ^ ":" in
  if String.length line >= String.length prefix
     && String.sub line 0 (String.length prefix) = prefix
  then
    Some
      (String.trim
         (String.sub line (String.length prefix)
            (String.length line - String.length prefix)))
  else None

let load_file (path : string) : entry =
  let text = In_channel.with_open_bin path In_channel.input_all in
  let engine = ref None and expect = ref None in
  List.iter
    (fun line ->
      let line = String.trim line in
      (match header_value line "engine" with
      | Some v -> engine := Some v
      | None -> ());
      match header_value line "expect" with
      | Some v -> (
          match expect_of_string v with
          | Some e -> expect := Some e
          | None -> raise (Bad_entry (path ^ ": unknown expect " ^ v)))
      | None -> ())
    (String.split_on_char '\n' text);
  match (!engine, !expect) with
  | Some engine, Some expect -> { path; engine; expect; text }
  | None, _ -> raise (Bad_entry (path ^ ": missing '// engine:' header"))
  | _, None -> raise (Bad_entry (path ^ ": missing '// expect:' header"))

(** All [*.s] entries of [dir], sorted by filename for determinism. *)
let load_dir (dir : string) : entry list =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".s")
  |> List.sort compare
  |> List.map (fun f -> load_file (Filename.concat dir f))

(** Write a minimized failure as a replayable corpus entry; returns
    the path.  [notes] lines are added as extra [//] comments. *)
let write_repro ~(dir : string) ~(engine : string) ~(expect : expect)
    ~(label : string) ?(notes = []) (asm : string) : string =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir (Printf.sprintf "repro_%s_%s.s" engine label) in
  let oc = open_out path in
  Printf.fprintf oc "// engine: %s\n// expect: %s\n" engine
    (expect_to_string expect);
  List.iter (fun n -> Printf.fprintf oc "// %s\n" n) notes;
  output_string oc asm;
  if asm = "" || asm.[String.length asm - 1] <> '\n' then
    output_char oc '\n';
  close_out oc;
  path

(** Disassemble machine code back to parseable assembly text (for
    repros of byte-level mutants). *)
let disassemble (code : bytes) : string =
  let insns = Lfi_arm64.Isa.decode_all code in
  let b = Buffer.create 256 in
  Array.iteri
    (fun i insn ->
      match insn with
      | Lfi_arm64.Insn.Udf _ ->
          (* keep the raw word; the assembler has no .inst, so emit a
             comment — repros with udf words are documentation only *)
          Buffer.add_string b
            (Printf.sprintf "\t// .inst 0x%08x (undefined)\n"
               (Int32.to_int (Bytes.get_int32_le code (i * 4)) land 0xFFFFFFFF))
      | insn ->
          Buffer.add_char b '\t';
          Buffer.add_string b (Lfi_arm64.Printer.to_string insn);
          Buffer.add_char b '\n')
    insns;
  Buffer.contents b
