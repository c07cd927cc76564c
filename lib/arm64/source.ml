(** Representation of a GNU assembly source file.

    The LFI rewriter — like the paper's implementation — operates on
    assembly *text*: it parses each line into either a label, an
    instruction, or an opaque directive, transforms the instruction
    stream, and prints the result back out for the assembler. *)

type item =
  | Label of string
  | Insn of Insn.t
  | Directive of string * string
      (** directive name (with leading dot) and its argument text,
          passed through opaquely *)

type t = item list

let item_to_string = function
  | Label l -> l ^ ":"
  | Insn i -> "\t" ^ Printer.to_string i
  | Directive (d, "") -> "\t" ^ d
  | Directive (d, args) -> Printf.sprintf "\t%s %s" d args

let to_string (src : t) =
  String.concat "\n" (List.map item_to_string src) ^ "\n"

(** All instructions, in order. *)
let insns (src : t) =
  List.filter_map (function Insn i -> Some i | _ -> None) src

(** Number of instructions (each is 4 bytes of text segment). *)
let insn_count src =
  List.fold_left (fun n -> function Insn _ -> n + 1 | _ -> n) 0 src
