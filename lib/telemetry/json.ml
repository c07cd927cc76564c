(** The repo's one JSON codec: every report, frame and artifact is
    built as a {!t} and printed here, and every file the repo reads
    back is parsed here.  No JSON library dependency.

    Numbers keep the precision their writer chose: [Float (v, d)]
    prints as [%.*f] with [d] decimals (a non-finite [v] prints as
    [null]), and {!parse} returns [Int] for a literal without a ['.']
    and [Float (v, digits after the '.')] for one with, so
    [to_pretty (parse s) = s] for anything {!to_pretty} wrote (and
    likewise for {!to_line}). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float * int
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

(** Append [s] as JSON string contents (no surrounding quotes).  Bytes
    at or above 0x80 pass through raw, so UTF-8 stays UTF-8. *)
let escape_to b s =
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when c < '\x20' -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s

let add_str b s =
  Buffer.add_char b '"';
  escape_to b s;
  Buffer.add_char b '"'

let add_sep b sep add items =
  List.iteri (fun i x -> if i > 0 then Buffer.add_string b sep; add x) items

(** Append [v] in the one-line layout: [{"k": v, "k2": v2}], [[a, b]]. *)
let rec add_line b = function
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (string_of_bool x)
  | Int n -> Buffer.add_string b (string_of_int n)
  | Float (v, d) when Float.is_finite v -> Printf.bprintf b "%.*f" d v
  | Float _ -> Buffer.add_string b "null"
  | Str s -> add_str b s
  | Arr l ->
      Buffer.add_char b '[';
      add_sep b ", " (add_line b) l;
      Buffer.add_char b ']'
  | Obj kvs ->
      Buffer.add_char b '{';
      add_sep b ", " (add_member b) kvs;
      Buffer.add_char b '}'

and add_member b (k, v) =
  add_str b k;
  Buffer.add_string b ": ";
  add_line b v

let to_line v =
  let b = Buffer.create 256 in
  add_line b v;
  Buffer.contents b

(** The file layout: a top-level object gets one member per line
    (indent 2), and a member whose value is a non-empty array gets one
    element per line (indent 4); everything deeper is one-line.  Ends
    with a newline. *)
let to_pretty v =
  let b = Buffer.create 4096 in
  (match v with
  | Obj (_ :: _ as kvs) ->
      Buffer.add_string b "{\n  ";
      add_sep b ",\n  "
        (fun (k, v) ->
          add_str b k;
          match v with
          | Arr (_ :: _ as l) ->
              Buffer.add_string b ": [\n    ";
              add_sep b ",\n    " (add_line b) l;
              Buffer.add_string b "\n  ]"
          | v -> Buffer.add_string b ": "; add_line b v)
        kvs;
      Buffer.add_string b "\n}"
  | v -> add_line b v);
  Buffer.add_char b '\n';
  Buffer.contents b

let fail fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt

(** Parse one JSON value spanning all of [s] (surrounding whitespace
    allowed).  Raises {!Parse_error} on anything else, including
    nesting deeper than 512. *)
let parse (s : string) : t =
  let n = String.length s and pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let err what = fail "%s at byte %d" what !pos in
  let scan ok =
    let start = !pos in
    while !pos < n && ok s.[!pos] do incr pos done;
    String.sub s start (!pos - start)
  in
  let skip_ws () = ignore (scan (fun c -> String.contains " \t\n\r" c)) in
  let expect c =
    if peek () = c then incr pos else err (Printf.sprintf "expected %C" c)
  in
  let is_digit c = c >= '0' && c <= '9' in
  let literal word v =
    if scan (fun c -> c >= 'a' && c <= 'z') = word then v else err "bad literal"
  in
  let number () =
    let lit = scan (fun c -> is_digit c || String.contains "+-.eE" c) in
    let mantissa =
      List.hd (String.split_on_char 'e' (String.lowercase_ascii lit))
    in
    let decimals dot = String.length mantissa - dot - 1 in
    match (String.index_opt mantissa '.', float_of_string_opt lit) with
    | None, _ when int_of_string_opt lit <> None -> Int (int_of_string lit)
    | dot, Some f -> Float (f, Option.fold dot ~none:0 ~some:decimals)
    | _, None -> err "bad number"
  in
  let string_body () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then err "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
          let e = peek () in
          incr pos;
          (match e with
          | '"' | '\\' | '/' -> Buffer.add_char b e
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'u' -> (
              (* the printer only writes \u00XX, for control bytes *)
              let hex = if !pos + 4 <= n then String.sub s !pos 4 else "" in
              pos := !pos + 4;
              let is_hex c = is_digit c || String.contains "abcdefABCDEF" c in
              match int_of_string_opt ("0x" ^ hex) with
              | Some c when String.for_all is_hex hex && c < 0x80 ->
                  Buffer.add_char b (Char.chr c)
              | _ -> err "bad or non-ASCII \\u escape")
          | _ -> err "bad escape");
          go ()
      | c when c < '\x20' -> err "raw control byte in string"
      | c -> Buffer.add_char b c; go ()
    in
    go ()
  in
  (* comma-separated items up to [close]; the opener is consumed *)
  let seq close item =
    skip_ws ();
    if peek () = close then (incr pos; [])
    else
      let rec go acc =
        let acc = item () :: acc in
        skip_ws ();
        match peek () with
        | ',' -> incr pos; go acc
        | c when c = close -> incr pos; List.rev acc
        | _ -> err (Printf.sprintf "expected , or %C" close)
      in
      go []
  in
  let rec value depth =
    if depth > 512 then err "nesting too deep";
    skip_ws ();
    match peek () with
    | '{' ->
        incr pos;
        let member () =
          skip_ws ();
          let k = string_body () in
          skip_ws ();
          expect ':';
          (k, value (depth + 1))
        in
        Obj (seq '}' member)
    | '[' -> incr pos; Arr (seq ']' (fun () -> value (depth + 1)))
    | '"' -> Str (string_body ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | '-' | '0' .. '9' -> number ()
    | _ -> err "unexpected byte"
  in
  let v = value 0 in
  skip_ws ();
  if !pos <> n then err "trailing bytes";
  v

(* typed access: each raises Parse_error on the wrong shape *)

let wrong want = fail "expected %s" want

let member k = function
  | Obj kvs -> (
      match List.assoc_opt k kvs with
      | Some v -> v
      | None -> fail "missing member %S" k)
  | _ -> wrong ("an object with member " ^ k)

let to_int = function Int i -> i | _ -> wrong "an int"

(** Any number; [null] reads as NaN (the printer's NaN convention). *)
let to_float = function
  | Float (f, _) -> f
  | Int i -> float_of_int i
  | Null -> Float.nan
  | _ -> wrong "a number"

let to_string = function Str s -> s | _ -> wrong "a string"
let to_bool = function Bool b -> b | _ -> wrong "a bool"
let to_list = function Arr l -> l | _ -> wrong "an array"
let to_assoc = function Obj kvs -> kvs | _ -> wrong "an object"
