(** Parser for the GNU assembly subset.

    Accepts the canonical forms produced by {!Printer} as well as the
    common aliases emitted by C compilers ([mov Rd, #imm], [cmp], [tst],
    [neg], [mvn], [mul], [lsl #i], [uxtb], [sxtw], [cset], [cinc], ...),
    normalizing them into {!Insn.t}. *)

open Insn

type error = { line : int; msg : string }

let errorf line fmt = Printf.ksprintf (fun msg -> Error { line; msg }) fmt

(* ------------------------------------------------------------------ *)
(* Tokenization                                                        *)
(* ------------------------------------------------------------------ *)

let strip_comment s =
  let rec find i =
    if i + 1 >= String.length s then None
    else if s.[i] = '/' && s.[i + 1] = '/' then Some i
    else find (i + 1)
  in
  match find 0 with None -> s | Some i -> String.sub s 0 i

(** Split on top-level commas, keeping bracket groups intact.
    ["x0, [x1, #8]!, rest"] -> [["x0"; "[x1, #8]!"; "rest"]]. *)
let split_operands (s : string) : string list =
  let parts = ref [] and buf = Buffer.create 16 and depth = ref 0 in
  String.iter
    (fun c ->
      match c with
      | '[' ->
          incr depth;
          Buffer.add_char buf c
      | ']' ->
          decr depth;
          Buffer.add_char buf c
      | ',' when !depth = 0 ->
          parts := Buffer.contents buf :: !parts;
          Buffer.clear buf
      | c -> Buffer.add_char buf c)
    s;
  parts := Buffer.contents buf :: !parts;
  List.rev_map String.trim !parts |> List.filter (fun s -> s <> "")

let parse_int s =
  (* Accepts decimal and 0x hex, with optional leading '-'. *)
  match int_of_string_opt s with
  | Some n -> Some n
  | None -> None

let parse_imm s =
  if String.length s > 1 && s.[0] = '#' then
    parse_int (String.sub s 1 (String.length s - 1))
  else None

(* ------------------------------------------------------------------ *)
(* Operand parsing                                                     *)
(* ------------------------------------------------------------------ *)

type operand =
  | OReg of Reg.t
  | OFp of Reg.Fp.t
  | OImm of int
  | OFImm0
  | OMem of addr
  | OPostImm of int  (** the trailing [#i] of a post-indexed access *)
  | OShift of shift * int
  | OExt of extend * int option
  | OSym of string

(** Parse the space-separated modifier forms "lsl #3", "uxtw", "uxtw #2". *)
let parse_modifier (s : string) : operand option =
  match String.index_opt s ' ' with
  | None -> (
      match of_name extends s with
      | Some e -> Some (OExt (e, None))
      | None -> None)
  | Some i -> (
      let kw = String.sub s 0 i
      and rest = String.trim (String.sub s (i + 1) (String.length s - i - 1))
      in
      match (of_name shifts kw, of_name extends kw, parse_imm rest) with
      | Some k, _, Some n -> Some (OShift (k, n))
      | _, Some e, Some n -> Some (OExt (e, Some n))
      | _ -> None)

let rec parse_mem_inner (inner : string) : addr option =
  match split_operands inner with
  | [ b ] -> (
      match Reg.of_string b with
      | Some r when Reg.width r = Reg.W64 -> Some (Imm_off (r, 0))
      | _ -> None)
  | [ b; second ] -> (
      match Reg.of_string b with
      | Some r when Reg.width r = Reg.W64 -> (
          match parse_imm second with
          | Some i -> Some (Imm_off (r, i))
          | None -> (
              match Reg.of_string second with
              | Some m when not (Reg.is_sp m) ->
                  let e =
                    if Reg.width m = Reg.W64 then Uxtx else Uxtw
                    (* bare [x, w] is not valid asm; treated as uxtw 0 *)
                  in
                  Some (Reg_off (r, m, e, 0))
              | _ -> None))
      | _ -> None)
  | [ b; m; modif ] -> (
      match (Reg.of_string b, Reg.of_string m, parse_modifier modif) with
      | Some r, Some mr, Some (OShift (Lsl, a))
        when Reg.width r = Reg.W64 && Reg.width mr = Reg.W64 ->
          Some (Reg_off (r, mr, Uxtx, a))
      | Some r, Some mr, Some (OExt (e, a)) when Reg.width r = Reg.W64 ->
          let a = Option.value a ~default:0 in
          Some (Reg_off (r, mr, e, a))
      | _ -> None)
  | _ -> None

and parse_operand (s : string) : operand option =
  let len = String.length s in
  if len = 0 then None
  else if s.[0] = '[' then
    (* memory operand, possibly with trailing '!' *)
    let pre = s.[len - 1] = '!' in
    let body = if pre then String.sub s 0 (len - 1) else s in
    let blen = String.length body in
    if blen < 2 || body.[blen - 1] <> ']' then None
    else
      let inner = String.sub body 1 (blen - 2) in
      match parse_mem_inner inner with
      | Some a when pre -> (
          match a with
          | Imm_off (r, i) -> Some (OMem (Pre (r, i)))
          | _ -> None)
      | Some a -> Some (OMem a)
      | None -> None
  else if s = "#0.0" then Some OFImm0
  else
    match parse_imm s with
    | Some i -> Some (OImm i)
    | None -> (
        match Reg.of_string s with
        | Some r -> Some (OReg r)
        | None -> (
            match Reg.Fp.of_string s with
            | Some f -> Some (OFp f)
            | None -> (
                match parse_modifier s with
                | Some m -> Some m
                | None ->
                    (* a symbol / label reference, or .+n *)
                    if s = "" then None else Some (OSym s))))

let parse_target s =
  if String.length s >= 2 && s.[0] = '.' && (s.[1] = '+' || s.[1] = '-') then
    match parse_int (String.sub s 1 (String.length s - 1)) with
    | Some n -> Some (Off n)
    | None -> Some (Sym s)
  else Some (Sym s)

(* ------------------------------------------------------------------ *)
(* Instruction assembly from mnemonic + operands                       *)
(* ------------------------------------------------------------------ *)

let w64 r = Reg.width r = Reg.W64
let wbits r = match Reg.width r with Reg.W64 -> 64 | Reg.W32 -> 32

(** Interpret trailing operands as an ALU [operand2]. *)
let operand2_of = function
  | [ OImm v ] -> Some (Imm (v, 0))
  | [ OImm v; OShift (Lsl, s) ] -> Some (Imm (v, s))
  | [ OReg r ] -> Some (Sh (r, Lsl, 0))
  | [ OReg r; OShift (k, a) ] -> Some (Sh (r, k, a))
  | [ OReg r; OExt (e, a) ] -> Some (Ext (r, e, Option.value a ~default:0))
  | _ -> None

let alu op flags dst src rest =
  match operand2_of rest with
  | Some op2 ->
      (* add/sub with sp as an operand only exists in the
         extended-register form; normalize a bare register there *)
      let op2 =
        match (op, op2) with
        | (ADD | SUB), Sh (r, Lsl, 0)
          when Reg.is_sp dst || Reg.is_sp src ->
            Ext (Reg.with_width (Reg.width dst) r, Uxtx, 0)
        | _ -> op2
      in
      Ok (Alu { op; flags; dst; src; op2 })
  | None -> Error "bad ALU operands"

(** Fuse a bracket operand followed by an immediate into post-indexing. *)
let fuse_post ops =
  let rec go = function
    | OMem (Imm_off (r, 0)) :: OImm i :: tl -> OMem (Post (r, i)) :: go tl
    | x :: tl -> x :: go tl
    | [] -> []
  in
  go ops

let mem_ops mnemonic ops =
  (* Shared handling for integer and FP loads/stores. *)
  match fuse_post ops with
  | [ OReg d; OMem a ] -> Ok (`G (d, a))
  | [ OFp d; OMem a ] -> Ok (`F (d, a))
  | [ OReg d1; OReg d2; OMem a ] -> Ok (`GP (d1, d2, a))
  | [ OFp d1; OFp d2; OMem a ] -> Ok (`FP (d1, d2, a))
  | _ -> Error (Printf.sprintf "bad %s operands" mnemonic)

(* The access size named by mnemonic [m]'s suffix after its first [n]
   characters (b, h or w), else by the register's width *)
let suffix_size m n r =
  match of_name mem_sizes (String.sub m n (String.length m - n)) with
  | Some sz -> sz
  | None -> if w64 r then X else W

let build (mnemonic : string) (ops : operand list) : (t, string) result =
  let m = mnemonic in
  let err = Error (Printf.sprintf "bad operands for %s" m) in
  match (m, ops) with
  (* --- ALU --- *)
  | ("add" | "adds" | "sub" | "subs" | "and" | "ands" | "orr" | "eor"
    | "bic" | "bics" | "orn" | "eon"), (OReg dst :: OReg src :: rest) ->
      let op =
        match m with
        | "add" | "adds" -> ADD
        | "sub" | "subs" -> SUB
        | "and" | "ands" -> AND
        | "orr" -> ORR
        | "eor" -> EOR
        | "bic" | "bics" -> BIC
        | "orn" -> ORN
        | _ -> EON
      in
      let flags = String.length m > 3 && m.[String.length m - 1] = 's' in
      alu op flags dst src rest
  | "cmp", OReg src :: rest -> (
      match operand2_of rest with
      | Some op2 ->
          Ok (Alu { op = SUB; flags = true; dst = Reg.ZR (Reg.width src);
                    src; op2 })
      | None -> err)
  | "cmn", OReg src :: rest -> (
      match operand2_of rest with
      | Some op2 ->
          Ok (Alu { op = ADD; flags = true; dst = Reg.ZR (Reg.width src);
                    src; op2 })
      | None -> err)
  | "tst", OReg src :: rest -> (
      match operand2_of rest with
      | Some op2 ->
          Ok (Alu { op = AND; flags = true; dst = Reg.ZR (Reg.width src);
                    src; op2 })
      | None -> err)
  | ("neg" | "negs"), [ OReg dst; OReg r ] ->
      Ok (Alu { op = SUB; flags = m = "negs"; dst;
                src = Reg.ZR (Reg.width dst); op2 = Sh (r, Lsl, 0) })
  | "mvn", [ OReg dst; OReg r ] ->
      Ok (Alu { op = ORN; flags = false; dst; src = Reg.ZR (Reg.width dst);
                op2 = Sh (r, Lsl, 0) })
  | "mov", [ OReg dst; OReg src ] ->
      if Reg.is_sp dst || Reg.is_sp src then
        Ok (Alu { op = ADD; flags = false; dst; src; op2 = Imm (0, 0) })
      else
        Ok (Alu { op = ORR; flags = false; dst; src = Reg.ZR (Reg.width dst);
                  op2 = Sh (src, Lsl, 0) })
  | "mov", [ OReg dst; OImm v ] ->
      (* compiler alias: materialize a small constant *)
      if v >= 0 && v < 65536 then Ok (Mov { op = MOVZ; dst; imm = v; hw = 0 })
      else if v < 0 && lnot v < 65536 then
        Ok (Mov { op = MOVN; dst; imm = lnot v; hw = 0 })
      else err
  | ("movz" | "movn" | "movk"), OReg dst :: OImm v :: rest -> (
      let op = Option.get (of_name movs m) in
      match rest with
      | [] -> Ok (Mov { op; dst; imm = v; hw = 0 })
      | [ OShift (Lsl, s) ] when s mod 16 = 0 ->
          Ok (Mov { op; dst; imm = v; hw = s / 16 })
      | _ -> err)
  (* --- shifts and bitfields --- *)
  | ("lsl" | "lsr" | "asr" | "ror"), [ OReg dst; OReg src; OReg amount ] ->
      Ok (Shiftv { op = Option.get (of_name shifts m); dst; src; amount })
  | "lsl", [ OReg dst; OReg src; OImm n ] ->
      let bits = wbits dst in
      if n < 0 || n >= bits then err
      else
        Ok (Bitfield { op = UBFM; dst; src; immr = (bits - n) mod bits;
                       imms = bits - 1 - n })
  | "lsr", [ OReg dst; OReg src; OImm n ] ->
      Ok (Bitfield { op = UBFM; dst; src; immr = n; imms = wbits dst - 1 })
  | "asr", [ OReg dst; OReg src; OImm n ] ->
      Ok (Bitfield { op = SBFM; dst; src; immr = n; imms = wbits dst - 1 })
  | "ror", [ OReg dst; OReg src; OImm n ] ->
      Ok (Extr { dst; src1 = src; src2 = src; lsb = n })
  | ("ubfm" | "sbfm" | "bfm"), [ OReg dst; OReg src; OImm immr; OImm imms ]
    ->
      Ok (Bitfield { op = Option.get (of_name bf_ops m); dst; src; immr;
                     imms })
  | ("ubfx" | "sbfx"), [ OReg dst; OReg src; OImm lsb; OImm width ] ->
      let op = if m = "ubfx" then UBFM else SBFM in
      Ok (Bitfield { op; dst; src; immr = lsb; imms = lsb + width - 1 })
  | ("ubfiz" | "sbfiz"), [ OReg dst; OReg src; OImm lsb; OImm width ] ->
      let op = if m = "ubfiz" then UBFM else SBFM in
      let bits = wbits dst in
      Ok (Bitfield { op; dst; src; immr = (bits - lsb) mod bits;
                     imms = width - 1 })
  | "bfi", [ OReg dst; OReg src; OImm lsb; OImm width ] ->
      let bits = wbits dst in
      Ok (Bitfield { op = BFM; dst; src; immr = (bits - lsb) mod bits;
                     imms = width - 1 })
  | "uxtb", [ OReg dst; OReg src ] ->
      Ok (Bitfield { op = UBFM; dst; src; immr = 0; imms = 7 })
  | "uxth", [ OReg dst; OReg src ] ->
      Ok (Bitfield { op = UBFM; dst; src; immr = 0; imms = 15 })
  | "sxtb", [ OReg dst; OReg src ] ->
      Ok (Bitfield { op = SBFM; dst; src = Reg.with_width (Reg.width dst) src;
                     immr = 0; imms = 7 })
  | "sxth", [ OReg dst; OReg src ] ->
      Ok (Bitfield { op = SBFM; dst; src = Reg.with_width (Reg.width dst) src;
                     immr = 0; imms = 15 })
  | "sxtw", [ OReg dst; OReg src ] ->
      Ok (Bitfield { op = SBFM; dst; src = Reg.with_width (Reg.width dst) src;
                     immr = 0; imms = 31 })
  | "extr", [ OReg dst; OReg src1; OReg src2; OImm lsb ] ->
      Ok (Extr { dst; src1; src2; lsb })
  (* --- multiply / divide --- *)
  | "mul", [ OReg dst; OReg src1; OReg src2 ] ->
      Ok (Madd { sub = false; dst; src1; src2; acc = Reg.ZR (Reg.width dst) })
  | "mneg", [ OReg dst; OReg src1; OReg src2 ] ->
      Ok (Madd { sub = true; dst; src1; src2; acc = Reg.ZR (Reg.width dst) })
  | ("madd" | "msub"), [ OReg dst; OReg src1; OReg src2; OReg acc ] ->
      Ok (Madd { sub = m = "msub"; dst; src1; src2; acc })
  | ("smulh" | "umulh"), [ OReg dst; OReg src1; OReg src2 ] ->
      Ok (Smulh { signed = m = "smulh"; dst; src1; src2 })
  | ("smull" | "umull"), [ OReg dst; OReg src1; OReg src2 ] ->
      Ok (Maddl { signed = m = "smull"; sub = false; dst; src1; src2;
                  acc = Reg.xzr })
  | ("smaddl" | "umaddl" | "smsubl" | "umsubl"),
    [ OReg dst; OReg src1; OReg src2; OReg acc ] ->
      Ok (Maddl { signed = m.[0] = 's'; sub = String.length m > 4 && m.[2] = 's';
                  dst; src1; src2; acc })
  | ("sdiv" | "udiv"), [ OReg dst; OReg src1; OReg src2 ] ->
      Ok (Div { signed = m = "sdiv"; dst; src1; src2 })
  | ("ccmp" | "ccmn"), [ OReg src; second; OImm nzcv; OSym c ] -> (
      match (cond_of_string c, second) with
      | Some cond, OReg r ->
          Ok (Ccmp { cmn = m = "ccmn"; src; op2 = CReg r; nzcv; cond })
      | Some cond, OImm v ->
          Ok (Ccmp { cmn = m = "ccmn"; src; op2 = CImm v; nzcv; cond })
      | _ -> err)
  (* --- conditional select --- *)
  | ("csel" | "csinc" | "csinv" | "csneg"),
    [ OReg dst; OReg src1; OReg src2; OSym c ] -> (
      match cond_of_string c with
      | Some cond ->
          Ok (Csel { op = Option.get (of_name csel_ops m); dst; src1; src2;
                     cond })
      | None -> err)
  | "cset", [ OReg dst; OSym c ] -> (
      match cond_of_string c with
      | Some cond ->
          let zr = Reg.ZR (Reg.width dst) in
          Ok (Csel { op = CSINC; dst; src1 = zr; src2 = zr;
                     cond = invert_cond cond })
      | None -> err)
  | "csetm", [ OReg dst; OSym c ] -> (
      match cond_of_string c with
      | Some cond ->
          let zr = Reg.ZR (Reg.width dst) in
          Ok (Csel { op = CSINV; dst; src1 = zr; src2 = zr;
                     cond = invert_cond cond })
      | None -> err)
  | ("cinc" | "cinv" | "cneg"), [ OReg dst; OReg src; OSym c ] -> (
      match cond_of_string c with
      | Some cond ->
          let op =
            match m with "cinc" -> CSINC | "cinv" -> CSINV | _ -> CSNEG
          in
          Ok (Csel { op; dst; src1 = src; src2 = src;
                     cond = invert_cond cond })
      | None -> err)
  (* --- misc data processing --- *)
  | ("clz" | "cls"), [ OReg dst; OReg src ] ->
      Ok (Cls { count_zero = m = "clz"; dst; src })
  | "rbit", [ OReg dst; OReg src ] -> Ok (Rbit { dst; src })
  | ("rev" | "rev16" | "rev32"), [ OReg dst; OReg src ] ->
      let bytes =
        match m with
        | "rev16" -> 2
        | "rev32" -> 4
        | _ -> ( match Reg.width dst with Reg.W64 -> 8 | Reg.W32 -> 4)
      in
      Ok (Rev { bytes; dst; src })
  | ("adr" | "adrp"), [ OReg dst; OSym s ] -> (
      match parse_target s with
      | Some target -> Ok (Adr { page = m = "adrp"; dst; target })
      | None -> err)
  (* --- loads / stores --- *)
  | "ldr", _ -> (
      match mem_ops m ops with
      | Ok (`G (d, a)) ->
          let sz = if w64 d then X else W in
          Ok (Ldr { sz; signed = false; dst = d; addr = a })
      | Ok (`F (d, a)) -> Ok (Fldr { dst = d; addr = a })
      | Ok _ | Error _ -> err)
  | "str", _ -> (
      match mem_ops m ops with
      | Ok (`G (d, a)) ->
          Ok (Str { sz = (if w64 d then X else W); src = d; addr = a })
      | Ok (`F (d, a)) -> Ok (Fstr { src = d; addr = a })
      | Ok _ | Error _ -> err)
  | ("ldrb" | "ldrh"), _ -> (
      match mem_ops m ops with
      | Ok (`G (d, a)) when not (w64 d) ->
          Ok (Ldr { sz = suffix_size m 3 d; signed = false; dst = d; addr = a })
      | _ -> err)
  | ("ldrsb" | "ldrsh" | "ldrsw"), _ -> (
      match mem_ops m ops with
      | Ok (`G (d, a)) ->
          if m = "ldrsw" && not (w64 d) then err
          else Ok (Ldr { sz = suffix_size m 4 d; signed = true; dst = d;
                         addr = a })
      | _ -> err)
  | ("strb" | "strh"), _ -> (
      match mem_ops m ops with
      | Ok (`G (d, a)) when not (w64 d) ->
          Ok (Str { sz = suffix_size m 3 d; src = d; addr = a })
      | _ -> err)
  | "ldp", _ -> (
      match mem_ops m ops with
      | Ok (`GP (r1, r2, a)) when Reg.width r1 = Reg.width r2 ->
          Ok (Ldp { w = Reg.width r1; r1; r2; addr = a })
      | Ok (`FP (r1, r2, a)) -> Ok (Fldp { r1; r2; addr = a })
      | _ -> err)
  | "stp", _ -> (
      match mem_ops m ops with
      | Ok (`GP (r1, r2, a)) when Reg.width r1 = Reg.width r2 ->
          Ok (Stp { w = Reg.width r1; r1; r2; addr = a })
      | Ok (`FP (r1, r2, a)) -> Ok (Fstp { r1; r2; addr = a })
      | _ -> err)
  | ("ldxr" | "ldxrb" | "ldxrh"), [ OReg d; OMem (Imm_off (b, 0)) ] ->
      Ok (Ldxr { sz = suffix_size m 4 d; dst = d; base = b })
  | ("stxr" | "stxrb" | "stxrh"), [ OReg st; OReg s; OMem (Imm_off (b, 0)) ] ->
      Ok (Stxr { sz = suffix_size m 4 s; status = st; src = s; base = b })
  | ("ldar" | "ldarb" | "ldarh"), [ OReg d; OMem (Imm_off (b, 0)) ] ->
      Ok (Ldar { sz = suffix_size m 4 d; dst = d; base = b })
  | ("stlr" | "stlrb" | "stlrh"), [ OReg s; OMem (Imm_off (b, 0)) ] ->
      Ok (Stlr { sz = suffix_size m 4 s; src = s; base = b })
  (* --- branches --- *)
  | "b", [ OSym s ] -> (
      match parse_target s with Some t -> Ok (B t) | None -> err)
  | "bl", [ OSym s ] -> (
      match parse_target s with Some t -> Ok (Bl t) | None -> err)
  | ("cbz" | "cbnz"), [ OReg r; OSym s ] -> (
      match parse_target s with
      | Some target -> Ok (Cbz { nz = m = "cbnz"; reg = r; target })
      | None -> err)
  | ("tbz" | "tbnz"), [ OReg r; OImm bit; OSym s ] -> (
      match parse_target s with
      | Some target ->
          (* canonical register width follows the bit number (x and w
             forms are the same instruction) *)
          let r = Reg.with_width (if bit >= 32 then Reg.W64 else Reg.W32) r in
          Ok (Tbz { nz = m = "tbnz"; reg = r; bit; target })
      | None -> err)
  | "br", [ OReg r ] -> Ok (Br r)
  | "blr", [ OReg r ] -> Ok (Blr r)
  | "ret", [] -> Ok (Ret (Reg.x 30))
  | "ret", [ OReg r ] -> Ok (Ret r)
  (* --- floating point --- *)
  | ("fadd" | "fsub" | "fmul" | "fdiv" | "fmin" | "fmax"),
    [ OFp dst; OFp src1; OFp src2 ] ->
      Ok (Fop2 { op = Option.get (of_name fop2s m); dst; src1; src2 })
  | ("fneg" | "fabs" | "fsqrt"), [ OFp dst; OFp src ] ->
      Ok (Fop1 { op = Option.get (of_name fop1s m); dst; src })
  | ("fmadd" | "fmsub"), [ OFp dst; OFp src1; OFp src2; OFp acc ] ->
      Ok (Fmadd { sub = m = "fmsub"; dst; src1; src2; acc })
  | "fcmp", [ OFp src1; OFp src2 ] -> Ok (Fcmp { src1; src2 = Some src2 })
  | "fcmp", [ OFp src1; OFImm0 ] -> Ok (Fcmp { src1; src2 = None })
  | "fcvt", [ OFp dst; OFp src ] -> Ok (Fcvt { dst; src })
  | ("scvtf" | "ucvtf"), [ OFp dst; OReg src ] ->
      Ok (Scvtf { signed = m = "scvtf"; dst; src })
  | ("fcvtzs" | "fcvtzu"), [ OReg dst; OFp src ] ->
      Ok (Fcvtzs { signed = m = "fcvtzs"; dst; src })
  | "fmov", [ OFp dst; OFp src ] -> Ok (Fop1 { op = FMOV; dst; src })
  | "fmov", [ OFp dst; OReg src ] -> Ok (Fmov_to_fp { dst; src })
  | "fmov", [ OReg dst; OFp src ] -> Ok (Fmov_from_fp { dst; src })
  (* --- system --- *)
  | "nop", [] -> Ok Nop
  | "svc", [ OImm n ] -> Ok (Svc n)
  | "mrs", [ OReg dst; OSym sysreg ] -> Ok (Mrs { dst; sysreg })
  | "msr", [ OSym sysreg; OReg src ] -> Ok (Msr { sysreg; src })
  | "dmb", _ -> Ok Dmb
  | "udf", [ OImm n ] -> Ok (Udf n)
  | _ -> Error (Printf.sprintf "unknown instruction %S" m)

(** Parse a single instruction statement, e.g. ["add x0, x1, #4"]. *)
let parse_insn (stmt : string) : (t, string) result =
  let stmt = String.trim stmt in
  match String.index_opt stmt ' ' with
  | None -> (
      (* no-operand instruction, possibly with condition suffix (b.eq
         never appears without operands, so only nop/ret/dmb land here) *)
      match build (String.lowercase_ascii stmt) [] with
      | Ok i -> Ok i
      | Error e -> Error e)
  | Some sp -> (
      let mnemonic = String.lowercase_ascii (String.sub stmt 0 sp)
      and rest = String.sub stmt (sp + 1) (String.length stmt - sp - 1) in
      let operands = split_operands rest in
      match
        ( String.length mnemonic > 2 && String.sub mnemonic 0 2 = "b.",
          operands )
      with
      | true, [ tgt ] -> (
          match
            ( cond_of_string
                (String.sub mnemonic 2 (String.length mnemonic - 2)),
              parse_target tgt )
          with
          | Some c, Some t -> Ok (Bcond (c, t))
          | _ -> Error (Printf.sprintf "bad conditional branch %S" stmt))
      | _ -> (
          let parsed = List.map parse_operand operands in
          if List.exists Option.is_none parsed then
            Error (Printf.sprintf "bad operand in %S" stmt)
          else build mnemonic (List.map Option.get parsed)))

(* ------------------------------------------------------------------ *)
(* File-level parsing                                                  *)
(* ------------------------------------------------------------------ *)

let is_label_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '.' || c = '$'

let rec parse_line ~line (s : string) : (Source.item list, error) result =
  let s = String.trim (strip_comment s) in
  if s = "" then Ok []
  else
    (* label definitions: "name:" possibly followed by more *)
    match String.index_opt s ':' with
    | Some i
      when i > 0
           && String.for_all is_label_char (String.sub s 0 i)
           && not (String.contains (String.sub s 0 i) ' ') ->
        let rest = String.sub s (i + 1) (String.length s - i - 1) in
        let lbl = Source.Label (String.sub s 0 i) in
        if String.trim rest = "" then Ok [ lbl ]
        else (
          match parse_line ~line rest with
          | Ok items -> Ok (lbl :: items)
          | Error e -> Error e)
    | _ ->
        if s.[0] = '.' then
          (* directive: keep opaque *)
          match String.index_opt s ' ' with
          | None -> Ok [ Source.Directive (s, "") ]
          | Some i ->
              Ok
                [ Source.Directive
                    ( String.sub s 0 i,
                      String.trim
                        (String.sub s (i + 1) (String.length s - i - 1)) )
                ]
        else (
          match parse_insn s with
          | Ok i -> Ok [ Source.Insn i ]
          | Error msg -> errorf line "%s" msg)

(** Parse a whole assembly file. *)
let parse_string (text : string) : (Source.t, error) result =
  let lines = String.split_on_char '\n' text in
  let rec go n acc = function
    | [] -> Ok (List.concat (List.rev acc))
    | l :: tl -> (
        match parse_line ~line:n l with
        | Ok items -> go (n + 1) (items :: acc) tl
        | Error e -> Error e)
  in
  go 1 [] lines

let parse_string_exn text =
  match parse_string text with
  | Ok src -> src
  | Error { line; msg } ->
      failwith (Printf.sprintf "parse error at line %d: %s" line msg)
