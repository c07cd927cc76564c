(** The proof driver (DESIGN.md §5i).

    Two consumers share the same per-instruction proof:

    - {!run_stratum} / {!run}: enumerate candidate encodings from
      {!Strata}, complete each with the bounded forward window the
      verifier's local rules assume (a [blr x30] after a table load,
      the x30 guard after an x30 write, an sp anchor after a drift,
      nop padding for direct branches), verify the completed sequence,
      and symbolically prove every *accepted* variant.  An accepted
      variant with a failed obligation is a soundness hole.

    - {!check_program}: prove every instruction of a real verified
      program with its actual forward window — used to pin
      prover-accepts ⇒ oracle-clean agreement on the fuzzing corpus.

    The induction per window: start from {!Invariant.start} (the
    anchored sp range when the head is the bare drift instruction —
    justified because the verifier rejects two un-anchored sp writes
    in a row, so the boundary before an accepted drift is always
    anchored), step the transfer function, and require the invariant
    at the window's end plus every obligation in between. *)

open Lfi_arm64
module Verifier = Lfi_verifier.Verifier

let code_origin = Lfi_core.Layout.code_origin

(** Writes x30 in a way the verifier only accepts with the guard as
    the next instruction. *)
let needs_x30_guard i =
  Insn.writes_reg_number i 30
  && (match i with Insn.Bl _ | Insn.Blr _ -> false | _ -> true)
  && (not (Verifier.is_x30_guard i))
  && not (Verifier.is_table_load i)

(** Last instruction index of the proof window headed at [idx]: the
    forward context the verifier's local rule for [insns.(idx)]
    depends on. *)
let window_end (insns : Insn.t array) (idx : int) : int =
  let n = Array.length insns in
  let i = insns.(idx) in
  if Transfer.is_sp_drift i then begin
    (* mirror the verifier's sp_anchor scan *)
    let rec go j =
      if j >= n then idx
      else if
        Verifier.is_sp_guard insns.(j)
        || Verifier.is_sp_based_access insns.(j)
      then j
      else if Insn.writes_sp insns.(j) || Insn.is_branch insns.(j) then idx
      else go (j + 1)
    in
    go (idx + 1)
  end
  else if Verifier.is_table_load i || needs_x30_guard i then
    min (n - 1) (idx + 1)
  else idx

(** Prove the window headed at [idx]; returns the failed obligations
    (empty = proved). *)
let prove_window ~(origin : int) (insns : Insn.t array) (idx : int) :
    Transfer.fail list =
  let stop = window_end insns idx in
  let st =
    Invariant.start ~pre_anchored:(Transfer.is_sp_drift insns.(idx))
  in
  let fails = ref [] in
  for j = idx to stop do
    fails := !fails @ Transfer.step st ~pc_off:(origin + (j * 4)) insns.(j)
  done;
  !fails
  @ List.map
      (fun (c, d) -> { Transfer.clause = c; detail = d })
      (Invariant.check st)

(* ------------------------------------------------------------------ *)
(* Whole programs                                                      *)
(* ------------------------------------------------------------------ *)

type program_hole = {
  p_index : int;
  p_disasm : string;
  p_clause : string;
  p_detail : string;
}

(** Verify, then prove every instruction of [code] in place.
    [Error _] means the verifier itself rejected the program; [Ok []]
    is a full soundness proof of this binary's instruction windows. *)
let check_program ?(config = Verifier.default_config)
    ?(origin = code_origin) ~(code : bytes) () :
    (program_hole list, Verifier.violation list) result =
  match Verifier.verify ~config ~origin ~code () with
  | Error vs -> Error vs
  | Ok _ ->
      let insns = Isa.decode_all code in
      let holes = ref [] in
      Array.iteri
        (fun idx i ->
          List.iter
            (fun (f : Transfer.fail) ->
              holes :=
                { p_index = idx; p_disasm = Printer.to_string i;
                  p_clause = Invariant.clause_name f.Transfer.clause;
                  p_detail = f.Transfer.detail }
                :: !holes)
            (prove_window ~origin insns idx))
        insns;
      Ok (List.rev !holes)

(* ------------------------------------------------------------------ *)
(* Enumerated candidates                                               *)
(* ------------------------------------------------------------------ *)

let blr_x30 = Insn.Blr (Reg.x 30)

let sp_guard_insn =
  Insn.Alu
    { op = Insn.ADD; flags = false; dst = Reg.sp; src = Reg.x 21;
      op2 = Insn.Ext (Reg.x 22, Insn.Uxtx, 0) }

let anchor_store off =
  Insn.Str { sz = Insn.X; src = Reg.xzr; addr = Insn.Imm_off (Reg.sp, off) }

(* A completion: the window's tail as instructions, and as the bytes
   that follow the candidate word. *)
let tail insns =
  (Array.of_list insns,
   match Isa.encode_all insns with Ok b -> b | Error m -> invalid_arg m)

let table_tail = [ tail [ blr_x30 ] ]

let drift_tails =
  [ tail [ anchor_store 0 ];
    tail [ anchor_store (Lfi_core.Layout.max_mem_immediate - 8) ];
    tail [ sp_guard_insn ] ]

let x30_tail = [ tail [ Verifier.x30_guard ] ]
let branch_tail = [ tail [ Insn.Nop; Insn.Nop; Insn.Nop ] ]
let no_tail = [ tail [] ]

(** Completion variants for a candidate head: every bounded forward
    window under which the verifier may accept it.  A candidate is a
    hole if *any* accepted variant is unprovable.  The sp drift gets
    three anchors — zero-offset store, maximal-offset store, and the
    full guard — because a drift that is safe before a near access can
    still overrun the guard before a far one. *)
let completions (i : Insn.t) =
  if Verifier.is_table_load i then table_tail
  else if Transfer.is_sp_drift i then drift_tails
  else if needs_x30_guard i then x30_tail
  else
    match i with
    | Insn.B _ | Insn.Bl _ | Insn.Bcond _ | Insn.Cbz _ | Insn.Tbz _ ->
        branch_tail
    | _ -> no_tail

let hole_cap = 5

let run_stratum ~(config : Verifier.config) ~(tier : Strata.tier)
    (s : Strata.stratum) : Report.stratum_result =
  let candidates = ref 0 and rejected = ref 0 and accepted = ref 0 in
  let proved = ref 0 and holes = ref 0 and samples = ref [] in
  Seq.iter
    (fun word ->
      incr candidates;
      let head = Isa.decode word in
      let fails = ref [] and ok = ref false in
      List.iter
        (fun (insns, bytes) ->
          let code = Bytes.create (4 + Bytes.length bytes) in
          Bytes.set_int32_le code 0 (Int32.of_int word);
          Bytes.blit bytes 0 code 4 (Bytes.length bytes);
          match Verifier.verify ~config ~origin:code_origin ~code () with
          | Error _ -> ()
          | Ok _ ->
              ok := true;
              let insns = Array.append [| head |] insns in
              fails := !fails @ prove_window ~origin:code_origin insns 0)
        (completions head);
      if not !ok then incr rejected
      else begin
        incr accepted;
        match !fails with
        | [] -> incr proved
        | f :: _ ->
            incr holes;
            if List.length !samples < hole_cap then
              samples :=
                { Report.word; disasm = Printer.to_string head;
                  clause = Invariant.clause_name f.Transfer.clause;
                  detail = f.Transfer.detail }
                :: !samples
      end)
    (s.Strata.words tier);
  { Report.s_name = s.Strata.name; candidates = !candidates;
    rejected = !rejected; accepted = !accepted; proved = !proved;
    holes = !holes; samples = List.rev !samples }

(** Run the enumeration.  [weakenings] are applied on top of [config];
    [only] restricts to a single stratum by name. *)
let run ?(config = Verifier.default_config)
    ?(weakenings : Verifier.weakening list = []) ?(tier = Strata.Smoke)
    ?(only : string option) () : Report.t =
  let config = List.fold_left Verifier.weaken config weakenings in
  let strata =
    match only with
    | None -> Strata.all
    | Some n -> ( match Strata.find n with Some s -> [ s ] | None -> [])
  in
  { Report.tier = Strata.tier_name tier;
    weakenings = List.map Verifier.weakening_name weakenings;
    strata = List.map (run_stratum ~config ~tier) strata;
    elapsed_ms = None }
