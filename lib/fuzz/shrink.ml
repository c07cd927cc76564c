(** Failure minimization for the fuzzing engines (DESIGN.md §5d).

    Two shrinkers, both greedy-to-fixpoint:

    - {!words} operates on machine code: it overwrites one 4-byte
      instruction word at a time with [nop] and keeps the overwrite
      when the caller's predicate (e.g. "still verifies and still
      escapes") still holds.  Nop-out is position-stable — pc-relative
      branches elsewhere in the text are unaffected — so the result is
      a minimal *set of load-bearing instructions*, padded with nops.

    - {!items} operates on instruction lists (the equivalence engine's
      streams): it deletes one element at a time, keeping deletions
      that preserve the failure. *)

let nop_word =
  match Lfi_arm64.Isa.encode Lfi_arm64.Insn.Nop with
  | Ok w -> w
  | Error _ -> assert false

let get32 b i = Int32.to_int (Bytes.get_int32_le b (i * 4)) land 0xFFFFFFFF
let set32 b i v = Bytes.set_int32_le b (i * 4) (Int32.of_int v)

(** Greedily nop out instruction words of [code] while [still_fails]
    holds.  Returns the minimized copy and the number of non-nop words
    left.  [still_fails] must be true of [code] itself. *)
let words (code : bytes) ~(still_fails : bytes -> bool) : bytes * int =
  let b = Bytes.copy code in
  let n = Bytes.length b / 4 in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 0 to n - 1 do
      let w = get32 b i in
      if w <> nop_word then begin
        set32 b i nop_word;
        if still_fails b then changed := true else set32 b i w
      end
    done
  done;
  let live = ref 0 in
  for i = 0 to n - 1 do
    if get32 b i <> nop_word then incr live
  done;
  (b, !live)

(** Greedily delete elements of [xs] while [still_fails] holds of the
    remainder.  [still_fails] must be true of [xs] itself. *)
let items (xs : 'a list) ~(still_fails : 'a list -> bool) : 'a list =
  let rec pass kept = function
    | [] -> List.rev kept
    | x :: tl ->
        if still_fails (List.rev_append kept tl) then pass kept tl
        else pass (x :: kept) tl
  in
  let rec fixpoint xs =
    let xs' = pass [] xs in
    if List.length xs' < List.length xs then fixpoint xs' else xs'
  in
  fixpoint xs
