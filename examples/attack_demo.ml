(* Attack demo: what the verifier rejects, and what the guards contain.

   Part 1 feeds the verifier a series of hand-written hostile assembly
   programs, each violating one Section 5.2 rule.
   Part 2 runs a verified-but-adversarial program that computes
   out-of-sandbox pointers in every way it can and shows that the
   guards force every access back inside its own 4GiB slot.

   Run with: dune exec examples/attack_demo.exe *)

let hostile : (string * string) list =
  [
    ( "raw store through an unguarded register",
      "movz x5, #0xdead, lsl #16\n\tstr x0, [x5]\n\tret" );
    ( "clobbering the sandbox base register x21",
      "movz x21, #0\n\tret" );
    ( "loading x18 without its guard",
      "movz x18, #16\n\tldr x0, [x18]\n\tret" );
    ( "indirect branch through an arbitrary register",
      "movz x7, #0\n\tbr x7" );
    ( "direct system call",
      "movz x8, #0\n\tsvc #0\n\tret" );
    ( "writing x30 without a following guard",
      "ldr x30, [sp]\n\tnop\n\tret" );
    ( "runtime-table load not followed by blr",
      "ldr x30, [x21, #16]\n\tnop\n\tret" );
    ( "sp modified with a large immediate and no guard",
      "sub sp, sp, #4095, lsl #12\n\tret" );
    ( "sp adjusted without a following stack access",
      "sub sp, sp, #16\n\tret" );
    ( "64-bit write to the 32-bit-only register x22",
      "movz x22, #1\n\tret" );
    ( "branch out of the text segment",
      "b .+4096" );
  ]

let check_rejected (label, asm) =
  let src = Lfi_arm64.Parser.parse_string_exn ("_start:\n\t" ^ asm ^ "\n") in
  match Lfi_verifier.Verifier.verify_elf (Lfi_core.Build.elf None src) with
  | Error (Lfi_verifier.Verifier.Rejected (v :: _)) ->
      Format.printf "  rejected %-50s (%s)@." label v.Lfi_verifier.Verifier.rule
  | _ ->
      Printf.printf "  !! NOT REJECTED: %s\n" label;
      exit 1

(* A verified program that tries to escape: it takes a legitimate
   pointer to its own "cell" variable, adds 4GiB so that it points at
   the same offset inside the NEIGHBOUR sandbox, stores through it and
   loads it back.  The inserted guards replace the top 32 bits of the
   address with the sandbox base on every access, so both the store and
   the load hit the attacker's own cell — it reads back its own 0x7777
   and the victim's 0xBEEF is never touched. *)
let escape_attempt = {|
_start:
	// evil = own base (from a legit pointer) + 4GiB + offset of "cell"
	adr x0, cell
	movz x1, #1
	movk x1, #0, lsl #16
	lsl x1, x1, #32        // x1 = 1 << 32 = 4GiB
	add x2, x0, x1         // points into the neighbour sandbox
	movz x3, #0x7777
	str x3, [x2]           // guarded: must hit OUR cell, not theirs
	ldr x4, [x2]           // guarded load reads it back
	mov x0, x4
	svc #1
	b _start
.data
cell:
	.quad 0
|}

let () =
  print_endline "Part 1: the static verifier rejects unsafe machine code";
  List.iter check_rejected hostile;

  print_endline "\nPart 2: guards contain a verified escape attempt";
  let src = Lfi_arm64.Parser.parse_string_exn escape_attempt in
  let elf = Lfi_core.Build.elf (Some Lfi_core.Config.default) src in
  let rt = Lfi_runtime.Runtime.create () in
  (* two sandboxes side by side: the victim holds a secret at the same
     offset the attacker targets *)
  let victim =
    let src =
      Lfi_arm64.Parser.parse_string_exn
        "_start:\n\tmovz x0, #0\n\tsvc #1\n\tb _start\n.data\ncell:\n\t.quad 0xBEEF\n"
    in
    Lfi_runtime.Runtime.load rt ~personality:Lfi_runtime.Proc.Lfi
      (Lfi_core.Build.elf (Some Lfi_core.Config.default) src)
  in
  let attacker = Lfi_runtime.Runtime.load rt ~personality:Lfi_runtime.Proc.Lfi elf in
  ignore victim;
  let log = Lfi_runtime.Runtime.run rt in
  (match List.assoc_opt attacker.Lfi_runtime.Proc.pid log with
  | Some (Lfi_runtime.Runtime.Exited code) ->
      Printf.printf
        "  attacker stored 0x7777 through a pointer aimed at its \
         neighbour,\n  read back 0x%x -> the guard redirected both \
         accesses into its own slot\n"
        code;
      assert (code = 0x7777)
  | other ->
      Printf.printf "  unexpected outcome: %s\n"
        (match other with
        | Some (Lfi_runtime.Runtime.Killed w) -> w
        | _ -> "did not run");
      exit 1);
  print_endline "\nAll escape attempts neutralized."
