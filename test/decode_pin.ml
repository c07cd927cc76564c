(* Exhaustive decode pin: decode every one of the 2^32 words and print,
   per op0 value (bits 28:25), the number of words accepted (decoded to
   anything but [udf]) and an order-sensitive checksum of the decoded
   instructions.  It takes minutes, so it is not part of runtest; a
   nightly CI job diffs its output against decode_pin_expected.txt.

     dune exec test/decode_pin.exe            # all sixteen op0 values
     dune exec test/decode_pin.exe -- 5 d     # only op0 0x5 and 0xD *)

open Lfi_arm64

let pin op0 =
  let accepted = ref 0 and sum = ref 0 in
  for hi = 0 to 7 do
    let base = (hi lsl 29) lor (op0 lsl 25) in
    for lo = 0 to (1 lsl 25) - 1 do
      let i = Isa.decode (base lor lo) in
      (match i with Insn.Udf _ -> () | _ -> incr accepted);
      sum := ((!sum * 0x100000001B3) lxor Hashtbl.hash_param 64 128 i)
             land 0xFFFF_FFFF_FFFF
    done
  done;
  Printf.printf "op0 %X: %d accepted, checksum %012x\n%!" op0 !accepted !sum

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [] -> for op0 = 0 to 15 do pin op0 done
  | args -> List.iter (fun a -> pin (int_of_string ("0x" ^ a))) args
