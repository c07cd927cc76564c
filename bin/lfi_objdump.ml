(* lfi-objdump: disassemble an LFI ELF executable.

   Decodes the text segment with the same decoder the verifier uses and
   prints a GNU-style listing.  When the binary carries a .symtab,
   symbol labels are printed above function starts and branch targets
   are annotated as <sym+0xoff> (through the same resolver the
   postmortem backtrace uses).  With --annotate, each line is tagged
   with the verifier's classification (guard instructions, guarded
   accesses, runtime calls), which makes rewritten binaries easy to
   audit by eye. *)

open Cmdliner
open Lfi_arm64

let classify (i : Insn.t) : string =
  match i with
  | Insn.Alu
      { op = Insn.ADD; flags = false; dst = Reg.R (Reg.W64, (18 | 23 | 24 | 30));
        src = Reg.R (Reg.W64, 21); op2 = Insn.Ext (_, Insn.Uxtw, 0) } ->
      "guard"
  | Insn.Alu
      { op = Insn.ADD; flags = false; dst = Reg.SP Reg.W64;
        src = Reg.R (Reg.W64, 21); _ } ->
      "sp guard"
  | Insn.Ldr { dst = Reg.R (Reg.W64, 30);
               addr = Insn.Imm_off (Reg.R (Reg.W64, 21), _); _ } ->
      "runtime call"
  | Insn.Ldr { addr = Insn.Reg_off (Reg.R (Reg.W64, 21), _, Insn.Uxtw, 0); _ }
  | Insn.Str { addr = Insn.Reg_off (Reg.R (Reg.W64, 21), _, Insn.Uxtw, 0); _ }
  | Insn.Fldr { addr = Insn.Reg_off (Reg.R (Reg.W64, 21), _, Insn.Uxtw, 0); _ }
  | Insn.Fstr { addr = Insn.Reg_off (Reg.R (Reg.W64, 21), _, Insn.Uxtw, 0); _ }
    ->
      "guarded access"
  | Insn.Udf _ -> "UNSAFE"
  | Insn.Svc _ | Insn.Mrs _ | Insn.Msr _ -> "UNSAFE"
  | _ -> ""

(** Pc-relative branch target of [i] (at [addr]), if it has one. *)
let branch_target (addr : int) (i : Insn.t) : int option =
  match i with
  | Insn.B (Insn.Off n)
  | Insn.Bl (Insn.Off n)
  | Insn.Bcond (_, Insn.Off n)
  | Insn.Cbz { target = Insn.Off n; _ }
  | Insn.Tbz { target = Insn.Off n; _ } ->
      Some (addr + n)
  | _ -> None

let run input annotate =
  let bytes = In_channel.with_open_bin input In_channel.input_all in
  match Lfi_elf.Elf.read (Bytes.of_string bytes) with
  | exception Lfi_elf.Elf.Bad_elf msg ->
      Printf.eprintf "%s: bad ELF: %s\n" input msg;
      exit 2
  | elf -> (
      match Lfi_elf.Elf.text_segment elf with
      | None ->
          Printf.eprintf "%s: no executable segment\n" input;
          exit 2
      | Some seg ->
          let insns = Isa.decode_all seg.Lfi_elf.Elf.data in
          let syms =
            Lfi_telemetry.Profile.sym_table elf.Lfi_elf.Elf.symbols
          in
          (* rewrite sites by address, from the .lfi_sites sidecar:
             [guard] = rewriter-inserted, [~guard] = original
             instruction modified in place *)
          let sites = Hashtbl.create 64 in
          List.iter
            (fun (s : Lfi_telemetry.Overhead.site) ->
              Hashtbl.replace sites s.pc
                (Printf.sprintf "[%s%s]"
                   (if s.inserted then "" else "~")
                   (Lfi_telemetry.Overhead.category_tag s.category)))
            elf.Lfi_elf.Elf.sites;
          (* symbol labels by address, in table order *)
          let labels = Hashtbl.create 64 in
          Array.iter
            (fun (addr, name) ->
              Hashtbl.replace labels addr
                (match Hashtbl.find_opt labels addr with
                | Some prev -> prev @ [ name ]
                | None -> [ name ]))
            syms;
          Printf.printf "%s:  entry at 0x%x\n\n" input elf.Lfi_elf.Elf.entry;
          Array.iteri
            (fun k i ->
              let addr = seg.Lfi_elf.Elf.vaddr + (4 * k) in
              (match Hashtbl.find_opt labels addr with
              | Some names ->
                  if k > 0 then print_newline ();
                  List.iter (Printf.printf "%08x <%s>:\n" addr) names
              | None -> ());
              let word =
                Int32.to_int
                  (Bytes.get_int32_le seg.Lfi_elf.Elf.data (4 * k))
                land 0xFFFFFFFF
              in
              let notes =
                (match branch_target addr i with
                | Some t -> (
                    match Lfi_telemetry.Profile.pp_sym syms t with
                    | Some s -> [ Printf.sprintf "<%s>" s ]
                    | None -> [])
                | None -> [])
                @ (if annotate then
                     match classify i with "" -> [] | tag -> [ tag ]
                   else [])
                @ (match Hashtbl.find_opt sites addr with
                  | Some tag -> [ tag ]
                  | None -> [])
              in
              Printf.printf "  %6x:\t%08x\t%-40s%s\n" addr word
                (Printer.to_string i)
                (match notes with
                | [] -> ""
                | _ -> "; " ^ String.concat "; " notes))
            insns)

let cmd =
  let input = Arg.(required & pos 0 (some file) None & info [] ~docv:"BINARY") in
  let annotate =
    Arg.(value & flag & info [ "annotate" ]
           ~doc:"Tag guards, guarded accesses and runtime calls.")
  in
  Cmd.v
    (Cmd.info "lfi-objdump" ~doc:"Disassemble an LFI ELF binary")
    Term.(const run $ input $ annotate)

let () = exit (Cmd.eval cmd)
