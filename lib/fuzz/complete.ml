(** Engine 3: verifier completeness (DESIGN.md §5d).

    The dual of {!Soundness}: every binary the rewriter *produces* —
    at every optimization level — must pass the verifier.  A rejection
    means either the rewriter emitted an unguarded access or the
    verifier is stricter than the rewriting scheme it is supposed to
    describe; both are bugs worth a minimized repro.  Assembly of
    rewriter output must also succeed: an unencodable rewrite is a
    completeness failure, not a skip.

    Inputs are the same two populations as {!Equiv} (raw straight-line
    streams and MiniC programs through the whole compiler), but since
    nothing is executed here there is no interpreter filter — every
    generated program is a case. *)

open Lfi_arm64

let opt_levels = Equiv.opt_levels

(** Build [src] at [config] and verify the image: [None], or why not. *)
let check_level ~(name : string) (config : Lfi_core.Config.t)
    (src : Source.t) : string option =
  match Equiv.build_level ~name config src with
  | Error why -> Some why
  | Ok elf -> (
      match Lfi_verifier.Verifier.verify_elf elf with
      | Ok _ -> None
      | Error Lfi_verifier.Verifier.No_executable_segment ->
          Some (name ^ ": no text segment")
      | Error (Lfi_verifier.Verifier.Rejected violations) ->
          Some
            (Format.asprintf "%s: %d violations, first: %a" name
               (List.length violations) Lfi_verifier.Verifier.pp_violation
               (List.hd violations)))

(** The first opt level at which [src] fails, and why. *)
let check_source (src : Source.t) : string option =
  List.find_map (fun (name, config) -> check_level ~name config src) opt_levels

let stream_case rand : Report.outcome =
  let stream = QCheck.Gen.generate1 ~rand Gen_insn.sandbox_stream in
  match check_source (Equiv.stream_program stream) with
  | None -> Report.Pass
  | Some desc ->
      (* minimize the stream while it still fails to verify *)
      let fails s = Option.is_some (check_source (Equiv.stream_program s)) in
      let small = Shrink.items stream ~still_fails:fails in
      Report.Fail (desc, Source.to_string (Equiv.stream_program small))

let minic_case rand : Report.outcome =
  let prog = QCheck.Gen.generate1 ~rand Gen_minic.gen_program in
  let src = Lfi_minic.Compile.compile prog in
  match check_source src with
  | None -> Report.Pass
  | Some desc -> Report.Fail ("minic: " ^ desc, Source.to_string src)

(** Rewriter outputs for [count] raw streams, then [minic_count] MiniC
    programs, must all verify. *)
let engine ~seed ~count ~minic_count : Report.engine =
  {
    name = "complete";
    expect = Corpus.Accept;
    seed;
    count = count + minic_count;
    case =
      (fun rand k -> if k < count then stream_case rand else minic_case rand);
  }
