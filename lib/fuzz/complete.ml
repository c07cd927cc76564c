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

type verdict = Vpass | Vfail of string

(** Build [src] at [config] and verify the image. *)
let check_level ~(name : string) (config : Lfi_core.Config.t)
    (src : Source.t) : verdict =
  match Equiv.build_level ~name config src with
  | Error why -> Vfail why
  | Ok elf -> (
      match Lfi_verifier.Verifier.verify_elf elf with
      | Ok _ -> Vpass
      | Error Lfi_verifier.Verifier.No_executable_segment ->
          Vfail (name ^ ": no text segment")
      | Error (Lfi_verifier.Verifier.Rejected violations) ->
          Vfail
            (Format.asprintf "%s: %d violations, first: %a" name
               (List.length violations) Lfi_verifier.Verifier.pp_violation
               (List.hd violations)))

let check_source (src : Source.t) : verdict =
  List.fold_left
    (fun v (name, config) ->
      if v = Vpass then check_level ~name config src else v)
    Vpass opt_levels

(** [run ~seed ~count ~minic_count ()] — rewriter outputs for [count]
    raw streams and [minic_count] MiniC programs must all verify. *)
let run ?(seed = 0) ?(count = 150) ?(minic_count = 30) ?repro_dir () :
    Report.t =
  let failures = ref [] and cases = ref 0 in
  let record_failure ~case ~desc ~asm =
    let repro =
      match repro_dir with
      | None -> None
      | Some dir ->
          Some
            (Corpus.write_repro ~dir ~engine:"complete" ~expect:Corpus.Accept
               ~label:(Printf.sprintf "seed%d_case%d" seed case)
               ~notes:[ desc ] asm)
    in
    failures := { Report.case; desc; repro } :: !failures
  in
  for case = 0 to count - 1 do
    let rand = Random.State.make [| seed; case |] in
    let stream = QCheck.Gen.generate1 ~rand Gen_insn.sandbox_stream in
    incr cases;
    match check_source (Equiv.stream_program stream) with
    | Vpass -> ()
    | Vfail desc ->
        (* minimize the stream while it still fails to verify *)
        let fails s =
          match check_source (Equiv.stream_program s) with
          | Vfail _ -> true
          | Vpass -> false
        in
        let small = Shrink.items stream ~still_fails:fails in
        record_failure ~case ~desc
          ~asm:(Source.to_string (Equiv.stream_program small))
  done;
  for k = 0 to minic_count - 1 do
    let case = count + k in
    let rand = Random.State.make [| seed; case |] in
    let prog = QCheck.Gen.generate1 ~rand Gen_minic.gen_program in
    incr cases;
    let src = Lfi_minic.Compile.compile prog in
    match check_source src with
    | Vpass -> ()
    | Vfail desc ->
        record_failure ~case ~desc:("minic: " ^ desc)
          ~asm:(Source.to_string src)
  done;
  {
    Report.engine = "complete";
    seed;
    cases = !cases;
    skipped = 0;
    failures = List.rev !failures;
  }
