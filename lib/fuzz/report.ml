(** The fuzzing engines' one driver and its report.

    An engine is only what a single case does; {!run} is the seeded
    loop every engine shares: case [k] draws from
    [Random.State.make [| seed; k |]], so a one-line failure report
    regenerates the input, and a failing case's minimized text is
    written as a replayable corpus entry. *)

type outcome =
  | Pass
  | Skip  (** generated but not runnable (e.g. unbounded loops) *)
  | Fail of string * string
      (** one-line description of what diverged, minimized repro text *)

type engine = {
  name : string;
  expect : Corpus.expect;  (** what the verifier must do with a repro *)
  seed : int;
  count : int;  (** cases, numbered [0 .. count - 1] *)
  case : Random.State.t -> int -> outcome;
      (** case [k], given its random state and [k] *)
}

type failure = {
  case : int;  (** case index within the run (with the seed, enough to
                   regenerate the input) *)
  desc : string;  (** one-line description of what diverged *)
  repro : string option;  (** path of the minimized repro, if written *)
}

type t = {
  engine : string;
  seed : int;
  cases : int;  (** cases actually executed *)
  skipped : int;  (** generated but not runnable (e.g. unbounded loops) *)
  failures : failure list;
}

(** Run every case of [e]; a failing case's repro is written to
    [repro_dir] as [repro_<engine>_seed<S>_case<K>.s]. *)
let run ?repro_dir (e : engine) : t =
  let failures = ref [] and skipped = ref 0 in
  for case = 0 to e.count - 1 do
    match e.case (Random.State.make [| e.seed; case |]) case with
    | Pass -> ()
    | Skip -> incr skipped
    | Fail (desc, asm) ->
        let repro =
          Option.map
            (fun dir ->
              Corpus.write_repro ~dir ~engine:e.name ~expect:e.expect
                ~label:(Printf.sprintf "seed%d_case%d" e.seed case)
                ~notes:[ desc ] asm)
            repro_dir
        in
        failures := { case; desc; repro } :: !failures
  done;
  {
    engine = e.name;
    seed = e.seed;
    cases = e.count - !skipped;
    skipped = !skipped;
    failures = List.rev !failures;
  }

let ok (t : t) = t.failures = []

let pp fmt (t : t) =
  Format.fprintf fmt "%-10s seed=%-8d %4d cases, %d skipped: %s" t.engine
    t.seed t.cases t.skipped
    (if ok t then "OK" else Printf.sprintf "%d FAILURES" (List.length t.failures));
  List.iter
    (fun f ->
      Format.fprintf fmt "@.  case %d: %s" f.case f.desc;
      match f.repro with
      | Some p -> Format.fprintf fmt "@.    repro: %s" p
      | None -> ())
    t.failures
