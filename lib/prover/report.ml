(** The [lfi-prove/v1] report (DESIGN.md §5i).

    Byte-stable by construction, like the fuzz and bench reports: the
    JSON has a fixed field order, counts are fully determined by
    (strata tier, verifier config), and wall-clock timing is only
    included when explicitly requested ([~elapsed_ms]), so the default
    report can be pinned by a golden test and compared byte-for-byte
    in CI. *)

type hole = {
  word : int;  (** encoding of the offending instruction *)
  disasm : string;
  clause : string;  (** violated invariant clause, cf. {!Invariant.clause_name} *)
  detail : string;
}

type stratum_result = {
  s_name : string;
  candidates : int;  (** encodings enumerated *)
  rejected : int;  (** verifier refused every completion *)
  accepted : int;  (** verifier accepted at least one completion *)
  proved : int;  (** accepted and symbolically proved *)
  holes : int;  (** accepted but unprovable: soundness holes *)
  samples : hole list;  (** first few holes, for the report *)
}

type t = {
  tier : string;  (** "smoke" or "full" *)
  weakenings : string list;  (** deliberate config weakenings applied *)
  strata : stratum_result list;
  elapsed_ms : int option;
}

let total f r = List.fold_left (fun a s -> a + f s) 0 r.strata
let total_holes r = total (fun s -> s.holes) r

(* ---- JSON ---- *)

let to_json (r : t) : string =
  let open Lfi_telemetry.Json in
  let counts cand rej acc proved holes =
    [ ("candidates", Int cand); ("rejected", Int rej); ("accepted", Int acc);
      ("proved", Int proved); ("holes", Int holes) ]
  in
  let hole h =
    Obj
      [
        ("word", Str (Printf.sprintf "0x%08x" h.word));
        ("disasm", Str h.disasm);
        ("clause", Str h.clause); ("detail", Str h.detail);
      ]
  in
  let stratum s =
    Obj
      ((("name", Str s.s_name)
        :: counts s.candidates s.rejected s.accepted s.proved s.holes)
      @ [ ("samples", Arr (List.map hole s.samples)) ])
  in
  to_pretty
    (Obj
       [
         ("schema", Str "lfi-prove/v1"); ("tier", Str r.tier);
         ("weakenings", Arr (List.map (fun w -> Str w) r.weakenings));
         ("strata", Arr (List.map stratum r.strata));
         ( "totals",
           Obj
             (counts
                (total (fun s -> s.candidates) r)
                (total (fun s -> s.rejected) r)
                (total (fun s -> s.accepted) r)
                (total (fun s -> s.proved) r)
                (total_holes r)) );
         ( "elapsed_ms",
           match r.elapsed_ms with None -> Null | Some ms -> Int ms );
       ])

(* ---- human summary ---- *)

let pp fmt (r : t) =
  Format.fprintf fmt "lfi-prove/v1 · tier %s%s@." r.tier
    (match r.weakenings with
    | [] -> ""
    | ws -> " · weakened: " ^ String.concat ", " ws);
  Format.fprintf fmt "  %-14s %10s %9s %9s %9s %7s@." "stratum"
    "candidates" "rejected" "accepted" "proved" "holes";
  List.iter
    (fun s ->
      Format.fprintf fmt "  %-14s %10d %9d %9d %9d %7d@." s.s_name
        s.candidates s.rejected s.accepted s.proved s.holes)
    r.strata;
  Format.fprintf fmt "  %-14s %10d %9d %9d %9d %7d@." "total"
    (total (fun s -> s.candidates) r)
    (total (fun s -> s.rejected) r)
    (total (fun s -> s.accepted) r)
    (total (fun s -> s.proved) r)
    (total_holes r);
  List.iter
    (fun s ->
      List.iter
        (fun h ->
          Format.fprintf fmt "  HOLE %s: 0x%08x  %-28s %s: %s@." s.s_name
            h.word h.disasm h.clause h.detail)
        s.samples)
    r.strata;
  match r.elapsed_ms with
  | Some ms -> Format.fprintf fmt "  elapsed: %d ms@." ms
  | None -> ()
