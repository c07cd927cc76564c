(** Sampled program-counter profiles.

    The emulator records the current pc every [period] executed
    instructions (period is rounded to a power of two so the "is a
    sample due" check on the hot path is one [land] against the
    instruction counter).  Sampling on {e simulated instruction count}
    rather than wall time makes profiles deterministic: the same
    workload always yields the same histogram.

    The histogram is keyed by untagged pc (sandbox addresses fit in an
    OCaml int); folding through a symbol table happens once at report
    time, never while sampling. *)

type t = {
  mask : int;  (** the period, a power of two, minus one *)
  samples : (int, int) Hashtbl.t;  (** pc -> sample hits *)
  mutable total : int;
}

let rec pow2_ge n k = if k >= n then k else pow2_ge n (k * 2)

let create ?(period = 4096) () =
  let period = pow2_ge (max 1 period) 1 in
  { mask = period - 1; samples = Hashtbl.create 256; total = 0 }

let sample t (pc : int) =
  t.total <- t.total + 1;
  match Hashtbl.find_opt t.samples pc with
  | Some n -> Hashtbl.replace t.samples pc (n + 1)
  | None -> Hashtbl.add t.samples pc 1

(* ------------------------------------------------------------------ *)
(* Symbol folding                                                      *)
(* ------------------------------------------------------------------ *)

(** Symbols sorted by address, ready for binary search. *)
type sym_table = (int * string) array

(** Build a fold table from [(name, address)] pairs, dropping
    GNU-convention local labels ([.L...]). *)
let sym_table (syms : (string * int) list) : sym_table =
  let keep =
    List.filter
      (fun (name, _) -> not (String.length name >= 2 && name.[0] = '.'))
      syms
  in
  let a = Array.of_list (List.map (fun (n, v) -> (v, n)) keep) in
  Array.sort compare a;
  a

(** Nearest symbol at or below [off]: [(name, offset-within-symbol)].
    Shared by the flat profiler, the postmortem backtrace walker and
    [lfi_objdump]'s branch-target annotations. *)
let resolve_sym (tbl : sym_table) (off : int) : (string * int) option =
  let n = Array.length tbl in
  if n = 0 || fst tbl.(0) > off then None
  else begin
    (* greatest index with address <= off *)
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if fst tbl.(mid) <= off then lo := mid else hi := mid - 1
    done;
    let addr, name = tbl.(!lo) in
    Some (name, off - addr)
  end

(** Name of the nearest symbol at or below [off], if any. *)
let resolve (tbl : sym_table) (off : int) : string option =
  match resolve_sym tbl off with
  | Some (name, _) -> Some name
  | None -> None

(** Render [off] through [tbl] as ["sym+0x12"] (plain ["sym"] at the
    symbol's own address), falling back to [None] outside the table. *)
let pp_sym (tbl : sym_table) (off : int) : string option =
  match resolve_sym tbl off with
  | Some (name, 0) -> Some name
  | Some (name, d) -> Some (Printf.sprintf "%s+0x%x" name d)
  | None -> None

type line = { name : string; hits : int; fraction : float }

(** Flat profile of the samples in [\[base, limit)], with pcs rebased
    to [base] and folded through [symbols].  Lines are sorted by hits
    (descending), then name, so reports are deterministic. *)
let flat t ~(symbols : sym_table) ~(base : int) ~(limit : int) : line list =
  let per_sym : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let in_range = ref 0 in
  Hashtbl.iter
    (fun pc n ->
      if pc >= base && pc < limit then begin
        in_range := !in_range + n;
        let name =
          match resolve symbols (pc - base) with
          | Some s -> s
          | None -> Printf.sprintf "0x%x" (pc - base)
        in
        Hashtbl.replace per_sym name
          (n + Option.value ~default:0 (Hashtbl.find_opt per_sym name))
      end)
    t.samples;
  let total = max 1 !in_range in
  Hashtbl.fold
    (fun name hits acc ->
      { name; hits; fraction = float_of_int hits /. float_of_int total } :: acc)
    per_sym []
  |> List.sort (fun a b ->
         match compare b.hits a.hits with 0 -> compare a.name b.name | c -> c)
