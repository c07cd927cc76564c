(** Rewriter configuration: the optimization levels of Section 6.1. *)

type opt_level =
  | O0  (** only the basic two-cycle [add ... uxtw] guard (plus the
            stack-pointer optimizations, which O0 keeps in the paper) *)
  | O1  (** zero-instruction guards via the [\[x21, wN, uxtw\]]
            addressing mode and the Table 3 rewrites *)
  | O2  (** O1 plus redundant guard elimination with the hoisting
            registers x23/x24 (§4.3) *)

let opt_level_to_string = function O0 -> "O0" | O1 -> "O1" | O2 -> "O2"

(** The level a command line's [-O n] asks for: 0, 1, or 2 for any
    other number. *)
let opt_level_of_int = function 0 -> O0 | 1 -> O1 | _ -> O2

type t = {
  opt : opt_level;
  sandbox_loads : bool;
      (** [false] gives the "no loads" variant: only stores and jumps
          are isolated (≈1% overhead, suitable for compartmentalization)
          — the "LFI O2, no loads" series of Figure 3 *)
  allow_exclusives : bool;
      (** when [false], LL/SC instructions are rejected outright
          (the §7.1 mitigation for the S2C timerless side channel);
          when [true] they are guarded like other accesses *)
  sp_block_optimization : bool;
      (** §4.2 "later access within the same basic block": elide the sp
          guard after a small immediate adjustment that is anchored by
          a following sp access.  On by default (the paper keeps the
          stack-pointer optimizations even at O0); the ablation bench
          turns it off to price it *)
}

let default =
  { opt = O2; sandbox_loads = true; allow_exclusives = true;
    sp_block_optimization = true }

let o0 = { default with opt = O0 }
let o1 = { default with opt = O1 }
let o2 = default
let o2_no_loads = { default with sandbox_loads = false }

let name c =
  Printf.sprintf "LFI %s%s"
    (opt_level_to_string c.opt)
    (if c.sandbox_loads then "" else ", no loads")
