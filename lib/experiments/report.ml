(** Text rendering for the experiment tables, plus the paper's
    reference numbers so every report prints paper-vs-measured. *)

type table = {
  title : string;
  header : string list;
  rows : string list list;
  notes : string list;
}

let fmt_pct v =
  if Float.is_nan v then "-" else Printf.sprintf "%.1f%%" v

let fmt_ns v =
  if Float.is_nan v then "-" else Printf.sprintf "%.0fns" v

(** A grid row as table cells: the workload's name, then its overhead
    under each system. *)
let overhead_row (r : Run.row) : string list =
  r.Run.workload.Lfi_workloads.Common.name
  :: List.map fmt_pct (Run.overheads r)

(** The closing row of a grid table: each system's geomean overhead. *)
let geomean_row (grid : Run.row list) : string list =
  "geomean" :: List.map fmt_pct (Run.geomeans grid)

let render (t : table) : string =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf ("== " ^ t.title ^ " ==\n");
  let all = t.header :: t.rows in
  let ncols = List.fold_left (fun m r -> max m (List.length r)) 0 all in
  let widths = Array.make ncols 0 in
  List.iter
    (List.iteri (fun c cell -> widths.(c) <- max widths.(c) (String.length cell)))
    all;
  (* the first column is left-aligned, the rest right-aligned; nothing
     follows a row's last cell *)
  let render_row r =
    let last = List.length r - 1 in
    List.mapi
      (fun c cell ->
        let pad = String.make (widths.(c) - String.length cell) ' ' in
        if c > 0 then pad ^ cell else if c < last then cell ^ pad else cell)
      r
    |> String.concat "  " |> Buffer.add_string buf;
    Buffer.add_char buf '\n'
  in
  render_row t.header;
  Buffer.add_string buf (String.make (Array.fold_left ( + ) (2 * ncols) widths) '-');
  Buffer.add_char buf '\n';
  List.iter render_row t.rows;
  List.iter (fun n -> Buffer.add_string buf ("  note: " ^ n ^ "\n")) t.notes;
  Buffer.contents buf

let print t = print_string (render t)

(** Reference values from the paper, used in the printed comparisons
    and recorded in EXPERIMENTS.md. *)
module Paper = struct
  (* Table 4: geomean overheads over native (LTO), percent. *)
  let table4 =
    [
      ("Wasmtime", (47.0, 67.1));
      ("Wasm2c", (40.7, 37.5));
      ("Wasm2c (no barrier)", (21.5, 20.8));
      ("Wasm2c (pinned register)", (16.5, 15.7));
      ("WAMR", (22.3, 18.2));
      ("LFI", (7.3, 6.4));
    ]
  (* t2a, m1 *)

  (* Figure 3 geomeans (LFI O2, full isolation). *)
  let fig3_geomean_m1 = 6.4
  let fig3_geomean_t2a = 7.3
  let fig3_no_loads = 1.0 (* "reduces overhead to around 1%" *)

  (* §6.3 code size. *)
  let text_increase = 12.9
  let binary_increase = 8.3
  let wamr_binary_increase = 22.0

  (* Table 5, ns. *)
  let table5_m1 = [ ("syscall", (22., 129., nan)); ("pipe", (46., 1504., nan));
                    ("yield", (17., nan, nan)) ]

  let table5_t2a =
    [ ("syscall", (26., 160., 12019.)); ("pipe", (48., 2494., 22899.));
      ("yield", (18., nan, nan)) ]

  (* §5.2 verifier speed. *)
  let verifier_mb_s = 34.0
  let wabt_mb_s = 3.0
end
