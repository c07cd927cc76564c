(** Experiment E3 — §6.3 code size overhead.

    LFI adds no alignment padding, so its text-segment increase is just
    the inserted guards: the paper reports a geomean text increase of
    12.9% and whole-binary increase of 8.3%, versus 22% binary increase
    for WAMR. *)

(** Percent growth of each benchmark's LFI O2 text and whole file, and
    of its WAMR text (Wasm-compatible benchmarks only), over native. *)
let measure () : (string * float * float * float option) list =
  let pct a b = (float_of_int b -. float_of_int a) /. float_of_int a *. 100.0 in
  List.map
    (fun w ->
      let prog = w.Lfi_workloads.Common.program in
      let native = Run.build Run.Native prog in
      let lfi = Run.build (Run.Lfi Lfi_core.Config.o2) prog in
      let native_text = Lfi_elf.Elf.text_size native in
      ( w.Lfi_workloads.Common.name,
        pct native_text (Lfi_elf.Elf.text_size lfi),
        pct (Lfi_elf.Elf.total_size native) (Lfi_elf.Elf.total_size lfi),
        (* compare executable text: the Wasm image embeds the linear
           memory, so whole-file comparison would be meaningless *)
        if w.Lfi_workloads.Common.wasm_ok then
          let wamr = Run.build (Run.Wasm Lfi_wasm.Engine.wamr) prog in
          Some (pct native_text (Lfi_elf.Elf.text_size wamr))
        else None ))
    (Lfi_workloads.Registry.selected ())

let table () : Report.table =
  let rows = measure () in
  let gm sel = Run.geomean (List.map sel rows) in
  {
    Report.title = "Code size increase over native (§6.3)";
    header = [ "benchmark"; "LFI text"; "LFI binary"; "WAMR text" ];
    rows =
      List.map
        (fun (bench, text, file, wamr) ->
          [ bench; Report.fmt_pct text; Report.fmt_pct file;
            Option.fold ~none:"-" ~some:Report.fmt_pct wamr ])
        rows
      @ [ [ "geomean"; Report.fmt_pct (gm (fun (_, t, _, _) -> t));
            Report.fmt_pct (gm (fun (_, _, f, _) -> f));
            Report.fmt_pct
              (Run.geomean (List.filter_map (fun (_, _, _, w) -> w) rows)) ] ];
    notes =
      [ Printf.sprintf
          "paper: text +%.1f%%, binary +%.1f%%, WAMR binary +%.0f%%"
          Report.Paper.text_increase Report.Paper.binary_increase
          Report.Paper.wamr_binary_increase ];
  }

let tables () = [ table () ]
