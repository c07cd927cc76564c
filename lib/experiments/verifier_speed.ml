(** Experiment E6 — verifier throughput (§5.2).

    The paper: the LFI verifier runs at ~34 MB/s (all SPEC binaries in
    under 0.3s each) while the WABT WebAssembly validator manages
    ~3 MB/s.  Here both are *wall-clock* measurements of our
    implementations over the proxy binaries — unlike the cycle-model
    experiments, this one really does measure OCaml code. *)

type result = {
  lfi_mb_s : float;
  lfi_total_bytes : int;
  wasm_mb_s : float;
  wasm_total_bytes : int;
}

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let measure ?(repeats = 20) () : result =
  (* LFI: verify every rewritten proxy's text segment *)
  let texts =
    List.map
      (fun w ->
        let elf = Run.build (Run.Lfi Lfi_core.Config.o2) w.Lfi_workloads.Common.program in
        match Lfi_elf.Elf.text_segment elf with
        | Some seg -> seg.Lfi_elf.Elf.data
        | None -> Bytes.create 0)
      (Lfi_workloads.Registry.selected ())
  in
  let lfi_total_bytes = List.fold_left (fun a b -> a + Bytes.length b) 0 texts in
  let (), lfi_time =
    time (fun () ->
        for _ = 1 to repeats do
          List.iter
            (fun code ->
              match Lfi_verifier.Verifier.verify ~code () with
              | Ok _ -> ()
              | Error _ -> failwith "verifier rejected a good binary")
            texts
        done)
  in
  (* Wasm: deserialize + validate every wasm-compatible module, the
     work a real engine's required validation step performs on binary
     input *)
  let blobs =
    List.map
      (fun w ->
        Lfi_wasm.Ir.serialize
          (Lfi_wasm.From_minic.lower w.Lfi_workloads.Common.program))
      Lfi_workloads.Registry.wasm_subset
  in
  let wasm_total_bytes =
    List.fold_left (fun a b -> a + Bytes.length b) 0 blobs
  in
  let (), wasm_time =
    time (fun () ->
        for _ = 1 to repeats * 4 do
          List.iter
            (fun blob ->
              match
                Lfi_wasm.Validate.validate (Lfi_wasm.Ir.deserialize blob)
              with
              | Ok () -> ()
              | Error _ -> failwith "validator rejected a good module")
            blobs
        done)
  in
  let mb bytes reps t = float_of_int (bytes * reps) /. t /. 1e6 in
  {
    lfi_mb_s = mb lfi_total_bytes repeats lfi_time;
    lfi_total_bytes;
    wasm_mb_s = mb wasm_total_bytes (repeats * 4) wasm_time;
    wasm_total_bytes;
  }

let table () : Report.table =
  let r = measure () in
  {
    Report.title = "Verifier / validator throughput (§5.2)";
    header = [ "checker"; "measured"; "paper"; "corpus" ];
    rows =
      [
        [ "LFI machine-code verifier";
          Printf.sprintf "%.1f MB/s" r.lfi_mb_s;
          Printf.sprintf "%.0f MB/s" Report.Paper.verifier_mb_s;
          Printf.sprintf "%d KB of text" (r.lfi_total_bytes / 1024) ];
        [ "Wasm bytecode validator";
          Printf.sprintf "%.1f MB/s" r.wasm_mb_s;
          Printf.sprintf "%.0f MB/s" Report.Paper.wabt_mb_s;
          Printf.sprintf "%d KB of bytecode" (r.wasm_total_bytes / 1024) ];
      ];
    notes =
      [ "wall-clock throughput of this repository's OCaml \
         implementations; the shape target is verifier >> validator \
         per byte checked" ];
  }

let tables () = [ table () ]
