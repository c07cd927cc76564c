(* The test resources: golden files, the corpus, the ../BENCH_* files
   and the ../bin tools.  Under [dune runtest] a test executable runs in
   the build copy of test/, where every name given here resolves.  Run
   by hand from the repository root ([dune exec test/test_prover.exe])
   a source file resolves beside this one, and a built tool beside the
   executable. *)
let path (file : string) : string =
  List.find_opt Sys.file_exists
    [ file;
      Filename.concat (Filename.dirname __FILE__) file;
      Filename.concat (Filename.dirname Sys.executable_name) file ]
  |> Option.value ~default:file

(* The bytes of resource [file]. *)
let read_file (file : string) : string =
  In_channel.with_open_bin (path file) In_channel.input_all

(* The lines of golden [file]. *)
let read_lines (file : string) : string list =
  let ic = open_in (path file) in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []
