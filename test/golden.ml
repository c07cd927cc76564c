(* The golden reference files live beside the test sources.  Under
   [dune runtest] a test executable runs in the build copy of test/,
   where a golden's bare name resolves; run by hand from the repository
   root ([dune exec test/test_pipeline.exe]) it resolves beside this
   source file instead. *)
let path (file : string) : string =
  if Sys.file_exists file then file
  else Filename.concat (Filename.dirname __FILE__) file

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
