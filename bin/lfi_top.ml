(* lfi_top: render lfi-snap/v2 snapshot frames as a top(1)-style view
   of a serving run, including the per-tenant scheduling columns (queue
   depth, quota utilization, sheds).

   lfi_serve --snapshot writes one JSON frame per line; this tool
   renders the last frame (default), replays every frame in order
   (--replay), or follows a growing file (--follow), re-rendering as
   new frames land.  Snapshot.render reads each frame line through the
   Json accessors and formats it — byte-stable, so a test goldens the
   view of every committed frame.  A malformed or other-schema frame
   stops it with exit 2, never a crash. *)

module Snapshot = Lfi_libbox.Snapshot

let read_frames file =
  let ic =
    try open_in file
    with Sys_error e ->
      Printf.eprintf "lfi_top: %s\n" e;
      exit 2
  in
  let frames = ref [] in
  (try
     while true do
       let line = input_line ic in
       if String.trim line <> "" then frames := line :: !frames
     done
   with End_of_file -> ());
  close_in ic;
  List.rev !frames

let render line =
  match Snapshot.render line with
  | view -> print_string view
  | exception Snapshot.Bad_snapshot why ->
      Printf.eprintf "lfi_top: malformed lfi-snap frame: %s\n" why;
      exit 2

let clear () = print_string "\027[2J\027[H"

let run file replay follow delay =
  let delay = if follow && delay <= 0.0 then 0.5 else delay in
  if follow then begin
    (* tail the file: re-render whenever a new frame is appended *)
    let seen = ref 0 in
    let rec loop () =
      let frames = read_frames file in
      let n = List.length frames in
      if n > !seen then begin
        seen := n;
        clear ();
        render (List.nth frames (n - 1));
        flush stdout
      end;
      Unix.sleepf delay;
      loop ()
    in
    loop ()
  end
  else
    match read_frames file with
    | [] ->
        Printf.eprintf "lfi_top: no frames in %s\n" file;
        exit 2
    | frames when replay ->
        List.iteri
          (fun i line ->
            if delay > 0.0 then begin
              if i > 0 then Unix.sleepf delay;
              clear ()
            end
            else if i > 0 then print_newline ();
            render line;
            flush stdout)
          frames
    | frames -> render (List.nth frames (List.length frames - 1))

open Cmdliner

let file =
  Arg.(value & pos 0 string "serve_snap.jsonl"
       & info [] ~docv:"SNAPSHOT"
           ~doc:"lfi-snap/v2 file written by lfi_serve --snapshot; a \
                 malformed or other-schema frame exits 2.")

let replay =
  Arg.(value & flag & info [ "replay" ]
         ~doc:"Render every frame in order instead of just the last.")

let follow =
  Arg.(value & flag & info [ "follow" ]
         ~doc:"Keep polling $(i,SNAPSHOT) and re-render as frames land.")

let delay =
  Arg.(value & opt float 0.0 & info [ "delay" ] ~docv:"SECONDS"
         ~doc:"Pause between frames in --replay (clearing the screen), \
               and the poll interval in --follow (default 0.5 there).")

let cmd =
  let doc = "top-style view of an lfi_serve snapshot stream" in
  Cmd.v
    (Cmd.info "lfi_top" ~doc)
    Term.(const run $ file $ replay $ follow $ delay)

let () = exit (Cmd.eval cmd)
