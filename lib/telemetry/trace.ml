(** Structured trace events in Chrome trace-event JSON.

    The output loads directly into [chrome://tracing] and Perfetto.
    Timestamps are {e simulated cycles}, not wall time: the emulator's
    cycle counter is a deterministic function of the executed
    instruction stream, so two runs of the same workload produce
    byte-identical trace files — which is what makes traces diffable
    and testable.  (The [ts] field is nominally microseconds; viewers
    only use it as a linear axis, so "1 us" reads as "1 cycle".)

    Events are appended as rendered {!Json} text into a single buffer:
    no event object outlives the call that emits it.  The runtime gives
    every sandbox its own track by using the sandbox pid as the Chrome
    [tid]. *)

type arg =
  | Int of int
  | I64 of int64
  | Str of string
  | Float of float

type t = { buf : Buffer.t; mutable events : int }

let create () = { buf = Buffer.create 4096; events = 0 }

let json_arg = function
  | Int n -> Json.Int n
  | I64 n ->
      (* beyond OCaml's 63-bit int, print through a double: the
         precision a trace viewer reads args with anyway *)
      if Int64.of_int (Int64.to_int n) = n then Json.Int (Int64.to_int n)
      else Json.Float (Int64.to_float n, 0)
  | Float f -> Json.Float (f, 3)
  | Str s -> Json.Str s

(* one event object, appended to the streaming buffer *)
let event t ~ph ~name ~cat ~(ts : float) ~pid ~tid fields args =
  if t.events > 0 then Buffer.add_string t.buf ",\n";
  t.events <- t.events + 1;
  let args =
    if args = [] then []
    else [ ("args", Json.Obj (List.map (fun (k, v) -> (k, json_arg v)) args)) ]
  in
  Json.add_line t.buf
    (Json.Obj
       ([ ("ph", Json.Str (String.make 1 ph)); ("name", Json.Str name);
          ("cat", Json.Str cat); ("ts", Json.Float (ts, 3));
          ("pid", Json.Int pid);
          ("tid", Json.Int tid) ]
       @ fields @ args))

(** A span with a duration ([ph = "X"] complete event). *)
let complete t ~name ~cat ~ts ~(dur : float) ~pid ~tid ~args =
  event t ~ph:'X' ~name ~cat ~ts ~pid ~tid [ ("dur", Json.Float (dur, 3)) ] args

(** A zero-duration marker on one thread's track. *)
let instant t ~name ~cat ~ts ~pid ~tid ~args =
  event t ~ph:'i' ~name ~cat ~ts ~pid ~tid [ ("s", Json.Str "t") ] args

(** A counter sample ([ph = "C"]): Perfetto renders one stacked-area
    track per counter name, one series per arg key. *)
let counter t ~name ~cat ~ts ~pid ~args =
  event t ~ph:'C' ~name ~cat ~ts ~pid ~tid:0 [] args

(* Metadata events name the process and thread tracks in the viewer. *)

let metadata t ~name ~pid ~tid ~value =
  event t ~ph:'M' ~name ~cat:"__metadata" ~ts:0.0 ~pid ~tid []
    [ ("name", Str value) ]

let process_name t ~pid ~name = metadata t ~name:"process_name" ~pid ~tid:0 ~value:name
let thread_name t ~pid ~tid ~name = metadata t ~name:"thread_name" ~pid ~tid ~value:name

let num_events t = t.events

let to_string t : string =
  "{\"traceEvents\": [\n" ^ Buffer.contents t.buf
  ^ "\n], \"displayTimeUnit\": \"ms\"}\n"

let write_file t path =
  let oc = open_out path in
  output_string oc (to_string t);
  close_out oc
