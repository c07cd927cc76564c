(** The `lfi_top` view of one [lfi-snap/v2] serving snapshot.

    A snapshot is one JSON line capturing the serving layer mid-run:
    per-export rolling latency (p50/p99/p999 over the retained
    windows), per-slot pool state, per-tenant scheduler state (queue
    depth, quota utilization, sheds), the cumulative span-phase cycle
    breakdown, and every SLO burn-rate alert fired so far.
    {!Serve.frame_of} builds each frame as a {!Lfi_telemetry.Json.t}
    from the run's accounting record; everything in it derives from the
    seed and the simulated clock, so the frames `lfi_serve --snapshot
    --snapshot-every N` writes are byte-identical across runs — CI
    diffs a committed copy, and the golden tests pin the format.

    {!render} reads the frame line through the {!Lfi_telemetry.Json}
    accessors and lays it out as the `lfi_top` table; it fails closed
    with {!Bad_snapshot} on anything but a well-formed [lfi-snap/v2]
    frame. *)

module Json = Lfi_telemetry.Json
module Slo = Lfi_telemetry.Slo

exception Bad_snapshot of string

let alert_kinds = List.map Slo.kind_name [ Slo.Latency; Slo.Error_rate ]

let fnum (v : float) : string =
  if Float.is_nan v then "-" else Printf.sprintf "%.0f" v

(** Lay one frame line out as the `lfi_top` text view.  Raises
    {!Bad_snapshot} on anything that is not a well-formed [lfi-snap/v2]
    frame. *)
let render (line : string) : string =
  let int name v = Json.to_int (Json.member name v) in
  let num name v = Json.to_float (Json.member name v) in
  let str name v = Json.to_string (Json.member name v) in
  let bool name v = Json.to_bool (Json.member name v) in
  let rows name v = Json.to_list (Json.member name v) in
  let b = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  try
    let t = Json.parse line in
    if str "schema" t <> "lfi-snap/v2" then
      raise (Bad_snapshot "not an lfi-snap/v2 frame");
    let slots = rows "slots" t in
    let live = List.length (List.filter (bool "alive") slots) in
    add "lfi_top · %s · request %d · %.0f cycles · pool %d/%d live\n"
      (str "workload" t) (int "seq" t) (num "now" t) live (List.length slots);
    add "windows: %.0f cycles each, %d spanned · ok %d · err %d · lost %d\n\n"
      (num "window_cycles" t) (int "windows" t) (int "completed" t)
      (int "failed" t) (int "instances_lost" t);
    add "%-12s %7s %5s %8s %8s %8s %8s %10s %11s %s\n" "EXPORT" "REQ" "ERR"
      "P50" "P99" "P999" "MEAN" "INSNS/REQ" "BURN(f/s)" "SLO";
    List.iter
      (fun x ->
        let f name = fnum (num name x) in
        add "%-12s %7d %5d %8s %8s %8s %8s %10s %5.1f/%-5.1f %s\n"
          (str "name" x) (int "requests" x) (int "errors" x) (f "p50")
          (f "p99") (f "p999") (f "mean") (f "insns_per_request")
          (num "burn_fast" x) (num "burn_slow" x)
          (if bool "alerting" x then "ALERT" else "ok"))
      (rows "exports" t);
    add "\n%-6s %5s %6s %7s %7s %12s %12s\n" "SLOT" "PID" "ALIVE" "CALLS"
      "RESETS" "INSNS" "PG.RESTORED";
    List.iter
      (fun s ->
        add "%-6d %5d %6s %7d %7d %12d %12d\n" (int "slot" s) (int "pid" s)
          (if bool "alive" s then "yes" else "DEAD")
          (int "calls" s) (int "resets" s) (int "insns" s)
          (int "pages_restored" s))
      slots;
    (match rows "tenants" t with
    | [] -> ()
    | tenants ->
        add "\n%-10s %6s %6s %8s %8s %6s %7s %7s %7s %7s %8s\n" "TENANT"
          "DEPTH" "DMAX" "ADMIT" "DONE" "FAIL" "SHED.Q" "SHED.T" "QUOTA%"
          "STEALS" "P99";
        List.iter
          (fun tn ->
            let util = num "quota_utilization" tn in
            add "%-10s %6d %6d %8d %8d %6d %7d %7d %7s %7d %8s\n"
              (str "tenant" tn) (int "depth" tn) (int "depth_max" tn)
              (int "admitted" tn) (int "completed" tn) (int "failed" tn)
              (int "shed_queue" tn) (int "shed_quota" tn)
              (if Float.is_nan util then "-"
               else Printf.sprintf "%.0f%%" (100.0 *. util))
              (int "steals" tn)
              (fnum (num "p99" tn)))
          tenants);
    let phases =
      List.map
        (fun (k, v) -> (k, Json.to_float v))
        (Json.to_assoc (Json.member "phases" t))
    in
    let phase_total = List.fold_left (fun acc (_, c) -> acc +. c) 0.0 phases in
    add "\n%-12s %14s %6s\n" "PHASE" "CYCLES" "%";
    List.iter
      (fun (name, cycles) ->
        add "%-12s %14.0f %5.1f%%\n" name cycles
          (if phase_total > 0.0 then 100.0 *. cycles /. phase_total else 0.0))
      phases;
    (match rows "alerts" t with
    | [] -> add "\nno SLO alerts\n"
    | alerts ->
        add "\nALERTS (%d):\n" (List.length alerts);
        List.iter
          (fun a ->
            let kind = str "kind" a in
            if not (List.mem kind alert_kinds) then
              raise (Bad_snapshot ("unknown alert kind " ^ kind));
            add "  window %3d  %-12s %-10s burn fast %.1f slow %.1f\n"
              (int "window" a) (str "export" a) kind (num "fast" a)
              (num "slow" a))
          alerts);
    Buffer.contents b
  with Json.Parse_error msg -> raise (Bad_snapshot msg)
