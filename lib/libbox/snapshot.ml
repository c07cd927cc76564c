(** Byte-stable [lfi-snap/v2] serving snapshots.

    A snapshot is one JSON line capturing the serving layer mid-run:
    per-export rolling latency (p50/p99/p999 over the retained
    windows), per-slot pool state, per-tenant scheduler state (queue
    depth, quota utilization, sheds), the cumulative span-phase cycle
    breakdown, and every SLO burn-rate alert fired so far.
    Everything derives from the seed and the simulated clock, so the
    frames `lfi_serve --snapshot --snapshot-every N` writes are
    byte-identical across runs — CI diffs a committed copy, and the
    golden test pins the format.

    {!to_json} renders a frame and {!of_json} parses one back, both
    through {!Lfi_telemetry.Json}; {!of_json} fails closed with
    {!Bad_snapshot} on anything but a well-formed [lfi-snap/v2] frame.
    {!render} lays a parsed frame out as the `lfi_top` table. *)

module Json = Lfi_telemetry.Json

(* ------------------------------------------------------------------ *)
(* Snapshot model                                                       *)
(* ------------------------------------------------------------------ *)

type export_row = {
  x_name : string;
  x_req : int;  (** cumulative requests dispatched to this export *)
  x_err : int;  (** cumulative failures *)
  x_p50 : float;  (** rolling percentiles over the retained windows *)
  x_p99 : float;
  x_p999 : float;
  x_mean : float;  (** rolling mean latency, cycles *)
  x_ipr : float;  (** rolling insns per ok request *)
  x_burn_fast : float;  (** current fast/slow latency burn rates *)
  x_burn_slow : float;
  x_alerting : bool;  (** both burn rates ≥ 1.0 right now *)
}

type slot_row = {
  sl_slot : int;
  sl_pid : int;
  sl_alive : bool;
  sl_calls : int;
  sl_resets : int;
  sl_insns : int;
  sl_restored : int;
}

type tenant_row = {
  tn_name : string;
  tn_depth : int;  (** queued requests right now *)
  tn_depth_max : int;
  tn_admitted : int;
  tn_completed : int;
  tn_failed : int;
  tn_shed_queue : int;  (** rejected: queue at bound *)
  tn_shed_quota : int;  (** rejected: token bucket empty *)
  tn_quota_util : float;  (** share of quota spent; NaN = no quota *)
  tn_steals : int;  (** requests served on another shard's instance *)
  tn_p99 : float;  (** full-run p99 latency, cycles *)
}

type t = {
  workload : string;
  seq : int;  (** requests dispatched when the frame was taken *)
  now : float;  (** cycles since serving started *)
  completed : int;
  failed : int;
  retired : int;
  window_cycles : float;
  windows : int;  (** windows spanned so far *)
  exports : export_row list;
  slots : slot_row list;
  tenants : tenant_row list;
  phases : (string * float) list;  (** cumulative cycles per span phase *)
  alerts : Lfi_telemetry.Slo.alert list;
}

(** One frame as a single JSON line (no trailing newline). *)
let to_json (t : t) : string =
  let open Json in
  let f1 v = Float (v, 1) and f2 v = Float (v, 2) in
  let rows f l = Arr (List.map (fun x -> Obj (f x)) l) in
  to_line
    (Obj
       [
         ("schema", Str "lfi-snap/v2"); ("workload", Str t.workload);
         ("seq", Int t.seq); ("now", f1 t.now); ("completed", Int t.completed);
         ("failed", Int t.failed); ("instances_lost", Int t.retired);
         ("window_cycles", Float (t.window_cycles, 0));
         ("windows", Int t.windows);
         ( "exports",
           rows
             (fun x ->
               [
                 ("name", Str x.x_name); ("requests", Int x.x_req);
                 ("errors", Int x.x_err); ("p50", f1 x.x_p50);
                 ("p99", f1 x.x_p99);
                 ("p999", f1 x.x_p999); ("mean", f1 x.x_mean);
                 ("insns_per_request", f1 x.x_ipr);
                 ("burn_fast", f2 x.x_burn_fast);
                 ("burn_slow", f2 x.x_burn_slow);
                 ("alerting", Bool x.x_alerting);
               ])
             t.exports );
         ( "slots",
           rows
             (fun s ->
               [
                 ("slot", Int s.sl_slot); ("pid", Int s.sl_pid);
                 ("alive", Bool s.sl_alive); ("calls", Int s.sl_calls);
                 ("resets", Int s.sl_resets); ("insns", Int s.sl_insns);
                 ("pages_restored", Int s.sl_restored);
               ])
             t.slots );
         ( "tenants",
           rows
             (fun tn ->
               [
                 ("tenant", Str tn.tn_name); ("depth", Int tn.tn_depth);
                 ("depth_max", Int tn.tn_depth_max);
                 ("admitted", Int tn.tn_admitted);
                 ("completed", Int tn.tn_completed);
                 ("failed", Int tn.tn_failed);
                 ("shed_queue", Int tn.tn_shed_queue);
                 ("shed_quota", Int tn.tn_shed_quota);
                 ("quota_utilization", Float (tn.tn_quota_util, 3));
                 ("steals", Int tn.tn_steals); ("p99", f1 tn.tn_p99);
               ])
             t.tenants );
         ("phases", Obj (List.map (fun (name, c) -> (name, f1 c)) t.phases));
         ("alerts", Arr (List.map Lfi_telemetry.Slo.alert_to_json t.alerts));
       ])

exception Bad_snapshot of string

(** Parse one frame back.  Raises {!Bad_snapshot} on anything that is
    not a well-formed [lfi-snap/v2] line. *)
let of_json (line : string) : t =
  try
    let j = Json.parse line in
    let int name v = Json.to_int (Json.member name v) in
    let num name v = Json.to_float (Json.member name v) in
    let str name v = Json.to_string (Json.member name v) in
    let bool name v = Json.to_bool (Json.member name v) in
    let rows name f = List.map f (Json.to_list (Json.member name j)) in
    if str "schema" j <> "lfi-snap/v2" then
      raise (Bad_snapshot "not an lfi-snap/v2 frame");
    {
      workload = str "workload" j; seq = int "seq" j; now = num "now" j;
      completed = int "completed" j; failed = int "failed" j;
      retired = int "instances_lost" j;
      window_cycles = num "window_cycles" j; windows = int "windows" j;
      exports =
        rows "exports" (fun x ->
            {
              x_name = str "name" x; x_req = int "requests" x;
              x_err = int "errors" x; x_p50 = num "p50" x; x_p99 = num "p99" x;
              x_p999 = num "p999" x; x_mean = num "mean" x;
              x_ipr = num "insns_per_request" x;
              x_burn_fast = num "burn_fast" x; x_burn_slow = num "burn_slow" x;
              x_alerting = bool "alerting" x;
            });
      slots =
        rows "slots" (fun s ->
            {
              sl_slot = int "slot" s; sl_pid = int "pid" s;
              sl_alive = bool "alive" s; sl_calls = int "calls" s;
              sl_resets = int "resets" s; sl_insns = int "insns" s;
              sl_restored = int "pages_restored" s;
            });
      tenants =
        rows "tenants" (fun tn ->
            {
              tn_name = str "tenant" tn; tn_depth = int "depth" tn;
              tn_depth_max = int "depth_max" tn;
              tn_admitted = int "admitted" tn;
              tn_completed = int "completed" tn; tn_failed = int "failed" tn;
              tn_shed_queue = int "shed_queue" tn;
              tn_shed_quota = int "shed_quota" tn;
              tn_quota_util = num "quota_utilization" tn;
              tn_steals = int "steals" tn; tn_p99 = num "p99" tn;
            });
      phases =
        List.map
          (fun (k, v) -> (k, Json.to_float v))
          (Json.to_assoc (Json.member "phases" j));
      alerts =
        rows "alerts" (fun a ->
            {
              Lfi_telemetry.Slo.a_export = str "export" a;
              a_window = int "window" a;
              a_kind =
                (match str "kind" a with
                | "latency" -> Lfi_telemetry.Slo.Latency
                | "error_rate" -> Lfi_telemetry.Slo.Error_rate
                | k -> raise (Bad_snapshot ("unknown alert kind " ^ k)));
              a_fast = num "fast" a; a_slow = num "slow" a;
            });
    }
  with Json.Parse_error msg -> raise (Bad_snapshot msg)

(* ------------------------------------------------------------------ *)
(* lfi_top rendering                                                    *)
(* ------------------------------------------------------------------ *)

let fnum (v : float) : string =
  if Float.is_nan v then "-" else Printf.sprintf "%.0f" v

(** Lay one frame out as the `lfi_top` text view. *)
let render (t : t) : string =
  let b = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let live = List.length (List.filter (fun s -> s.sl_alive) t.slots) in
  add "lfi_top · %s · request %d · %.0f cycles · pool %d/%d live\n" t.workload
    t.seq t.now live (List.length t.slots);
  add "windows: %.0f cycles each, %d spanned · ok %d · err %d · lost %d\n\n"
    t.window_cycles t.windows t.completed t.failed t.retired;
  add "%-12s %7s %5s %8s %8s %8s %8s %10s %11s %s\n" "EXPORT" "REQ" "ERR"
    "P50" "P99" "P999" "MEAN" "INSNS/REQ" "BURN(f/s)" "SLO";
  List.iter
    (fun x ->
      add "%-12s %7d %5d %8s %8s %8s %8s %10s %5.1f/%-5.1f %s\n" x.x_name
        x.x_req x.x_err (fnum x.x_p50) (fnum x.x_p99) (fnum x.x_p999)
        (fnum x.x_mean) (fnum x.x_ipr) x.x_burn_fast x.x_burn_slow
        (if x.x_alerting then "ALERT" else "ok"))
    t.exports;
  add "\n%-6s %5s %6s %7s %7s %12s %12s\n" "SLOT" "PID" "ALIVE" "CALLS"
    "RESETS" "INSNS" "PG.RESTORED";
  List.iter
    (fun s ->
      add "%-6d %5d %6s %7d %7d %12d %12d\n" s.sl_slot s.sl_pid
        (if s.sl_alive then "yes" else "DEAD")
        s.sl_calls s.sl_resets s.sl_insns s.sl_restored)
    t.slots;
  (match t.tenants with
  | [] -> ()
  | tenants ->
      add "\n%-10s %6s %6s %8s %8s %6s %7s %7s %7s %7s %8s\n" "TENANT" "DEPTH"
        "DMAX" "ADMIT" "DONE" "FAIL" "SHED.Q" "SHED.T" "QUOTA%" "STEALS" "P99";
      List.iter
        (fun tn ->
          add "%-10s %6d %6d %8d %8d %6d %7d %7d %7s %7d %8s\n" tn.tn_name
            tn.tn_depth tn.tn_depth_max tn.tn_admitted tn.tn_completed
            tn.tn_failed tn.tn_shed_queue tn.tn_shed_quota
            (if Float.is_nan tn.tn_quota_util then "-"
             else Printf.sprintf "%.0f%%" (100.0 *. tn.tn_quota_util))
            tn.tn_steals (fnum tn.tn_p99))
        tenants);
  let phase_total =
    List.fold_left (fun acc (_, c) -> acc +. c) 0.0 t.phases
  in
  add "\n%-12s %14s %6s\n" "PHASE" "CYCLES" "%";
  List.iter
    (fun (name, cycles) ->
      add "%-12s %14.0f %5.1f%%\n" name cycles
        (if phase_total > 0.0 then 100.0 *. cycles /. phase_total else 0.0))
    t.phases;
  (match t.alerts with
  | [] -> add "\nno SLO alerts\n"
  | alerts ->
      add "\nALERTS (%d):\n" (List.length alerts);
      List.iter
        (fun (a : Lfi_telemetry.Slo.alert) ->
          add "  window %3d  %-12s %-10s burn fast %.1f slow %.1f\n"
            a.Lfi_telemetry.Slo.a_window a.Lfi_telemetry.Slo.a_export
            (Lfi_telemetry.Slo.kind_name a.Lfi_telemetry.Slo.a_kind)
            a.Lfi_telemetry.Slo.a_fast a.Lfi_telemetry.Slo.a_slow)
        alerts);
  Buffer.contents b
