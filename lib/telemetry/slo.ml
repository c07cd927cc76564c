(** Service-level objectives with multi-window burn-rate alerting.

    An {!objective} declares, per export, how slow and how unreliable
    the serving layer is allowed to be: a latency threshold with a
    budget for the fraction of requests over it, and an error budget
    for the fraction of requests that fail outright.

    Alerting follows the standard multi-window burn-rate shape: the
    {e burn rate} of a window is the fraction of bad events divided by
    the budget (1.0 = burning the budget exactly as fast as allowed).
    An alert fires only when both a fast window (the just-closed
    window, ~1% of a run) and a slow window (the last ten windows,
    ~10% of a run) burn at ≥ 1.0 — the fast window gives detection
    latency, the slow window keeps a single outlier window from
    paging.  All inputs are counters over simulated cycles, so alerts
    are deterministic and land byte-stably in the trace and report. *)

type objective = {
  latency_cycles : float;
      (** per-request total-latency threshold, simulated cycles *)
  latency_budget : float;
      (** allowed fraction of ok requests over the threshold *)
  error_budget : float;  (** allowed fraction of failed requests *)
}

type kind = Latency | Error_rate

let kind_name = function Latency -> "latency" | Error_rate -> "error_rate"

type alert = {
  a_export : string;
  a_window : int;  (** seq of the closed window that tripped *)
  a_kind : kind;
  a_fast : float;  (** fast-window burn rate *)
  a_slow : float;  (** slow-window burn rate *)
}

let alert_to_json (a : alert) : Json.t =
  Json.Obj
    [
      ("export", Json.Str a.a_export);
      ("window", Json.Int a.a_window);
      ("kind", Json.Str (kind_name a.a_kind));
      ("fast", Json.Float (a.a_fast, 2));
      ("slow", Json.Float (a.a_slow, 2));
    ]

(** Bad-event fraction over budget; 0 when the window is empty or the
    budget is non-positive (an un-budgeted objective cannot burn). *)
let burn ~(bad : int) ~(total : int) ~(budget : float) : float =
  if total = 0 || budget <= 0.0 then 0.0
  else float_of_int bad /. float_of_int total /. budget

(** The latency and error burn rates of [ob] over the counter sums
    [r] of a window range. *)
let burns (ob : objective) (r : Window.rstats) : float * float =
  ( burn ~bad:r.Window.r_over ~total:r.Window.r_ok ~budget:ob.latency_budget,
    burn ~bad:r.Window.r_err ~total:(r.Window.r_ok + r.Window.r_err)
      ~budget:ob.error_budget )

(** Evaluate one objective over a closed window, given the counter sums
    of the fast and slow windows; returns the (kind, fast-burn,
    slow-burn) of every dimension whose burn rate is ≥ 1.0 in both
    windows. *)
let check (ob : objective) ~(fast : Window.rstats) ~(slow : Window.rstats) :
    (kind * float * float) list =
  let lat_f, err_f = burns ob fast and lat_s, err_s = burns ob slow in
  let hits = [] in
  let hits =
    if err_f >= 1.0 && err_s >= 1.0 then (Error_rate, err_f, err_s) :: hits
    else hits
  in
  if lat_f >= 1.0 && lat_s >= 1.0 then (Latency, lat_f, lat_s) :: hits
  else hits
