(** Arrival models for the serve layer.

    - [Replay]: the pre-PR-10 shape — requests are issued back to back,
      each arriving exactly when the server is ready for it (zero queue
      wait; measures service cost and throughput, not latency under
      load).
    - [Open]: open-loop seeded Poisson arrivals at an offered rate in
      requests per simulated second.  Inter-arrival gaps are
      exponential; the server owes every arrival a response no matter
      how far behind it is — the model that exposes queueing delay and
      the throughput knee.
    - [Closed]: closed-loop with a fixed number of clients; each client
      issues its next request the instant the previous one completes.
      Offered load adapts to service rate, so the system measures
      latency at saturation without unbounded queues.

    Determinism: the exponential sampler must be a pure function of the
    seed on every platform, so it cannot touch [Float.log] (libm, not
    exactly rounded).  [ln] below uses only [frexp] (exact) and
    [+ * /] (exactly rounded per IEEE 754), which OCaml maps to the
    corresponding hardware ops — the same discipline as the cost
    models. *)

type t =
  | Replay
  | Open of { rate_rps : float }  (** offered rate, requests/simulated-second *)
  | Closed of { concurrency : int }  (** fixed in-flight clients *)

let name = function
  | Replay -> "replay"
  | Open _ -> "open"
  | Closed _ -> "closed"

let ln2 = 0.6931471805599453

(** Deterministic natural log via [frexp] + the atanh series:
    [ln (m * 2^e) = 2*atanh((m-1)/(m+1)) + e*ln2] with [m] in
    [\[0.5, 1)], so the series argument is in [(-1/3, 0\]] and 17 terms
    reach double precision.  Exactly rounded ops only. *)
let ln (x : float) : float =
  let m, e = Float.frexp x in
  let z = (m -. 1.0) /. (m +. 1.0) in
  let z2 = z *. z in
  let rec go k acc term =
    if k > 33 then acc
    else
      let term = term *. z2 in
      go (k + 2) (acc +. (term /. float_of_int k)) term
  in
  (2.0 *. go 3 z z) +. (float_of_int e *. ln2)

(** One xorshift64 step: the generator behind the request stream
    ([Serve.make_rng]) and the arrival gaps, each on its own seeding. *)
let xorshift64 x =
  let x = Int64.logxor x (Int64.shift_left x 13) in
  let x = Int64.logxor x (Int64.shift_right_logical x 7) in
  Int64.logxor x (Int64.shift_left x 17)

(* the arrival gaps' own stream, so timing never perturbs the request
   sequence *)
let make_raw_rng (seed : int) =
  let s = ref (Int64.of_int ((seed * 0x9E3779B9) lxor 0x5DEECE66D lor 1)) in
  fun () ->
    s := xorshift64 !s;
    !s

let two_pow_53 = 9007199254740992.0

(** A seeded stream of exponential inter-arrival gaps with mean
    [mean_cycles], in simulated cycles. *)
let exp_stream ~(seed : int) ~(mean_cycles : float) : unit -> float =
  let rng = make_raw_rng seed in
  fun () ->
    let bits = Int64.to_int (Int64.logand (rng ()) 0x1FFFFFFFFFFFFFL) in
    (* u in (0, 1]: zero is impossible, ln stays finite *)
    let u = (float_of_int bits +. 1.0) /. two_pow_53 in
    -.ln u *. mean_cycles
