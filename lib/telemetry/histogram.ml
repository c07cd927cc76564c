(** Power-of-two-bucketed histograms with allocation-free observation.

    Bucket [i] counts observations [v] with [2^(i-1) <= v < 2^i]
    (bucket 0 counts [v < 1]).  32 buckets cover every simulated-cycle
    latency the runtime can produce; [observe] is a couple of integer
    shifts and stores, so it is safe to call on the runtime-call path
    without disturbing the measurement. *)

let nbuckets = 32

type t = {
  buckets : int array;
  mutable count : int;
  mutable sum : float;
  mutable max : float;
}

let create () = { buckets = Array.make nbuckets 0; count = 0; sum = 0.0; max = 0.0 }

let reset t =
  Array.fill t.buckets 0 nbuckets 0;
  t.count <- 0;
  t.sum <- 0.0;
  t.max <- 0.0

(* index of the highest set bit, plus one; 0 for n <= 0 *)
let bucket_of (n : int) =
  let rec go n acc = if n = 0 then acc else go (n lsr 1) (acc + 1) in
  if n <= 0 then 0 else min (nbuckets - 1) (go n 0)

let observe t (v : float) =
  t.count <- t.count + 1;
  t.sum <- t.sum +. v;
  if v > t.max then t.max <- v;
  let i = bucket_of (int_of_float v) in
  t.buckets.(i) <- t.buckets.(i) + 1

let mean t = if t.count = 0 then 0.0 else t.sum /. float_of_int t.count

(** Fold [src]'s observations into [dst] (bucket-wise; exact for
    count/sum/max, and percentiles over the merge are as precise as
    over either side). *)
let merge (dst : t) (src : t) =
  for i = 0 to nbuckets - 1 do
    dst.buckets.(i) <- dst.buckets.(i) + src.buckets.(i)
  done;
  dst.count <- dst.count + src.count;
  dst.sum <- dst.sum +. src.sum;
  if src.max > dst.max then dst.max <- src.max

(** Percentile estimate from the log2 buckets: the exclusive upper
    bound [2^i] of the bucket containing the [q]-quantile observation
    (so p50/p99 are conservative and, being pure bucket arithmetic,
    deterministic across runs).  [q] in [0, 1]; [nan] on an empty
    histogram — there is no 0th observation to report, and serializers
    render the NaN as JSON [null] (the same convention the cost model
    uses for unmeasured pipe baselines). *)
let percentile t (q : float) : float =
  if t.count = 0 then Float.nan
  else begin
    let rank = int_of_float (ceil (q *. float_of_int t.count)) in
    let rank = max 1 (min t.count rank) in
    let acc = ref 0 and found = ref (nbuckets - 1) in
    (try
       for i = 0 to nbuckets - 1 do
         acc := !acc + t.buckets.(i);
         if !acc >= rank then begin
           found := i;
           raise Exit
         end
       done
     with Exit -> ());
    float_of_int (1 lsl !found)
  end

(** JSON object: count/mean/max plus the non-empty buckets as
    [[upper_bound, count], ...] pairs (upper bound exclusive). *)
let to_json t : Json.t =
  let bucket i n =
    if n = 0 then [] else [ Json.Arr [ Json.Int (1 lsl i); Json.Int n ] ]
  in
  let buckets = List.concat (List.mapi bucket (Array.to_list t.buckets)) in
  Json.Obj
    [
      ("count", Json.Int t.count); ("mean", Json.Float (mean t, 1));
      ("max", Json.Float (t.max, 1)); ("buckets", Json.Arr buckets);
    ]
