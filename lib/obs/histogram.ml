(** Log-bucketed streaming histogram.

    Values are assigned to geometrically-spaced buckets: bucket [i] covers
    [(gamma^i, gamma^(i+1)]] with [gamma = 10^(1/buckets_per_decade)].
    Memory is proportional to the number of {e occupied} buckets — the
    dynamic range of the data — never to the number of recorded samples,
    so a histogram over ten million commit latencies costs the same few
    hundred words as one over a thousand.

    Quantile queries answer with the geometric midpoint of the bucket the
    nearest-rank sample falls in, so the relative error is bounded by
    [sqrt gamma - 1] (about 4% at the default resolution; the acceptance
    bound is one bucket, i.e. [gamma - 1] ≈ 8%). *)

type t = {
  buckets_per_decade : int;
  log_gamma : float;  (** log (10^(1/buckets_per_decade)) *)
  counts : (int, int) Hashtbl.t;  (** bucket index -> occupancy *)
  mutable low : int;  (** values <= low_cutoff (zeros, negatives) *)
  mutable count : int;
  m : moments;
}

(* An all-float record is stored flat, so updating it allocates nothing;
   the same fields in [t], beside ints, would box a float on every
   {!record}. *)
and moments = { mutable sum : float; mutable min : float; mutable max : float }

(* Below this magnitude a sample lands in the dedicated low bucket: commit
   latencies of exactly zero (same-instant phases) are common and must not
   produce a bucket index of -infinity. *)
let low_cutoff = 1e-9

let create ?(buckets_per_decade = 30) () =
  if buckets_per_decade < 1 then
    invalid_arg "Histogram.create: buckets_per_decade must be positive";
  {
    buckets_per_decade;
    log_gamma = log 10.0 /. float_of_int buckets_per_decade;
    counts = Hashtbl.create 64;
    low = 0;
    count = 0;
    m = { sum = 0.0; min = infinity; max = neg_infinity };
  }

let gamma t = exp t.log_gamma
let resolution t = t.buckets_per_decade
let bucket_index t v = int_of_float (Float.floor (log v /. t.log_gamma))

(* geometric midpoint of bucket [i]: sqrt (gamma^i * gamma^(i+1)) *)
let bucket_mid t i = exp ((float_of_int i +. 0.5) *. t.log_gamma)

let record t v =
  if Float.is_nan v then ()
  else begin
    t.count <- t.count + 1;
    t.m.sum <- t.m.sum +. v;
    if v < t.m.min then t.m.min <- v;
    if v > t.m.max then t.m.max <- v;
    if v <= low_cutoff then t.low <- t.low + 1
    else
      let i = bucket_index t v in
      Hashtbl.replace t.counts i
        (match Hashtbl.find t.counts i with
        | n -> n + 1
        | exception Not_found -> 1)
  end

let count t = t.count
let sum t = t.m.sum
let mean t = if t.count = 0 then nan else t.m.sum /. float_of_int t.count
let min_value t = if t.count = 0 then nan else t.m.min
let max_value t = if t.count = 0 then nan else t.m.max

let bucket_count t = Hashtbl.length t.counts + if t.low > 0 then 1 else 0

let sorted_buckets t =
  List.sort compare (Hashtbl.fold (fun i n acc -> (i, n) :: acc) t.counts [])

(* Nearest-rank quantile over the bucket occupancies, mirroring the exact
   reference [Metrics.percentile]: rank = ceil (p/100 * n), 1-based. *)
let quantile t p =
  if t.count = 0 then nan
  else begin
    let rank =
      let r = int_of_float (ceil (p /. 100.0 *. float_of_int t.count)) in
      Stdlib.min t.count (Stdlib.max 1 r)
    in
    if rank <= t.low then (if t.m.min < 0.0 then t.m.min else 0.0)
    else begin
      let seen = ref t.low in
      let result = ref t.m.max in
      (try
         List.iter
           (fun (i, n) ->
             seen := !seen + n;
             if !seen >= rank then begin
               result := bucket_mid t i;
               raise Exit
             end)
           (sorted_buckets t)
       with Exit -> ());
      (* clamp to the observed range: the top bucket's midpoint can
         overshoot the true maximum *)
      Float.min (Float.max !result t.m.min) t.m.max
    end
  end

let merge ~into src =
  if into.buckets_per_decade <> src.buckets_per_decade then
    invalid_arg "Histogram.merge: resolution mismatch";
  Hashtbl.iter
    (fun i n ->
      Hashtbl.replace into.counts i
        (n + Option.value ~default:0 (Hashtbl.find_opt into.counts i)))
    src.counts;
  into.low <- into.low + src.low;
  into.count <- into.count + src.count;
  into.m.sum <- into.m.sum +. src.m.sum;
  if src.m.min < into.m.min then into.m.min <- src.m.min;
  if src.m.max > into.m.max then into.m.max <- src.m.max

let clear t =
  Hashtbl.reset t.counts;
  t.low <- 0;
  t.count <- 0;
  t.m.sum <- 0.0;
  t.m.min <- infinity;
  t.m.max <- neg_infinity

(** Fixed summary used by the sweep's JSON stanzas. *)
type summary = {
  s_count : int;
  s_mean : float;
  s_min : float;
  s_max : float;
  s_p50 : float;
  s_p95 : float;
  s_p99 : float;
}

let summary t =
  {
    s_count = t.count;
    s_mean = mean t;
    s_min = min_value t;
    s_max = max_value t;
    s_p50 = quantile t 50.0;
    s_p95 = quantile t 95.0;
    s_p99 = quantile t 99.0;
  }
