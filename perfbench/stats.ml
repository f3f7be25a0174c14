(* Per-txn ratios, and host-side clocks and allocation counters. *)

(* [num /. den]; [0.] when the denominator is 0. *)
let per_int num den = Tpc.Metrics.Agg.ratio (float_of_int num) den

let now_ns () = Simkernel.Monotonic.now_ns ()
let since t = Simkernel.Monotonic.elapsed_seconds ~since:t

(* Words allocated by the whole process, worker domains included:
   [Gc.quick_stat] folds in the counters of joined domains, which
   [Gc.counters] (current domain only) does not.  It counts this domain's
   minor allocations only as of its last minor collection, so collect
   first: otherwise the uncounted tail varies with where the collections
   fell, and the count would not repeat exactly. *)
let allocated_words () =
  Gc.minor ();
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0
