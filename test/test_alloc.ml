(* A deterministic allocation ceiling for the commit path.  Words
   allocated per transaction do not depend on the host, so this gate can
   be tight where a wall-clock gate could not: it fails on a real
   regression and never on a slow runner. *)

open Tpc.Types

(* Words allocated by this domain so far: minor plus direct major
   allocations.  [Gc.counters] reads this domain only, so worker domains
   other suites leave parked cannot perturb the count; its minor counter
   is exact only as of the last minor collection, so collect first. *)
let allocated_words () =
  Gc.minor ();
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* A cell shaped like the benchmark's [oltp] workload, shorter: fault-free
   Presumed Abort on a 5-member flat tree, concurrency 8, 1024 keys per
   member, counter-only trace, one domain. *)
let oltp_words_per_txn () =
  let txns = 2000 in
  let config =
    default_config |> with_protocol Presumed_abort |> with_trace_events false
  in
  let cfg =
    { Tpc.Mixer.default_cfg with txns; concurrency = 8; keyspace = 1024; seed = 1 }
  in
  let tree = Workload.mixer_tree ~n:5 ~opts:[] () in
  let w0 = allocated_words () in
  let agg, _ = Tpc.Mixer.run ~config cfg tree in
  let words = allocated_words () -. w0 in
  Alcotest.(check int) "every transaction commits" txns agg.Tpc.Metrics.Agg.committed;
  words /. float_of_int txns

(* Measured at 3,318 words/txn when the ceiling was set (6,219 before
   counter-only traces stopped building events); the ceiling allows 5% on
   top. *)
let ceiling = 3_485.0

let test_oltp_ceiling () =
  (* the first run pays one-time initialization; the second is the one
     measured, and a third must allocate exactly as much *)
  ignore (oltp_words_per_txn ());
  let w = oltp_words_per_txn () in
  Alcotest.(check (float 0.0)) "deterministic" w (oltp_words_per_txn ());
  if w > ceiling then
    Alcotest.failf "oltp cell allocates %.1f words/txn, ceiling %.0f" w ceiling

let suite =
  [ Alcotest.test_case "oltp words/txn ceiling" `Quick test_oltp_ceiling ]
