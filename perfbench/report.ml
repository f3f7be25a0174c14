(* Metric names and units, as BENCHMARK.json lists them, and the result
   line the benchmark prints last. *)

type spec = { name : string; unit_ : string }

let spec name unit_ = { name; unit_ }

let end_to_end =
  [
    spec "txn_per_s" "1/s";
    spec "words_per_txn" "words";
    spec "peak_heap_mb" "MiB";
    spec "setup_s" "s";
    spec "commit_ratio" "ratio";
    spec "commit_latency_p50_vt" "vt";
    spec "commit_latency_p99_vt" "vt";
    spec "flows_per_commit" "count";
    spec "forced_writes_per_commit" "count";
    spec "force_ios_per_commit" "count";
    spec "lock_hold_p99_vt" "vt";
  ]

let per_layer =
  [
    spec "simkernel.events_per_txn" "count";
    spec "simkernel.cancelled_share" "ratio";
    spec "simkernel.max_queue_depth" "count";
    spec "simkernel.run_s" "s";
    spec "simkernel.flat_ns" "ns";
    spec "simkernel.flat_words" "words";
    spec "simkernel.closure_ns" "ns";
    spec "simkernel.closure_words" "words";
    spec "simkernel.est_ns_per_txn" "ns";
    spec "netsim.flows_per_txn" "count";
    spec "netsim.data_flows_per_txn" "count";
    spec "netsim.send_deliver_ns" "ns";
    spec "netsim.send_deliver_words" "words";
    spec "netsim.est_ns_per_txn" "ns";
    spec "wal.writes_per_txn" "count";
    spec "wal.forced_per_txn" "count";
    spec "wal.force_ios_per_txn" "count";
    spec "wal.batch_fill" "ratio";
    spec "wal.retained_records_per_txn" "count";
    spec "wal.append_ns" "ns";
    spec "wal.append_words" "words";
    spec "wal.force_ns" "ns";
    spec "wal.force_words" "words";
    spec "wal.group_force_ns" "ns";
    spec "wal.group_force_words" "words";
    spec "wal.est_ns_per_txn" "ns";
    spec "lockmgr.acquisitions_per_txn" "count";
    spec "lockmgr.waits_per_txn" "count";
    spec "lockmgr.timeout_aborts_per_txn" "count";
    spec "lockmgr.hold_mean_vt" "vt";
    spec "lockmgr.acquire_release_ns" "ns";
    spec "lockmgr.acquire_release_words" "words";
    spec "lockmgr.queued_grant_ns" "ns";
    spec "lockmgr.queued_grant_words" "words";
    spec "lockmgr.est_ns_per_txn" "ns";
    spec "kvstore.put_commit_ns" "ns";
    spec "kvstore.put_commit_words" "words";
    spec "kvstore.recover_ns_per_record" "ns";
    spec "obs.histogram_record_ns" "ns";
    spec "obs.histogram_record_words" "words";
    spec "participant.commit_ns" "ns";
    spec "participant.commit_words" "words";
    spec "participant.residual_ns_per_txn" "ns";
    spec "participant.in_doubt_per_seed" "count";
    spec "participant.unresolved_per_seed" "count";
    spec "run.setup_s" "s";
    spec "run.setup_ns" "ns";
    spec "run.setup_words" "words";
    spec "mixer.run_s" "s";
    spec "mixer.self_s" "s";
    spec "mixer.lock_wait_mean_vt" "vt";
    spec "faultlab.gen_s" "s";
    spec "faultlab.case_s_p50" "s";
    spec "faultlab.case_s_p99" "s";
    spec "faultlab.crashes_per_seed" "count";
    spec "faultlab.plan_events_per_seed" "count";
    spec "driver.fanout_s" "s";
    spec "driver.cell_engine_s_p50" "s";
    spec "driver.cell_engine_s_p99" "s";
    spec "parallel.efficiency" "ratio";
    spec "parallel.cell_inflation" "ratio";
    spec "bench.tracing_overhead" "ratio";
  ]

(* %.17g keeps every digit of a measured value. *)
let number v = if Float.is_integer v then Printf.sprintf "%.1f" v else Printf.sprintf "%.17g" v

(* The result line: [values] must cover every name in [specs]. *)
let line ~correct ~attempted ~failed specs values =
  let metric s =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" s.name
      (number (List.assoc s.name values))
      s.unit_
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " (List.map metric specs))

let table specs values =
  List.iter
    (fun s -> Printf.printf "  %-34s %18.6f %s\n" s.name (List.assoc s.name values) s.unit_)
    specs
