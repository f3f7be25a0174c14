(* Tests of the Table 4 chains (the basic and long-locks rows and Figure 7
   through the real participants, the long-locks + last-agent pairing
   through Stream) and of the group-commit log-manager analysis. *)

module W = Workload
module C = Tpc.Cost_model

let run mode r = W.run_chain mode ~r
let flows (s : Tpc.Run.stream) = s.totals.flows
let writes (s : Tpc.Run.stream) = s.totals.tm_writes
let forced (s : Tpc.Run.stream) = s.totals.tm_forced
let data_flows (s : Tpc.Run.stream) = s.totals.data_flows
let gc ?timeout ~n m = W.run_group_commit ?timeout ~n ~group_size:m ()
let ios (s : Tpc.Run.stream) = s.totals.force_ios

let test_basic_chain_counts () =
  List.iter
    (fun r ->
      let res = run W.Chain_basic r in
      Alcotest.(check int) (Printf.sprintf "4r flows (r=%d)" r) (4 * r) (flows res);
      Alcotest.(check int) "5r writes" (5 * r) (writes res);
      Alcotest.(check int) "3r forced" (3 * r) (forced res);
      Alcotest.(check int) "no data flows" 0 (data_flows res))
    [ 1; 2; 5; 12 ]

let test_long_locks_chain_counts () =
  List.iter
    (fun r ->
      let res = run W.Chain_long_locks r in
      Alcotest.(check int) (Printf.sprintf "3r flows (r=%d)" r) (3 * r) (flows res);
      Alcotest.(check int) "5r writes" (5 * r) (writes res);
      Alcotest.(check int) "3r forced" (3 * r) (forced res);
      Alcotest.(check int) "one data flow per txn carries the ack" r
        (data_flows res))
    [ 1; 2; 5; 12 ]

let test_ll_last_agent_chain_counts_even () =
  List.iter
    (fun r ->
      let res = run W.Chain_long_locks_last_agent r in
      Alcotest.(check int)
        (Printf.sprintf "3r/2 flows (r=%d)" r)
        (3 * r / 2) (flows res);
      Alcotest.(check int) "5r writes" (5 * r) (writes res);
      Alcotest.(check int) "3r forced" (3 * r) (forced res))
    [ 2; 4; 12; 20 ]

let test_ll_last_agent_chain_odd_tail () =
  (* an odd stream ends with a lone delegated transaction: 2 flows for it *)
  let res = run W.Chain_long_locks_last_agent 5 in
  Alcotest.(check int) "2 pairs * 3 + tail * 2" 8 (flows res);
  Alcotest.(check int) "writes unchanged" 25 (writes res)

let test_table4_paper_row () =
  (* the exact r=12 example printed in Table 4 *)
  let expected = C.table4 ~r:12 in
  let basic = run W.Chain_basic 12 in
  let ll = run W.Chain_long_locks 12 in
  let lla = run W.Chain_long_locks_last_agent 12 in
  let check label res =
    let model = List.assoc label expected in
    Alcotest.(check (triple int int int)) label
      (model.C.flows, model.C.writes, model.C.forced)
      (flows res, writes res, forced res)
  in
  check "Basic 2PC" basic;
  check "PA & Long Locks (not last agent)" ll;
  check "PA & Long Locks (last agent)" lla;
  (* the rest of the printed rows: data flows, duration, lock time/txn *)
  let timing label (data, duration, lock_time) (res : Tpc.Run.stream) =
    Alcotest.(check (triple int (float 1e-9) (float 1e-9)))
      (label ^ ": data flows, duration, lock time")
      (data, duration, lock_time)
      (data_flows res, res.duration, Tpc.Run.mean_latency res)
  in
  timing "basic" (0, 66.0, 5.5) basic;
  timing "long locks" (12, 78.0, 6.5) ll;
  timing "long locks + last agent" (1, 37.0, 6.0) lla

let test_long_locks_holds_coordinator_locks_longer () =
  (* Table 1 / Figure 7: the flow saving costs coordinator lock time *)
  let basic = Tpc.Run.mean_latency (run W.Chain_basic 10) in
  let ll = Tpc.Run.mean_latency (run W.Chain_long_locks 10) in
  Alcotest.(check bool)
    (Printf.sprintf "long locks hold time %.2f > basic %.2f" ll basic)
    true (ll > basic)

let test_chains_commit_every_transaction () =
  (* every transaction of every mode leaves commit records at both members *)
  List.iter
    (fun mode ->
      let res = run mode 6 in
      let committed_txns =
        List.filter_map
          (function
            | Tpc.Trace.Log_write
                { node; kind = Wal.Log_record.Committed; _ } ->
                Some node
            | _ -> None)
          (Tpc.Trace.events res.Tpc.Run.trace)
      in
      Alcotest.(check int)
        (W.chain_mode_to_string mode ^ ": 2 commit records per txn")
        12
        (List.length committed_txns);
      Alcotest.(check int)
        (W.chain_mode_to_string mode ^ ": every transaction completes")
        (if mode = W.Chain_long_locks_last_agent then 3 else 6)
        (List.length res.latencies))
    [ W.Chain_basic; W.Chain_long_locks; W.Chain_long_locks_last_agent ]

(* --- group commit ----------------------------------------------------- *)

let test_group_commit_reduces_ios () =
  let solo = gc ~n:24 1 in
  let grouped = gc ~n:24 4 in
  Alcotest.(check int) "same force requests" (forced solo) (forced grouped);
  Alcotest.(check bool)
    (Printf.sprintf "fewer I/Os (%d < %d)" (ios grouped) (ios solo))
    true
    (ios grouped < ios solo)

let test_group_commit_request_count_is_3n () =
  (* three forced writes per two-member transaction *)
  Alcotest.(check int) "3n force requests" 30 (forced (gc ~n:10 2))

let test_group_commit_saving_grows_with_group_size () =
  let ios m = ios (gc ~n:32 m) in
  let i1 = ios 1 and i4 = ios 4 and i8 = ios 8 in
  Alcotest.(check bool)
    (Printf.sprintf "monotone: %d >= %d >= %d" i1 i4 i8)
    true
    (i1 >= i4 && i4 >= i8)

let test_group_commit_latency_cost () =
  (* Table 1's disadvantage: longer lock holding / commit latency *)
  let solo = Tpc.Run.mean_latency (gc ~n:16 1) in
  let grouped = Tpc.Run.mean_latency (gc ~timeout:10.0 ~n:16 8) in
  Alcotest.(check bool)
    (Printf.sprintf "grouped commits wait (%.2f >= %.2f)" grouped solo)
    true (grouped >= solo)

let test_group_commit_timeout_bounds_delay () =
  (* a batch that never fills still flushes within the timeout *)
  let r = gc ~timeout:2.0 ~n:3 64 in
  Alcotest.(check int) "all transactions complete" 3 (List.length r.latencies);
  Alcotest.(check bool) "every force request served" true
    (forced r = 9 && ios r >= 1)

let test_group_commit_paper_formula_reported () =
  (* the n = 96 sweep the bench prints, next to the paper's 3n/2m column *)
  Alcotest.(check (float 1e-9)) "paper saving column is 3n/2m" 9.0
    (C.group_commit_saving ~n:24 ~m:4);
  List.iter
    (fun (m, expected_ios, expected_latency) ->
      let r = gc ~n:96 m in
      Alcotest.(check (triple int int string))
        (Printf.sprintf "m=%d: requests, I/Os, mean commit latency" m)
        (288, expected_ios, expected_latency)
        (forced r, ios r, Printf.sprintf "%.2f" (Tpc.Run.mean_latency r)))
    [
      (1, 288, "5.50");
      (2, 144, "5.55");
      (4, 72, "5.71");
      (8, 36, "5.95");
      (16, 18, "6.36");
      (32, 9, "7.17");
    ]

let suite =
  [
    Alcotest.test_case "basic chain counts" `Quick test_basic_chain_counts;
    Alcotest.test_case "long-locks chain counts" `Quick test_long_locks_chain_counts;
    Alcotest.test_case "long-locks+last-agent counts (even r)" `Quick
      test_ll_last_agent_chain_counts_even;
    Alcotest.test_case "long-locks+last-agent odd tail" `Quick
      test_ll_last_agent_chain_odd_tail;
    Alcotest.test_case "Table 4 paper row (r=12)" `Quick test_table4_paper_row;
    Alcotest.test_case "long locks hold coordinator locks longer" `Quick
      test_long_locks_holds_coordinator_locks_longer;
    Alcotest.test_case "chains commit every transaction" `Quick
      test_chains_commit_every_transaction;
    Alcotest.test_case "group commit reduces I/Os" `Quick test_group_commit_reduces_ios;
    Alcotest.test_case "group commit 3n requests" `Quick
      test_group_commit_request_count_is_3n;
    Alcotest.test_case "group commit saving monotone" `Quick
      test_group_commit_saving_grows_with_group_size;
    Alcotest.test_case "group commit latency cost" `Quick test_group_commit_latency_cost;
    Alcotest.test_case "group commit timeout bound" `Quick
      test_group_commit_timeout_bounds_delay;
    Alcotest.test_case "group commit paper formula" `Quick
      test_group_commit_paper_formula_reported;
  ]
