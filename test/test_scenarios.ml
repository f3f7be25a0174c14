(* The figure scenarios: each canned run must carry the flow/force schedule
   the corresponding figure shows. *)

module S = Tpc.Scenarios

let flows sc = Tpc.Trace.flows sc.S.sc_trace
let tm_writes sc = Tpc.Trace.tm_writes sc.S.sc_trace
let forced sc = Tpc.Trace.tm_forced_writes sc.S.sc_trace

let outcome sc =
  Option.bind sc.S.sc_metrics (fun m -> m.Tpc.Metrics.outcome)

let test_figure1 () =
  let sc = S.figure1 () in
  Alcotest.(check int) "4 flows" 4 (flows sc);
  Alcotest.(check int) "3 forced writes" 3 (forced sc);
  Alcotest.(check (option bool)) "commits" (Some true)
    (Option.map (fun o -> o = Tpc.Types.Committed) (outcome sc))

let test_figure2 () =
  let sc = S.figure2 () in
  Alcotest.(check int) "two edges, 8 flows" 8 (flows sc);
  Alcotest.(check int) "3n-1 writes" 8 (tm_writes sc)

let test_figure3 () =
  let sc = S.figure3 () in
  (* PN over a 3-chain: +1 commit-pending at root, +1 at the cascaded
     coordinator, +1 agent record at each subordinate *)
  Alcotest.(check int) "8 flows" 8 (flows sc);
  Alcotest.(check int) "writes: 8 + 2 CP + 2 agent" 12 (tm_writes sc);
  Alcotest.(check int) "forced: 5 + 4" 9 (forced sc)

let test_figure4 () =
  let sc = S.figure4 () in
  (* updater edge 4 flows + read-only edge 2 flows *)
  Alcotest.(check int) "6 flows" 6 (flows sc)

let test_figure5 () =
  let sc = S.figure5 () in
  (* dual initiation: both initiators decide abort; the common member
     detects the conflict *)
  let events = Tpc.Trace.events sc.S.sc_trace in
  let aborts =
    List.filter
      (function
        | Tpc.Trace.Decide { outcome = Tpc.Types.Aborted; _ } -> true
        | _ -> false)
      events
  in
  Alcotest.(check bool) "everyone aborts" true (List.length aborts >= 2);
  let detection =
    List.exists
      (function
        | Tpc.Trace.Note { text; _ } ->
            String.length text >= 4 && String.sub text 0 4 = "dual"
        | _ -> false)
      events
  in
  Alcotest.(check bool) "dual initiation detected" true detection;
  let commits =
    List.exists
      (function
        | Tpc.Trace.Decide { outcome = Tpc.Types.Committed; _ } -> true
        | _ -> false)
      events
  in
  Alcotest.(check bool) "nobody commits" false commits

let test_figure6 () =
  let sc = S.figure6 () in
  Alcotest.(check int) "2 flows on the delegation edge" 2 (flows sc);
  Alcotest.(check int) "coordinator 3 + agent 2 writes" 5 (tm_writes sc)

let test_figure7 () =
  let sc = S.figure7 () in
  (* two chained long-locks transactions: 3 protocol flows each *)
  Alcotest.(check int) "6 protocol flows" 6 (flows sc);
  Alcotest.(check int) "each ack rides a data flow" 2
    (Tpc.Trace.data_flows sc.S.sc_trace)

let test_figure8 () =
  let sc = S.figure8 () in
  (* 4 flows coordinator<->cascaded + 3 on the reliable leaf's edge *)
  Alcotest.(check int) "7 flows as drawn" 7 (flows sc)

let test_all_returns_eight () =
  let all = S.all () in
  Alcotest.(check int) "eight figures" 8 (List.length all);
  Alcotest.(check (list string)) "ids in order"
    [ "figure-1"; "figure-2"; "figure-3"; "figure-4"; "figure-5"; "figure-6";
      "figure-7"; "figure-8" ]
    (List.map (fun sc -> sc.S.sc_id) all)

let test_render_contains_diagram () =
  let sc = S.figure1 () in
  let rendered = S.render sc in
  let contains needle =
    let nl = String.length needle and hl = String.length rendered in
    let rec go i = i + nl <= hl && (String.sub rendered i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "mentions the title" true
    (contains "Simple Two-Phase Commit");
  Alcotest.(check bool) "shows a Prepare arrow" true (contains "Prepare");
  Alcotest.(check bool) "shows a forced log write" true (contains "*log")

let suite =
  [
    Alcotest.test_case "figure 1 schedule" `Quick test_figure1;
    Alcotest.test_case "figure 2 schedule" `Quick test_figure2;
    Alcotest.test_case "figure 3 schedule (PN)" `Quick test_figure3;
    Alcotest.test_case "figure 4 schedule (read-only)" `Quick test_figure4;
    Alcotest.test_case "figure 5 dual-initiation abort" `Quick test_figure5;
    Alcotest.test_case "figure 6 schedule (last agent)" `Quick test_figure6;
    Alcotest.test_case "figure 7 schedule (long locks)" `Quick test_figure7;
    Alcotest.test_case "figure 8 schedule (vote reliable)" `Quick test_figure8;
    Alcotest.test_case "all eight figures" `Quick test_all_returns_eight;
    Alcotest.test_case "rendering" `Quick test_render_contains_diagram;
  ]
