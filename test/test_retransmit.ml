(* Timeout/retransmission recovery under deterministic message loss: the
   chaos engine's drop_nth primitive exercised at protocol level.  Each
   test pins one of Section 2's presumption rules: Presumed Abort never
   needs abort acknowledgments (no information = abort), Presumed Nothing
   must deliver and get an acknowledgment for an abort sent to a member
   that may hold a forced prepare record, read-only voters leave phase two
   entirely, and a lost last-agent delegation is re-sent rather than
   aborting the transaction. *)

open Tpc.Types
open Test_util
module R = Tpc.Run

(* Count protocol sends from [src] whose label satisfies [p] (and, when
   given, that go to [dst]). *)
let sends ?dst w ~src p =
  List.length
    (List.filter
       (function
         | Tpc.Trace.Send { src = s; dst = d; label; _ } ->
             s = src && p label && (match dst with None -> true | Some d' -> d = d')
         | _ -> false)
       (Tpc.Trace.events w.R.trace))

let is l = String.equal l

let has sub l =
  let n = String.length sub and m = String.length l in
  let rec go i = i + n <= m && (String.sub l i n = sub || go (i + 1)) in
  go 0

(* Set up a world from [tree], register the requested nth-message drops,
   run one transaction to quiescence. *)
let drop_run ?(protocol = Presumed_abort) ?(opts = no_opts) ~drops tree =
  let config = cfg ~protocol ~opts ~retry_interval:25.0 () in
  let config = { config with prepare_retries = 2 } in
  let w = R.setup ~config tree in
  List.iter (fun (src, dst, nth) -> Tpc.Net.drop_nth w.R.net ~src ~dst ~nth) drops;
  R.perform_work w ~txn:"txn-1";
  Tpc.Participant.begin_commit (R.participant w "C") ~txn:"txn-1";
  Simkernel.Engine.run_until w.R.engine 5_000.0;
  w

let test_pa_lost_commit_retransmitted () =
  (* PA commit: the YES voter's acknowledgment is required (it lets the
     coordinator forget), so a lost Commit is retransmitted until acked *)
  let w = drop_run ~drops:[ ("C", "S", 2) ] (two ()) in
  Alcotest.(check (option outcome)) "commits" (Some Committed) w.R.outcome;
  Alcotest.(check bool) "Commit retransmitted" true
    (sends w ~src:"C" (is "Commit") >= 2);
  Alcotest.(check (option string)) "S applied" (Some "upd-by-txn-1")
    (Kvstore.committed_value (R.kv w "S") "acct-S")

let test_pa_lost_vote_abort_fire_and_forget () =
  (* S prepares and votes YES but the vote is lost; after the Prepare
     retries run out the coordinator presumes NO and aborts.  Presumed
     Abort needs no abort acknowledgment - the Abort goes out exactly once
     and the coordinator forgets; the in-doubt S resolves via the message
     or, failing that, by inquiry drawing "no information = abort".
     Five drops: three (re)votes plus the two in-doubt inquiries
     interleaved with them on the same link *)
  let w =
    drop_run
      ~drops:(List.map (fun nth -> ("S", "C", nth)) [ 1; 2; 3; 4; 5 ])
      (two ())
  in
  Alcotest.(check (option outcome)) "aborts" (Some Aborted) w.R.outcome;
  Alcotest.(check int) "Abort sent once, never retried" 1
    (sends w ~src:"C" (is "Abort"));
  Alcotest.(check (option string)) "S rolled back" None
    (Kvstore.committed_value (R.kv w "S") "acct-S");
  Alcotest.(check (list string)) "S not in doubt" []
    (Kvstore.in_doubt (R.kv w "S"))

let test_pn_lost_abort_retransmitted () =
  (* same lost-vote abort under Presumed Nothing: the silent member may be
     crashed holding a forced prepare record, and PN has no presumption to
     fall back on - the abort must be delivered and acknowledged.  We also
     lose the first Abort, so the coordinator's acknowledgment retries must
     carry the decision through *)
  let w =
    drop_run ~protocol:Presumed_nothing
      ~drops:
        (List.map (fun nth -> ("S", "C", nth)) [ 1; 2; 3; 4; 5 ]
        @ [ ("C", "S", 4) ])
      (two ())
  in
  Alcotest.(check (option outcome)) "aborts" (Some Aborted) w.R.outcome;
  Alcotest.(check bool) "Abort retransmitted until acked" true
    (sends w ~src:"C" (is "Abort") >= 2);
  Alcotest.(check (option string)) "S rolled back" None
    (Kvstore.committed_value (R.kv w "S") "acct-S");
  Alcotest.(check (list string)) "S not in doubt" []
    (Kvstore.in_doubt (R.kv w "S"))

let test_pa_read_only_excluded_from_retransmission () =
  (* a read-only voter leaves the protocol after phase one: even while the
     updated sibling's Commit is being retransmitted, the read-only member
     sees exactly one message (the Prepare) and no phase two at all *)
  let tree =
    Tree
      ( member "C",
        [ Tree (member "S", []); Tree (member ~updated:false "RO", []) ] )
  in
  let w =
    drop_run
      ~opts:{ no_opts with read_only = true }
      ~drops:[ ("C", "S", 2) ]
      tree
  in
  Alcotest.(check (option outcome)) "commits" (Some Committed) w.R.outcome;
  Alcotest.(check bool) "Commit to S retransmitted" true
    (sends w ~src:"C" ~dst:"S" (is "Commit") >= 2);
  Alcotest.(check int) "RO saw only the Prepare" 1
    (sends w ~src:"C" ~dst:"RO" (fun _ -> true));
  Alcotest.(check (option string)) "S applied" (Some "upd-by-txn-1")
    (Kvstore.committed_value (R.kv w "S") "acct-S")

let test_last_agent_delegation_retransmitted () =
  (* the delegation (YES-with-you-decide) to the last agent is lost: the
     coordinator is not in doubt - it re-sends the delegation until the
     agent's decision report arrives instead of aborting *)
  let w =
    drop_run
      ~opts:{ no_opts with last_agent = true }
      ~drops:[ ("C", "S", 1) ]
      (two ())
  in
  Alcotest.(check (option outcome)) "commits" (Some Committed) w.R.outcome;
  Alcotest.(check bool) "delegation re-sent" true
    (sends w ~src:"C" (has "(you decide)") >= 2);
  Alcotest.(check (option string)) "both applied" (Some "upd-by-txn-1")
    (Kvstore.committed_value (R.kv w "S") "acct-S");
  Alcotest.(check (option string)) "coordinator applied" (Some "upd-by-txn-1")
    (Kvstore.committed_value (R.kv w "C") "acct-C")

let test_lost_prepare_survives_with_retries () =
  (* with prepare_retries > 0 a lost Prepare no longer dooms the
     transaction: the vote timeout re-sends it and the commit goes through *)
  let w = drop_run ~drops:[ ("C", "S", 1) ] (two ()) in
  Alcotest.(check (option outcome)) "commits despite lost Prepare"
    (Some Committed) w.R.outcome;
  Alcotest.(check bool) "Prepare retransmitted" true
    (sends w ~src:"C" (is "Prepare") >= 2)

(* An acknowledged decision leaves no retransmission timer behind: the
   engine stops at the last real action, not [retry_interval] later. *)
let two = Tree (member "C", [ Tree (member "S", []) ])

let test_ack_cancels_retry_timer () =
  let config = default_config |> with_trace_events false in
  let m, w = R.commit_tree ~config two in
  Alcotest.(check (float 1e-9)) "counter-only quiesce time" 5.5
    m.Tpc.Metrics.quiesce_time;
  Alcotest.(check (float 1e-9)) "engine clock" 5.5
    (Simkernel.Engine.now w.R.engine)

let test_sequence_not_delayed_by_retry_timers () =
  let runs, _ =
    R.commit_sequence ~work:(fun ~txn:_ ~node:_ -> R.Work_update)
      ~txns:[ "t1"; "t2" ] two
  in
  Alcotest.(check (list (option (float 1e-9))))
    "each commit starts when the previous one is done"
    [ Some 5.5; Some 11.0 ]
    (List.map (fun (_, m) -> m.Tpc.Metrics.completion_time) runs)

let suite =
  [
    Alcotest.test_case "ack cancels the retransmission timer" `Quick
      test_ack_cancels_retry_timer;
    Alcotest.test_case "sequence not delayed by retry timers" `Quick
      test_sequence_not_delayed_by_retry_timers;
    Alcotest.test_case "PA: lost Commit retransmitted" `Quick
      test_pa_lost_commit_retransmitted;
    Alcotest.test_case "PA: abort is fire-and-forget" `Quick
      test_pa_lost_vote_abort_fire_and_forget;
    Alcotest.test_case "PN: abort retransmitted until acked" `Quick
      test_pn_lost_abort_retransmitted;
    Alcotest.test_case "PA read-only: no phase-two retransmission" `Quick
      test_pa_read_only_excluded_from_retransmission;
    Alcotest.test_case "last-agent: delegation retransmitted" `Quick
      test_last_agent_delegation_retransmitted;
    Alcotest.test_case "lost Prepare survives with retries" `Quick
      test_lost_prepare_survives_with_retries;
  ]
