(* The two trace modes must count the same run the same way.  A
   counter-only trace ([trace_events = false]) builds no events, so every
   count the paper tabulates has to come from the counters alone: these
   tests run the same work with events kept and dropped and compare. *)

open Tpc.Types
module R = Tpc.Run
module Agg = Tpc.Metrics.Agg

let counts (m : Tpc.Metrics.t) =
  Tpc.Metrics.
    [
      ("flows", m.flows);
      ("data flows", m.data_flows);
      ("TM writes", m.tm_writes);
      ("forced writes", m.tm_forced);
      ("force I/Os", m.force_ios);
    ]

(* A hash of (transaction, member) decides whether the member updates,
   reads or idles, so read-only votes, leave-out and long-lock acks all
   get exercised. *)
let work ~txn ~node =
  let h = Hashtbl.hash (txn, node) mod 3 in
  if h = 0 then R.Work_update else if h = 1 then R.Work_read else R.Work_none

let txns = List.init 6 (fun i -> Printf.sprintf "t%d" i)

let per_txn_counts ~keep config tree =
  let config = with_trace_events keep config in
  List.map
    (fun (txn, m) -> (txn, m.Tpc.Metrics.outcome <> None, counts m))
    (fst (R.commit_sequence ~config ~work ~txns tree))

let check_sequence ~name config tree =
  let kept = per_txn_counts ~keep:true config tree in
  let dropped = per_txn_counts ~keep:false config tree in
  List.iter2
    (fun (txn, done_k, ck) (_, done_d, cd) ->
      Alcotest.(check bool) (name ^ " " ^ txn ^ " completes in both") done_k done_d;
      Alcotest.(check (list (pair string int)))
        (name ^ " " ^ txn ^ " counts")
        ck cd)
    kept dropped

let protocol_flags = [ "basic"; "pa"; "pn"; "bft" ]

(* Every registered protocol with no optimization and with each single
   optimization, on a flat tree carrying that optimization's member
   properties and on a chain of cascaded coordinators. *)
let test_sequences_agree () =
  List.iter
    (fun flag ->
      let protocol = Option.get (Tpc.Protocol.of_string flag) in
      List.iter
        (fun opts ->
          let config = default_config |> with_protocol protocol |> with_opts opts in
          let label =
            flag ^ "/"
            ^ String.concat "+" ("none" :: List.map opt_to_string opts)
          in
          check_sequence ~name:(label ^ " flat") config
            (Workload.mixer_tree ~n:4 ~opts ());
          check_sequence ~name:(label ^ " chain") config (Workload.chain ~n:3 ()))
        ([] :: List.map (fun o -> [ o ]) all_opts))
    protocol_flags

(* Long locks piggyback each acknowledgment on next-transaction data: those
   data flows must be counted on a counter-only trace too. *)
let test_counter_only_data_flows () =
  let config = default_config |> with_opts [ `Long_locks ] in
  let tree = Workload.mixer_tree ~n:3 ~opts:[ `Long_locks ] () in
  let data_flows keep =
    List.map
      (fun (_, m) -> m.Tpc.Metrics.data_flows)
      (fst
         (R.commit_sequence ~config:(with_trace_events keep config)
            ~work:(fun ~txn:_ ~node:_ -> R.Work_update)
            ~txns:[ "t1"; "t2"; "t3" ] tree))
  in
  Alcotest.(check (list int)) "two data flows per txn, events kept" [ 2; 2; 2 ]
    (data_flows true);
  Alcotest.(check (list int)) "same on a counter-only trace" [ 2; 2; 2 ]
    (data_flows false)

(* A mixer cell aggregates the same way in both modes.  The driver suite
   checks plain sweep cells; this one is shaped like the benchmark's
   [hotspot] workload: group commit, long locks and read-only votes. *)
let test_mixer_agg_agrees () =
  let opts = [ `Read_only; `Long_locks ] in
  let cfg =
    { Tpc.Mixer.default_cfg with txns = 200; concurrency = 8; keyspace = 16; seed = 5 }
  in
  let agg keep =
    let config =
      default_config |> with_opts opts |> with_group_commit ~size:4 ~timeout:2.0
      |> with_trace_events keep
    in
    Agg.to_json (fst (Tpc.Mixer.run ~config cfg (Workload.mixer_tree ~n:5 ~opts ())))
  in
  Alcotest.(check string) "identical aggregate" (agg true) (agg false)

let suite =
  [
    Alcotest.test_case "every protocol and optimization counts alike" `Quick
      test_sequences_agree;
    Alcotest.test_case "counter-only trace counts data flows" `Quick
      test_counter_only_data_flows;
    Alcotest.test_case "mixer aggregate identical in both modes" `Quick
      test_mixer_agg_agrees;
  ]
