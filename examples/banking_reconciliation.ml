(* The paper's long-locks case study (Section 4, "Long Locks"): banks
   reconciling their accounts at the end of the day - "a large number of
   short transactions with small delays between them" over an expensive
   network link.

   This example runs the same 240-transaction reconciliation stream three
   ways and shows the paper's Table 4 tradeoff: long locks (and long locks
   combined with last agent) cut network flows by 25% and 62.5%, at the
   price of the initiating bank's records staying locked longer.

   Run with: dune exec examples/banking_reconciliation.exe *)

let reconcile mode =
  (* an expensive inter-bank link: 4 time units each way *)
  Workload.run_chain ~latency:4.0 mode ~r:240

let flows (s : Tpc.Run.stream) = s.totals.flows

let () =
  let basic = reconcile Workload.Chain_basic in
  let long_locks = reconcile Workload.Chain_long_locks in
  let combined = reconcile Workload.Chain_long_locks_last_agent in

  Format.printf
    "End-of-day reconciliation: 240 chained transactions between two banks@.@.";
  Format.printf "%-28s %10s %10s %10s %14s@." "variant" "flows" "writes"
    "forced" "lock-time/txn";
  let row label (s : Tpc.Run.stream) =
    Format.printf "%-28s %10d %10d %10d %14.1f@." label s.totals.flows
      s.totals.tm_writes s.totals.tm_forced (Tpc.Run.mean_latency s)
  in
  row "basic 2PC" basic;
  row "long locks" long_locks;
  row "long locks + last agent" combined;

  let saved a b = 100.0 *. float_of_int (a - b) /. float_of_int a in
  Format.printf
    "@.Long locks saves %.1f%% of the flows; adding last agent saves %.1f%%.@."
    (saved (flows basic) (flows long_locks))
    (saved (flows basic) (flows combined));
  Format.printf
    "The price (Table 1): the initiating bank's records stay locked %.1fx \
     longer under long locks than under basic 2PC.@."
    (Tpc.Run.mean_latency long_locks /. Tpc.Run.mean_latency basic);

  (* Table 4's published example is r = 12; regenerate it for reference. *)
  Format.printf "@.Paper's Table 4 (r = 12):@.";
  List.iter
    (fun (label, c) ->
      Format.printf "  %-36s %a@." label Tpc.Cost_model.pp_counts c)
    (Tpc.Cost_model.table4 ~r:12)
