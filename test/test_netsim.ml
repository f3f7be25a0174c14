(* Tests of the virtual network: delivery, latency, partitions, crashes,
   flow statistics. *)

module E = Simkernel.Engine

module N = Netsim.Make (struct
  type t = string
end)

let mk ?default_latency () =
  let e = E.create () in
  (e, N.create e ?default_latency ())

let inbox () = ref []

let listen net name box =
  N.add_node net name (fun ~src payloads ->
      box := (src, payloads) :: !box)

let test_basic_delivery () =
  let e, net = mk () in
  let box = inbox () in
  N.add_node net "a" (fun ~src:_ _ -> ());
  listen net "b" box;
  Alcotest.(check bool) "send accepted" true (N.send net ~src:"a" ~dst:"b" [ "hello" ]);
  E.run e;
  Alcotest.(check (list (pair string (list string)))) "delivered"
    [ ("a", [ "hello" ]) ]
    !box

let test_default_latency () =
  let e, net = mk ~default_latency:2.5 () in
  let at = ref nan in
  N.add_node net "a" (fun ~src:_ _ -> ());
  N.add_node net "b" (fun ~src:_ _ -> at := E.now e);
  ignore (N.send net ~src:"a" ~dst:"b" [ "x" ]);
  E.run e;
  Alcotest.(check (float 1e-9)) "arrives after default latency" 2.5 !at

let test_latency_override_symmetric () =
  let e, net = mk () in
  let at = ref nan in
  N.add_node net "a" (fun ~src:_ _ -> at := E.now e);
  N.add_node net "b" (fun ~src:_ _ -> ());
  N.set_latency net "a" "b" 7.0;
  Alcotest.(check (float 1e-9)) "override visible both ways" 7.0
    (N.latency net "b" "a");
  ignore (N.send net ~src:"b" ~dst:"a" [ "x" ]);
  E.run e;
  Alcotest.(check (float 1e-9)) "arrives after override" 7.0 !at

let test_fifo_per_pair () =
  let e, net = mk () in
  let box = inbox () in
  N.add_node net "a" (fun ~src:_ _ -> ());
  listen net "b" box;
  ignore (N.send net ~src:"a" ~dst:"b" [ "1" ]);
  ignore (N.send net ~src:"a" ~dst:"b" [ "2" ]);
  ignore (N.send net ~src:"a" ~dst:"b" [ "3" ]);
  E.run e;
  Alcotest.(check (list string)) "FIFO delivery" [ "1"; "2"; "3" ]
    (List.rev_map (fun (_, p) -> List.hd p) !box)

let test_flow_counting () =
  let e, net = mk () in
  N.add_node net "a" (fun ~src:_ _ -> ());
  N.add_node net "b" (fun ~src:_ _ -> ());
  ignore (N.send net ~src:"a" ~dst:"b" [ "x"; "y"; "z" ]);
  ignore (N.send net ~src:"b" ~dst:"a" [ "w" ]);
  E.run e;
  Alcotest.(check int) "bundle counts one flow" 2 (N.flows net);
  Alcotest.(check int) "sent by a" 1 (N.sent_by net "a");
  Alcotest.(check int) "received by a" 1 (N.received_by net "a")

let test_partition_blocks_send () =
  let e, net = mk () in
  let box = inbox () in
  N.add_node net "a" (fun ~src:_ _ -> ());
  listen net "b" box;
  N.partition net "a" "b";
  Alcotest.(check bool) "send rejected" false (N.send net ~src:"a" ~dst:"b" [ "x" ]);
  E.run e;
  Alcotest.(check int) "nothing delivered" 0 (List.length !box);
  Alcotest.(check int) "partitioned send is not a flow" 0 (N.flows net)

let test_heal_restores () =
  let e, net = mk () in
  let box = inbox () in
  N.add_node net "a" (fun ~src:_ _ -> ());
  listen net "b" box;
  N.partition net "a" "b";
  N.heal net "a" "b";
  Alcotest.(check bool) "send accepted after heal" true
    (N.send net ~src:"a" ~dst:"b" [ "x" ]);
  E.run e;
  Alcotest.(check int) "delivered" 1 (List.length !box)

let test_partition_is_symmetric () =
  let _e, net = mk () in
  N.add_node net "a" (fun ~src:_ _ -> ());
  N.add_node net "b" (fun ~src:_ _ -> ());
  N.partition net "a" "b";
  Alcotest.(check bool) "b->a blocked too" false (N.send net ~src:"b" ~dst:"a" [ "x" ])

let test_crashed_destination_drops_in_flight () =
  let e, net = mk () in
  let box = inbox () in
  N.add_node net "a" (fun ~src:_ _ -> ());
  listen net "b" box;
  Alcotest.(check bool) "sent while up" true (N.send net ~src:"a" ~dst:"b" [ "x" ]);
  N.crash_node net "b";
  E.run e;
  Alcotest.(check int) "dropped at delivery" 0 (List.length !box);
  Alcotest.(check int) "still counted as a flow" 1 (N.flows net)

let test_crashed_source_cannot_send () =
  let _e, net = mk () in
  N.add_node net "a" (fun ~src:_ _ -> ());
  N.add_node net "b" (fun ~src:_ _ -> ());
  N.crash_node net "a";
  Alcotest.(check bool) "crashed source send fails" false
    (N.send net ~src:"a" ~dst:"b" [ "x" ])

let test_restart_receives_again () =
  let e, net = mk () in
  let box = inbox () in
  N.add_node net "a" (fun ~src:_ _ -> ());
  listen net "b" box;
  N.crash_node net "b";
  N.restart_node net "b";
  Alcotest.(check bool) "node is up" true (N.is_up net "b");
  ignore (N.send net ~src:"a" ~dst:"b" [ "x" ]);
  E.run e;
  Alcotest.(check int) "delivered after restart" 1 (List.length !box)

let test_set_handler_replaces () =
  let e, net = mk () in
  let first = ref 0 and second = ref 0 in
  N.add_node net "a" (fun ~src:_ _ -> ());
  N.add_node net "b" (fun ~src:_ _ -> incr first);
  N.set_handler net "b" (fun ~src:_ _ -> incr second);
  ignore (N.send net ~src:"a" ~dst:"b" [ "x" ]);
  E.run e;
  Alcotest.(check int) "old handler silent" 0 !first;
  Alcotest.(check int) "new handler fired" 1 !second

let test_duplicate_node_rejected () =
  let _e, net = mk () in
  N.add_node net "a" (fun ~src:_ _ -> ());
  Alcotest.check_raises "duplicate registration"
    (Invalid_argument "netsim: duplicate node \"a\"") (fun () ->
      N.add_node net "a" (fun ~src:_ _ -> ()))

let test_unknown_node_rejected () =
  let _e, net = mk () in
  N.add_node net "a" (fun ~src:_ _ -> ());
  Alcotest.check_raises "unknown destination"
    (Invalid_argument "netsim: unknown node \"ghost\"") (fun () ->
      ignore (N.send net ~src:"a" ~dst:"ghost" [ "x" ]))

let test_reset_stats () =
  let e, net = mk () in
  N.add_node net "a" (fun ~src:_ _ -> ());
  N.add_node net "b" (fun ~src:_ _ -> ());
  ignore (N.send net ~src:"a" ~dst:"b" [ "x" ]);
  E.run e;
  N.reset_stats net;
  Alcotest.(check int) "flows reset" 0 (N.flows net);
  Alcotest.(check int) "per-node reset" 0 (N.sent_by net "a")

let test_drop_nth_counts_per_link () =
  (* nth counts from the call, on one direction of one link: earlier sends
     on the link and sends in the other direction do not shift it *)
  let e, net = mk () in
  let box_b = inbox () and box_a = inbox () in
  listen net "a" box_a;
  listen net "b" box_b;
  ignore (N.send net ~src:"a" ~dst:"b" [ "1" ]);
  N.drop_nth net ~src:"a" ~dst:"b" ~nth:2;
  N.drop_nth net ~src:"ghost" ~dst:"b" ~nth:1;
  ignore (N.send net ~src:"b" ~dst:"a" [ "back" ]);
  List.iter
    (fun m -> ignore (N.send net ~src:"a" ~dst:"b" [ m ]))
    [ "2"; "3"; "4" ];
  E.run e;
  Alcotest.(check (list string)) "only the second send after the call is lost"
    [ "1"; "2"; "4" ]
    (List.rev_map (fun (_, p) -> String.concat "" p) !box_b);
  Alcotest.(check int) "other direction untouched" 1 (List.length !box_a);
  Alcotest.(check int) "a lost message is still a flow" 5 (N.flows net)

let suite =
  [
    Alcotest.test_case "basic delivery" `Quick test_basic_delivery;
    Alcotest.test_case "default latency" `Quick test_default_latency;
    Alcotest.test_case "latency override symmetric" `Quick
      test_latency_override_symmetric;
    Alcotest.test_case "FIFO per pair" `Quick test_fifo_per_pair;
    Alcotest.test_case "flow counting" `Quick test_flow_counting;
    Alcotest.test_case "partition blocks send" `Quick test_partition_blocks_send;
    Alcotest.test_case "heal restores" `Quick test_heal_restores;
    Alcotest.test_case "partition symmetric" `Quick test_partition_is_symmetric;
    Alcotest.test_case "crashed destination drops in-flight" `Quick
      test_crashed_destination_drops_in_flight;
    Alcotest.test_case "crashed source cannot send" `Quick
      test_crashed_source_cannot_send;
    Alcotest.test_case "restart receives again" `Quick test_restart_receives_again;
    Alcotest.test_case "set_handler replaces" `Quick test_set_handler_replaces;
    Alcotest.test_case "duplicate node rejected" `Quick test_duplicate_node_rejected;
    Alcotest.test_case "unknown node rejected" `Quick test_unknown_node_rejected;
    Alcotest.test_case "reset stats" `Quick test_reset_stats;
    Alcotest.test_case "drop_nth counts per link" `Quick
      test_drop_nth_counts_per_link;
  ]
