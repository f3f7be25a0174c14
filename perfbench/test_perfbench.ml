(* Tests of the benchmark's own arithmetic and of BENCHMARK.json.
   Run with the path of BENCHMARK.json as the only argument. *)

let benchmark_json = ref ""

let float_eq = Alcotest.float 1e-12

(* The benchmark takes its percentiles from [Metrics.percentile]: nearest
   rank, the ceil(p/100 * n)-th smallest, never an interpolation. *)
let percentiles () =
  let samples = [ 7.0; 1.0; 4.0; 9.0; 2.0; 3.0; 8.0; 5.0; 6.0; 10.0 ] in
  let pct = Tpc.Metrics.percentile in
  List.iter
    (fun (p, want) -> Alcotest.check float_eq (Printf.sprintf "p%g of ten" p) want (pct samples p))
    [ (0.0, 1.0); (1.0, 1.0); (10.0, 1.0); (25.0, 3.0); (50.0, 5.0); (75.0, 8.0);
      (90.0, 9.0); (99.0, 10.0); (100.0, 10.0) ];
  Alcotest.check float_eq "median of four is the lower middle" 2.0
    (pct [ 4.0; 1.0; 3.0; 2.0 ] 50.0);
  Alcotest.check float_eq "single sample" 3.5 (pct [ 3.5 ] 99.0);
  Alcotest.(check bool) "empty is nan" true (Float.is_nan (pct [] 50.0))

let ratios () =
  Alcotest.check float_eq "zero denominator" 0.0 (Tpc.Metrics.Agg.ratio 5.0 0);
  Alcotest.check float_eq "zero over zero" 0.0 (Stats.per_int 0 0);
  Alcotest.check float_eq "plain ratio" 1.5 (Stats.per_int 3 2)

let span ?parent id start stop = { Spans.id; name = "s"; start; stop; parent }

let self_time () =
  let parent = span 0 0.0 10.0 in
  let all =
    [
      parent;
      span ~parent:0 1 1.0 3.0;
      span ~parent:0 2 2.0 5.0 (* overlaps the first child *);
      span ~parent:0 3 8.0 12.0 (* runs past the parent's end *);
      span ~parent:1 4 1.0 2.0 (* a grandchild is its parent's business *);
    ]
  in
  Alcotest.check float_eq "covered union, clipped" 6.0
    (Spans.covered [ (1.0, 3.0); (2.0, 5.0); (8.0, 12.0) ] ~lo:0.0 ~hi:10.0);
  Alcotest.check float_eq "self = duration - children's union" 4.0
    (Spans.self_time all parent);
  Alcotest.check float_eq "child minus grandchild" 1.0
    (Spans.self_time all (List.nth all 1));
  Alcotest.check float_eq "leaf keeps its duration" 3.0
    (Spans.self_time all (List.nth all 2))

let nested_spans () =
  let sp = Spans.create () in
  let inner =
    Spans.within sp "outer" (fun outer ->
        Spans.within sp ~parent:outer "inner" (fun id -> id))
  in
  let all = Spans.spans sp in
  let find name = List.find (fun s -> s.Spans.name = name) all in
  Alcotest.(check (option int)) "inner's parent is outer" (Some (find "outer").id)
    (find "inner").parent;
  Alcotest.(check int) "ids handed out in order" inner (find "inner").id;
  Alcotest.(check bool) "self time within duration" true
    (let o = find "outer" in
     let self = Spans.self_time all o in
     self >= 0.0 && self <= Spans.duration o)

let result_line () =
  let specs = [ Report.spec "a" "s"; Report.spec "b" "count" ] in
  let line =
    Report.line ~correct:true ~attempted:3 ~failed:0 specs [ ("b", 2.0); ("a", 0.1) ]
  in
  let j = Tpc.Json.parse line in
  let get k = Option.get (Tpc.Json.member k j) in
  Alcotest.(check (option int)) "attempted" (Some 3) (Tpc.Json.to_int_opt (get "attempted"));
  let a = Option.get (Tpc.Json.member "a" (get "metrics")) in
  Alcotest.(check (option (float 0.0))) "value keeps every digit" (Some 0.1)
    (Option.bind (Tpc.Json.member "value" a) Tpc.Json.to_float_opt)

let names_of field j =
  match Tpc.Json.member field j with
  | Some (Tpc.Json.List l) ->
      List.map (fun o -> Option.get (Option.bind (Tpc.Json.member "name" o) Tpc.Json.to_string_opt)) l
  | _ -> Alcotest.failf "BENCHMARK.json: %s is not a list" field

let units_of field j =
  match Tpc.Json.member field j with
  | Some (Tpc.Json.List l) ->
      List.map (fun o -> Option.get (Option.bind (Tpc.Json.member "unit" o) Tpc.Json.to_string_opt)) l
  | _ -> []

let benchmark_file () =
  let ic = open_in_bin !benchmark_json in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let j = Tpc.Json.parse text in
  let names specs = List.map (fun s -> s.Report.name) specs in
  let units specs = List.map (fun s -> s.Report.unit_) specs in
  Alcotest.(check (list string)) "workloads" Workloads.names (names_of "workloads" j);
  Alcotest.(check (list string)) "end-to-end metrics" (names Report.end_to_end)
    (names_of "end_to_end" j);
  Alcotest.(check (list string)) "end-to-end units" (units Report.end_to_end)
    (units_of "end_to_end" j);
  Alcotest.(check (list string)) "per-layer metrics" (names Report.per_layer)
    (names_of "per_layer" j);
  Alcotest.(check (list string)) "per-layer units" (units Report.per_layer)
    (units_of "per_layer" j);
  match Tpc.Json.member "end_to_end" j with
  | Some (Tpc.Json.List l) ->
      List.iter
        (fun o ->
          let bound = Option.bind (Tpc.Json.member "bound" o) Tpc.Json.to_float_opt in
          Alcotest.(check bool) "bound within (0, 0.25]" true
            (match bound with Some b -> b > 0.0 && b <= 0.25 | None -> false))
        l
  | _ -> ()

let () =
  benchmark_json := Sys.argv.(1);
  Alcotest.run ~argv:[| Sys.argv.(0) |] "perfbench"
    [
      ( "arithmetic",
        [
          Alcotest.test_case "nearest-rank percentiles" `Quick percentiles;
          Alcotest.test_case "per-txn ratios" `Quick ratios;
          Alcotest.test_case "span self time" `Quick self_time;
          Alcotest.test_case "nested spans" `Quick nested_spans;
          Alcotest.test_case "result line" `Quick result_line;
        ] );
      ("benchmark file", [ Alcotest.test_case "BENCHMARK.json" `Quick benchmark_file ]);
    ]
