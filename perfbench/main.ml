(* The repository benchmark.

     main.exe --workload oltp|hotspot|chaos --seed N --seconds S --trace 0|1

   With --trace 0 it repeats the workload for S seconds and reports the
   end-to-end metrics (medians over the repetitions); with --trace 1 it
   reports per-layer metrics, timing each layer only from outside:
   spans around the calls it makes into the layers, the counters the
   layers expose, and microbenches of each layer's interface.  Every
   repetition is checked for correctness, and repetitions of the same
   seeded input must agree exactly on every deterministic quantity.  The
   last line of standard output is one JSON result object; the exit code
   is non-zero when any check failed. *)

open Tpc

type status = { mutable attempted : int; mutable failed : int }

(* Report a failed check on stderr and count [count] failed operations. *)
let problem st ?(count = 1) fmt =
  Printf.ksprintf
    (fun s ->
      st.failed <- st.failed + count;
      prerr_endline ("perfbench: " ^ s))
    fmt

let started = Stats.now_ns ()
let median samples = Metrics.percentile samples 50.0

(* Repeat [f] at least [min_reps] times, and after that only while one
   more call, as long as the last one, would end less than half a call
   past [budget] seconds from the first call. *)
let repeat ~budget ~min_reps f =
  let t0 = Stats.now_ns () in
  let rec go acc n last =
    if n >= min_reps && Stats.since t0 +. (last /. 2.0) >= budget then List.rev acc
    else
      let t = Stats.now_ns () in
      let x = f () in
      go (x :: acc) (n + 1) (Stats.since t)
  in
  go [] 0 0.0

(* Every repetition of one seeded input must agree exactly.  On a
   mismatch, show the first line that differs. *)
let check_same st what = function
  | [] -> ()
  | first :: rest ->
      List.iter
        (fun x ->
          if x <> first then begin
            let a = String.split_on_char '\n' first and b = String.split_on_char '\n' x in
            let a, b =
              try List.find (fun (a, b) -> a <> b) (List.combine a b)
              with Invalid_argument _ | Not_found -> (first, x)
            in
            problem st "%s differs between repetitions:\n  %s\n  %s" what a b
          end)
        rest

exception Setup_done

(* Per committed txn, the lock time summed over the members it touched:
   the samples the mixer streams into its lock-hold histogram, kept raw so
   the p99 is an exact nearest rank rather than a bucket midpoint. *)
let lock_holds (w : Run.world) summaries =
  List.filter_map
    (fun s ->
      if s.Mixer.ts_outcome <> Some Types.Committed then None
      else
        match List.sort_uniq compare (List.map (fun it -> it.Mixer.it_node) s.ts_items) with
        | [] -> None
        | nodes ->
            Some
              (List.fold_left
                 (fun acc n ->
                   acc +. Lockmgr.txn_lock_time (Kvstore.locks (Run.kv w n)) ~txn:s.ts_txn)
                 0.0 nodes))
    summaries

(* ------------------------------------------------------------------ *)
(* Layer counters, summed over the worlds a measurement ran. *)

type counts = {
  txns : int;
  worlds : int;
  events : int;
  scheduled : int;
  cancelled : int;
  max_depth : int;
  engine_s : float;
  net_flows : int;
  data_flows : int;
  writes : int;
  forced : int;
  ios : int;
  retained : int;
  acquisitions : int;
  hold_total : float;
  waits : int;
  timeouts : int;
  lock_wait_total : float;
  in_doubt : int;
  unresolved : int;
}

let add a b =
  {
    txns = a.txns + b.txns;
    worlds = a.worlds + b.worlds;
    events = a.events + b.events;
    scheduled = a.scheduled + b.scheduled;
    cancelled = a.cancelled + b.cancelled;
    max_depth = max a.max_depth b.max_depth;
    engine_s = a.engine_s +. b.engine_s;
    net_flows = a.net_flows + b.net_flows;
    data_flows = a.data_flows + b.data_flows;
    writes = a.writes + b.writes;
    forced = a.forced + b.forced;
    ios = a.ios + b.ios;
    retained = a.retained + b.retained;
    acquisitions = a.acquisitions + b.acquisitions;
    hold_total = a.hold_total +. b.hold_total;
    waits = a.waits + b.waits;
    timeouts = a.timeouts + b.timeouts;
    lock_wait_total = a.lock_wait_total +. b.lock_wait_total;
    in_doubt = a.in_doubt + b.in_doubt;
    unresolved = a.unresolved + b.unresolved;
  }

(* Read every layer's counters off a quiesced world; the fault-aware audit
   doubles as a correctness check. *)
let counts_of st (agg : Metrics.Agg.t) (w : Run.world) summaries =
  let v = Faultlab.audit w summaries in
  if not (Faultlab.ok v) then
    problem st "faultlab audit failed: %s"
      (String.concat " "
         (List.map (fun (k, n) -> Printf.sprintf "%s=%d" k n) (Faultlab.verdict_fields v)));
  let es = Simkernel.Engine.stats w.Run.engine in
  let wals = Run.all_wals w in
  let wal f = List.fold_left (fun acc l -> acc + f l) 0 wals in
  let locks =
    List.map (fun (_, n) -> Lockmgr.stats (Kvstore.locks n.Run.kv)) w.Run.nodes
  in
  {
    txns = agg.Metrics.Agg.txns;
    worlds = 1;
    events = es.Simkernel.Engine.events_processed;
    scheduled = es.events_scheduled;
    cancelled = es.events_cancelled;
    max_depth = es.max_queue_depth;
    engine_s = es.wall_seconds;
    net_flows = Net.flows w.Run.net;
    data_flows = agg.data_flows;
    writes = wal (fun l -> (Wal.Log.stats l).Wal.Log.writes);
    forced = wal (fun l -> (Wal.Log.stats l).Wal.Log.forced_writes);
    ios = wal (fun l -> (Wal.Log.stats l).Wal.Log.force_ios);
    retained = wal (fun l -> List.length (Wal.Log.all_records l));
    acquisitions = List.fold_left (fun acc s -> acc + s.Lockmgr.acquisitions) 0 locks;
    hold_total = List.fold_left (fun acc s -> acc +. s.Lockmgr.total_hold_time) 0.0 locks;
    waits = agg.lock_waits;
    timeouts =
      List.length (List.filter (fun s -> s.Mixer.ts_timed_out) summaries);
    lock_wait_total = agg.lock_wait_mean *. float_of_int agg.txns;
    in_doubt = v.Faultlab.v_in_doubt;
    unresolved = v.Faultlab.v_unresolved;
  }

(* Host-side figures that only the chaos workload produces. *)
type fanout = {
  gen_s : float;
  case_s : float list;
  crashes : int;
  plan_events : int;
  fanout_s : float;
  cell_engine_s : float list;
  efficiency : float;
  inflation : float;
}

(* Per-layer metrics from one traced measurement. *)
let layer_values ~(c : counts) ~(m : Micro.all) ~host_ns_per_txn ~setup_s
    ~mixer_run_s ~mixer_self_s ~overhead ~(fan : fanout option) =
  let per n = Stats.per_int n c.txns in
  let events = per c.events and flows = per c.net_flows in
  let nonforced = per (c.writes - c.forced) and forced = per c.forced in
  let grouped = c.ios < c.forced in
  let sim_est = m.flat.ns *. events in
  let net_est = m.send.ns *. flows in
  let wal_est =
    (m.append.ns *. nonforced)
    +. ((if grouped then m.group_force.ns else m.force.ns) *. forced)
  in
  let lock_est = (m.acq_rel.ns *. per c.acquisitions) +. (m.queued.ns *. per c.waits) in
  let fan_values =
    match fan with
    | None -> []
    | Some f ->
        let seeds = float_of_int c.worlds in
        [
          ("faultlab.gen_s", f.gen_s);
          ("faultlab.case_s_p50", Metrics.percentile f.case_s 50.0);
          ("faultlab.case_s_p99", Metrics.percentile f.case_s 99.0);
          ("faultlab.crashes_per_seed", float_of_int f.crashes /. seeds);
          ("faultlab.plan_events_per_seed", float_of_int f.plan_events /. seeds);
          ("driver.fanout_s", f.fanout_s);
          ("driver.cell_engine_s_p50", Metrics.percentile f.cell_engine_s 50.0);
          ("driver.cell_engine_s_p99", Metrics.percentile f.cell_engine_s 99.0);
          ("parallel.efficiency", f.efficiency);
          ("parallel.cell_inflation", f.inflation);
        ]
  in
  let values =
    [
      ("simkernel.events_per_txn", events);
      ("simkernel.cancelled_share", Stats.per_int c.cancelled c.scheduled);
      ("simkernel.max_queue_depth", float_of_int c.max_depth);
      ("simkernel.run_s", c.engine_s);
      ("simkernel.flat_ns", m.flat.ns);
      ("simkernel.flat_words", m.flat.words);
      ("simkernel.closure_ns", m.closure.ns);
      ("simkernel.closure_words", m.closure.words);
      ("simkernel.est_ns_per_txn", sim_est);
      ("netsim.flows_per_txn", flows);
      ("netsim.data_flows_per_txn", per c.data_flows);
      ("netsim.send_deliver_ns", m.send.ns);
      ("netsim.send_deliver_words", m.send.words);
      ("netsim.est_ns_per_txn", net_est);
      ("wal.writes_per_txn", per c.writes);
      ("wal.forced_per_txn", forced);
      ("wal.force_ios_per_txn", per c.ios);
      ("wal.batch_fill", Stats.per_int c.forced c.ios);
      ("wal.retained_records_per_txn", per c.retained);
      ("wal.append_ns", m.append.ns);
      ("wal.append_words", m.append.words);
      ("wal.force_ns", m.force.ns);
      ("wal.force_words", m.force.words);
      ("wal.group_force_ns", m.group_force.ns);
      ("wal.group_force_words", m.group_force.words);
      ("wal.est_ns_per_txn", wal_est);
      ("lockmgr.acquisitions_per_txn", per c.acquisitions);
      ("lockmgr.waits_per_txn", per c.waits);
      ("lockmgr.timeout_aborts_per_txn", per c.timeouts);
      ("lockmgr.hold_mean_vt", Metrics.Agg.ratio c.hold_total c.acquisitions);
      ("lockmgr.acquire_release_ns", m.acq_rel.ns);
      ("lockmgr.acquire_release_words", m.acq_rel.words);
      ("lockmgr.queued_grant_ns", m.queued.ns);
      ("lockmgr.queued_grant_words", m.queued.words);
      ("lockmgr.est_ns_per_txn", lock_est);
      ("kvstore.put_commit_ns", m.put.ns);
      ("kvstore.put_commit_words", m.put.words);
      ("kvstore.recover_ns_per_record", m.recover_ns);
      ("obs.histogram_record_ns", m.hist.ns);
      ("obs.histogram_record_words", m.hist.words);
      ("participant.commit_ns", m.commit.ns);
      ("participant.commit_words", m.commit.words);
      ( "participant.residual_ns_per_txn",
        host_ns_per_txn -. sim_est -. net_est -. wal_est -. lock_est );
      ("participant.in_doubt_per_seed", Stats.per_int c.in_doubt c.worlds);
      ("participant.unresolved_per_seed", Stats.per_int c.unresolved c.worlds);
      ("run.setup_s", setup_s);
      ("run.setup_ns", m.setup.ns);
      ("run.setup_words", m.setup.words);
      ("mixer.run_s", mixer_run_s);
      ("mixer.self_s", mixer_self_s);
      ("mixer.lock_wait_mean_vt", Metrics.Agg.ratio c.lock_wait_total c.txns);
      ("bench.tracing_overhead", overhead);
    ]
    @ fan_values
  in
  List.map
    (fun (s : Report.spec) ->
      match List.assoc_opt s.name values with
      | Some v -> (s.name, v)
      | None -> (s.name, 0.0))
    Report.per_layer

(* ------------------------------------------------------------------ *)
(* Mixer cells: oltp and hotspot. *)

type rep = {
  wall : float;  (** host seconds in [Mixer.run_full] *)
  words : float;
  hold_p99 : float;  (** exact, over committed txns *)
  fingerprint : string;  (** every deterministic count of the run *)
  agg : Metrics.Agg.t;
  traced : (counts * int) option;  (** layer counters, [mixer.run_full] span *)
}

let fingerprint (a : Metrics.Agg.t) ~events ~hold_p99 =
  Printf.sprintf
    "committed=%d aborted=%d flows=%d data_flows=%d tm_writes=%d tm_forced=%d \
     force_ios=%d lock_waits=%d events=%d commit_p50=%h commit_p99=%h \
     hold_p99=%h exact_hold_p99=%h lock_wait_mean=%h violations=%d"
    a.committed a.aborted a.flows a.data_flows a.tm_writes a.tm_forced
    a.force_ios a.lock_waits events a.commit_latency_p50 a.commit_latency_p99
    a.lock_hold_p99 hold_p99 a.lock_wait_mean a.consistency_violations

(* Correctness of one repetition: no consistency violation, every
   submitted txn committed or aborted, none unresolved at quiescence. *)
let check_cell st (a : Metrics.Agg.t) summaries =
  let unresolved =
    List.length (List.filter (fun s -> s.Mixer.ts_outcome = None) summaries)
  in
  let unaccounted = a.txns - a.committed - a.aborted in
  let failed = min a.txns (max unresolved unaccounted + a.consistency_violations) in
  st.attempted <- st.attempted + a.txns;
  if failed > 0 then
    problem st ~count:failed "%d of %d txns failed (unresolved %d, violations %d)" failed
      a.txns unresolved a.consistency_violations

(* One repetition, through the same call the fault-free sweeps make:
   [Mixer.run_full] without [?inject], which would also arm the fault
   runs' branch watchdog.  With [sp] it is traced: a span for the call,
   with the engine's run as its child, and every layer's counters read off
   the world before it is dropped.  Set-up is timed apart, by
   [setup_sample]. *)
let run_cell st ?sp (c : Workloads.cell) =
  Gc.full_major ();
  let s0 = Option.fold ~none:0.0 ~some:Spans.now sp in
  let w0 = Stats.allocated_words () in
  let t0 = Stats.now_ns () in
  let agg, w, summaries = Mixer.run_full ~config:c.config c.mixer c.tree in
  let wall = Stats.since t0 in
  let words = Stats.allocated_words () -. w0 in
  check_cell st agg summaries;
  let events = (Simkernel.Engine.stats w.Run.engine).events_processed in
  let hold_p99 = Metrics.percentile (lock_holds w summaries) 99.0 in
  let traced =
    Option.map
      (fun sp ->
        let counts = counts_of st agg w summaries in
        let stop = s0 +. wall in
        let run = Spans.add sp ~name:"mixer.run_full" ~start:s0 ~stop () in
        (* Only the engine's run time is known, not where it began: the
           span ends with the call. *)
        ignore
          (Spans.add sp ~parent:run ~name:"simkernel.run" ~start:(stop -. counts.engine_s) ~stop ());
        (counts, run))
      sp
  in
  { wall; words; hold_p99; fingerprint = fingerprint agg ~events ~hold_p99; agg; traced }

(* Host time per world from the start of [Mixer.run_full] to its [?inject]
   hook, which fires once the world is built and the arrivals are
   scheduled; the hook raises, so the engine never starts.  One sample
   times [setup_batch] worlds in a row, with no collection forced between
   them, so that it outlasts the page-fault and scheduling noise of a
   single 10-20 ms set-up.  Traced, each world gets a [run.setup] span. *)
let setup_batch = 8

let setup_sample ?sp (c : Workloads.cell) =
  let one () =
    try ignore (Mixer.run_full ~config:c.config ~inject:(fun _ -> raise Setup_done) c.mixer c.tree)
    with Setup_done -> ()
  in
  let t0 = Stats.now_ns () in
  for _ = 1 to setup_batch do
    match sp with Some sp -> Spans.within sp "run.setup" (fun _ -> one ()) | None -> one ()
  done;
  Stats.since t0 /. float_of_int setup_batch

(* [n] samples.  The garbage of the repetition before them is collected
   first, and one sample is taken and dropped, so the heap is in the same
   state for each.  A shared host's speed can move over seconds, so the
   end-to-end run takes a few samples before every repetition rather than
   all of them in one burst: spread over the whole run, no single slow or
   fast moment sets the median. *)
let setup_samples ?sp c n =
  Gc.full_major ();
  ignore (setup_sample c);
  List.init n (fun _ -> setup_sample ?sp c)

let txn_per_s r = float_of_int r.agg.committed /. r.wall

let cell_end_to_end st (c : Workloads.cell) ~seconds =
  (* The first repetition is not timed: it finishes lazy initialization
     and grows the heap.  The heap keeps the high-water mark of every
     later repetition, so the peak is read after it: one world's history,
     not the number of repetitions the host had time for. *)
  let first = run_cell st c in
  let peak = Stats.peak_heap_mb () in
  (* The untimed repetition counts against the budget, so a run lasts
     about [seconds] on a slow host as on a fast one. *)
  let reps, setups =
    List.split
      (repeat ~budget:(seconds -. Stats.since started) ~min_reps:3 (fun () ->
           let setups = setup_samples c 3 in
           (run_cell st c, setups)))
  in
  let setups = List.concat setups in
  check_same st "deterministic counts" (List.map (fun r -> r.fingerprint) (first :: reps));
  check_same st "words allocated" (List.map (fun r -> Printf.sprintf "%.0f" r.words) reps);
  let a = first.agg in
  let txns = float_of_int a.txns in
  Printf.printf
    "mixer cell: %d repetitions of %d txns; commit latency over %d \
     committed txns, lock hold over the same\n"
    (List.length reps) a.txns a.committed;
  Printf.printf "repetition walls (s): %s\n"
    (String.concat " " (List.map (fun r -> Printf.sprintf "%.3f" r.wall) reps));
  Printf.printf "set-up samples (ms per world): %s\n"
    (String.concat " " (List.map (fun t -> Printf.sprintf "%.2f" (t *. 1e3)) setups));
  [
    ("txn_per_s", median (List.map txn_per_s reps));
    ("words_per_txn", median (List.map (fun r -> r.words) reps) /. txns);
    ("peak_heap_mb", peak);
    ("setup_s", median setups);
    ("commit_ratio", Stats.per_int a.committed a.txns);
    ("commit_latency_p50_vt", a.commit_latency_p50);
    ("commit_latency_p99_vt", a.commit_latency_p99);
    ("flows_per_commit", a.flows_per_commit);
    ("forced_writes_per_commit", Stats.per_int a.tm_forced a.committed);
    ("force_ios_per_commit", a.force_ios_per_commit);
    ("lock_hold_p99_vt", first.hold_p99);
  ]

(* Untraced and traced repetitions, alternating which runs first, so
   neither side always meets the host in the same phase.  The spans and
   counters are taken after the timed region, so the ratio of the two
   sides' [txn_per_s] is expected to be 1. *)
let pairs ~seconds plain traced =
  let n = ref 0 in
  repeat ~budget:(seconds /. 2.0) ~min_reps:2 (fun () ->
      incr n;
      if !n mod 2 = 1 then
        let p = plain () in
        (p, traced ())
      else
        let t = traced () in
        (plain (), t))

let cell_layers st sp (w : Workloads.t) (c : Workloads.cell) ~seconds =
  ignore (run_cell st c);
  let pairs = pairs ~seconds (fun () -> run_cell st c) (fun () -> run_cell st ~sp c) in
  check_same st "deterministic counts (traced and untraced)"
    (List.concat_map (fun (p, r) -> [ p.fingerprint; r.fingerprint ]) pairs);
  let _, r = List.nth pairs (List.length pairs - 1) in
  let counts, run = Option.get r.traced in
  let setup_s = median (setup_samples ~sp c 3) in
  let micro =
    Spans.within sp "micro" (fun _ ->
        Micro.run_all (Workloads.micro_params w ~queue_depth:counts.max_depth))
  in
  let all = Spans.spans sp in
  let overhead =
    median (List.map (fun (_, r) -> txn_per_s r) pairs)
    /. median (List.map (fun (p, _) -> txn_per_s p) pairs)
  in
  (* Set-up is not a child span of the run (it is timed apart), so it is
     taken off the run's self time here. *)
  layer_values ~c:counts ~m:micro
    ~host_ns_per_txn:(r.wall *. 1e9 /. float_of_int counts.txns)
    ~setup_s ~mixer_run_s:r.wall
    ~mixer_self_s:(Spans.self_time all (List.find (fun s -> s.Spans.id = run) all) -. setup_s)
    ~overhead ~fan:None

(* ------------------------------------------------------------------ *)
(* Chaos: many short worlds through the driver. *)

type fan_rep = {
  f_wall : float;
  f_words : float;
  cells : Driver.chaos_cell list;
  registry : Obs.Registry.t;
}

let line_int field line =
  Option.bind (Json.member field (Json.parse line)) Json.to_int_opt
  |> Option.value ~default:0

let committed_of cells =
  List.fold_left (fun acc c -> acc + line_int "committed" c.Driver.cc_line) 0 cells

let check_chaos st (p : Driver.chaos_params) rep =
  st.attempted <- st.attempted + p.ch_seeds;
  List.iter
    (fun c ->
      if c.Driver.cc_violated then problem st "chaos seed %d violated: %s" c.cc_seed c.cc_line)
    rep.cells

let run_fan st ?progress ~jobs p =
  Gc.full_major ();
  let w0 = Stats.allocated_words () in
  let t0 = Stats.now_ns () in
  let cells, registry = Driver.chaos_cells ?progress ~jobs p in
  let f_wall = Stats.since t0 in
  let rep = { f_wall; f_words = Stats.allocated_words () -. w0; cells; registry } in
  check_chaos st p rep;
  rep

(* The driver fans in by index, but completions arrive in any order: a
   cell's span runs from the previous completion to its own. *)
let traced_fan st sp ~jobs p =
  let s0 = Spans.now sp in
  let stamps = ref [] in
  let rep = run_fan st ~progress:(fun _ -> stamps := Spans.now sp :: !stamps) ~jobs p in
  let fan =
    Spans.add sp ~name:(Printf.sprintf "driver.chaos_cells.jobs%d" jobs) ~start:s0
      ~stop:(s0 +. rep.f_wall) ()
  in
  ignore
    (List.fold_left
       (fun prev t ->
         ignore (Spans.add sp ~parent:fan ~name:"driver.cell" ~start:prev ~stop:t ());
         t)
       s0 (List.rev !stamps));
  rep

let lines rep = String.concat "\n" (List.map (fun c -> c.Driver.cc_line) rep.cells)
let fan_txn_per_s rep = float_of_int (committed_of rep.cells) /. rep.f_wall

type case = {
  seed : int;
  agg : Metrics.Agg.t;
  counts : counts;
  plan : Faultlab.plan;
  gen_s : float;
  case_s : float;
  c_setup_s : float;
  run_s : float;
  hold_p99 : float;  (** exact, over the seed's committed txns; nan if none *)
}

(* Every seed again, one after another, through the same calls the driver
   makes ([Faultlab.run_case_full] is [Mixer.run_full] with the plan
   injected, then [Faultlab.audit]), so each call can be timed and every
   layer's counters read before the engine is recycled. *)
let chaos_pass st ?sp (p : Driver.chaos_params) =
  let scratch = Simkernel.Engine.create () in
  List.map
    (fun seed ->
      let t0 = Stats.now_ns () in
      let plan = Workloads.chaos_plan p seed in
      let gen_s = Stats.since t0 in
      let t1 = Stats.now_ns () in
      let setup = ref 0.0 in
      let inject w =
        Faultlab.inject plan w;
        setup := Stats.since t1
      in
      let agg, w, summaries =
        Mixer.run_full ~config:p.ch_config ~inject ~scratch (Workloads.chaos_mixer p seed)
          p.ch_tree
      in
      let run_s = Stats.since t1 in
      let counts = counts_of st agg w summaries in
      let case_s = Stats.since t0 in
      let hold_p99 = Metrics.percentile (lock_holds w summaries) 99.0 in
      Option.iter
        (fun sp ->
          let stop = Spans.now sp in
          let start = stop -. case_s in
          let case = Spans.add sp ~name:"faultlab.case" ~start ~stop () in
          ignore (Spans.add sp ~parent:case ~name:"faultlab.gen" ~start ~stop:(start +. gen_s) ());
          let r0 = start +. gen_s in
          let run =
            Spans.add sp ~parent:case ~name:"mixer.run_full" ~start:r0 ~stop:(r0 +. run_s) ()
          in
          let setup_stop = r0 +. !setup in
          ignore (Spans.add sp ~parent:run ~name:"run.setup" ~start:r0 ~stop:setup_stop ());
          ignore
            (Spans.add sp ~parent:run ~name:"simkernel.run" ~start:setup_stop
               ~stop:(setup_stop +. counts.engine_s) ());
          ignore
            (Spans.add sp ~parent:case ~name:"faultlab.audit" ~start:(r0 +. run_s) ~stop ()))
        sp;
      { seed; agg; counts; plan; gen_s; case_s; c_setup_s = !setup; run_s; hold_p99 })
    (Workloads.chaos_seed_list p)

(* The pass must reproduce what the driver reported for each seed. *)
let check_pass st rep cases =
  List.iter2
    (fun (c : Driver.chaos_cell) k ->
      let mine =
        Printf.sprintf "seed=%d committed=%d aborted=%d" k.seed k.agg.committed
          k.agg.aborted
      and theirs =
        Printf.sprintf "seed=%d committed=%d aborted=%d" c.cc_seed
          (line_int "committed" c.cc_line) (line_int "aborted" c.cc_line)
      in
      if mine <> theirs then problem st "chaos pass differs from the driver: %s vs %s" mine theirs)
    rep.cells cases

let chaos_setup (p : Driver.chaos_params) =
  let scratch = Simkernel.Engine.create () in
  let t0 = Stats.now_ns () in
  List.iter
    (fun seed ->
      let plan = Workloads.chaos_plan p seed in
      let inject w =
        Faultlab.inject plan w;
        raise Setup_done
      in
      try
        ignore
          (Mixer.run_full ~config:p.ch_config ~inject ~scratch
             (Workloads.chaos_mixer p seed) p.ch_tree)
      with Setup_done -> ())
    (Workloads.chaos_seed_list p);
  Stats.since t0

let quantile reg name p =
  match Obs.Registry.find_histogram reg name with
  | Some h when Obs.Histogram.count h > 0 -> (Obs.Histogram.quantile h p, Obs.Histogram.count h)
  | _ -> (0.0, 0)

let chaos_end_to_end st (p : Driver.chaos_params) ~seconds =
  (* One domain: on a host with few cores, a fan-out over every core times
     the scheduler and the neighbours as much as the program.  The traced
     run measures the fan-out at jobs = nproc. *)
  let jobs = 1 in
  (* The sequential pass over every seed, which the correctness checks and
     the per-commit counts need, also serves as the untimed first
     repetition. *)
  let cases = chaos_pass st p in
  (* The heap's high-water mark after the first fan-out: the driver's
     footprint, not the number of repetitions the host had time for. *)
  let peak = ref Float.nan in
  let reps, setups =
    List.split
      (repeat ~budget:(seconds -. Stats.since started) ~min_reps:3 (fun () ->
           Gc.full_major ();
           ignore (chaos_setup p);
           let setups = List.init 3 (fun _ -> chaos_setup p) in
           let rep = run_fan st ~jobs p in
           if Float.is_nan !peak then peak := Stats.peak_heap_mb ();
           (rep, setups)))
  in
  let peak = !peak in
  let setups = List.concat setups in
  check_same st "chaos cell lines" (List.map lines reps);
  let first = List.hd reps in
  check_pass st first cases;
  let sum f = List.fold_left (fun acc k -> acc + f k.agg) 0 cases in
  let committed = sum (fun a -> a.committed) in
  let submitted = p.ch_seeds * p.ch_mixer.Mixer.txns in
  let p50, n = quantile first.registry "mixer/commit_latency" 50.0 in
  let p99, _ = quantile first.registry "mixer/commit_latency" 99.0 in
  (* Pooled over every seed, the lock-hold tail is set by the few seeds
     whose crashes kept locks longest, and it swings with the seed range;
     the p99 of the typical world (median over seeds) is the steady
     figure.  A mixer cell is one world, so there the two coincide. *)
  let hold_p99s =
    List.filter_map
      (fun k -> if Float.is_nan k.hold_p99 then None else Some k.hold_p99)
      cases
  in
  Printf.printf
    "chaos: %d repetitions of %d seeds x %d txns at jobs %d; commit latency \
     over %d committed txns, lock-hold p99 the median over %d seeds\n"
    (List.length reps) p.ch_seeds p.ch_mixer.Mixer.txns jobs n (List.length hold_p99s);
  Printf.printf "repetition walls (s): %s\n"
    (String.concat " " (List.map (fun r -> Printf.sprintf "%.3f" r.f_wall) reps));
  Printf.printf "set-up samples (ms per %d worlds): %s\n" p.ch_seeds
    (String.concat " " (List.map (fun t -> Printf.sprintf "%.2f" (t *. 1e3)) setups));
  [
    ("txn_per_s", median (List.map fan_txn_per_s reps));
    ("words_per_txn", median (List.map (fun r -> r.f_words) reps) /. float_of_int submitted);
    ("peak_heap_mb", peak);
    ("setup_s", median setups);
    ("commit_ratio", Stats.per_int committed submitted);
    ("commit_latency_p50_vt", p50);
    ("commit_latency_p99_vt", p99);
    ("flows_per_commit", Stats.per_int (sum (fun a -> a.flows)) committed);
    ("forced_writes_per_commit", Stats.per_int (sum (fun a -> a.tm_forced)) committed);
    ("force_ios_per_commit", Stats.per_int (sum (fun a -> a.force_ios)) committed);
    ("lock_hold_p99_vt", median hold_p99s);
  ]

let chaos_layers st sp (w : Workloads.t) (p : Driver.chaos_params) ~seconds =
  let jobs = Parallel.recommended_jobs () in
  ignore (run_fan st ~jobs p);
  let pairs = pairs ~seconds (fun () -> run_fan st ~jobs p) (fun () -> traced_fan st sp ~jobs p) in
  let fan_1 = traced_fan st sp ~jobs:1 p in
  check_same st "chaos cell lines (untraced and traced at jobs N, traced at jobs 1)"
    (lines fan_1 :: List.concat_map (fun (a, b) -> [ lines a; lines b ]) pairs);
  let _, fan_n = List.nth pairs (List.length pairs - 1) in
  let cases = Spans.within sp "faultlab.pass" (fun _ -> chaos_pass st ~sp p) in
  check_pass st fan_1 cases;
  let counts =
    List.fold_left (fun acc k -> add acc k.counts) (List.hd cases).counts (List.tl cases)
  in
  let engine rep = List.map (fun c -> c.Driver.cc_stats.Simkernel.Engine.wall_seconds) rep.cells in
  let total l = List.fold_left ( +. ) 0.0 l in
  let sumf f = total (List.map f cases) in
  let micro =
    Spans.within sp "micro" (fun _ ->
        Micro.run_all (Workloads.micro_params w ~queue_depth:counts.max_depth))
  in
  let fan =
    {
      gen_s = sumf (fun k -> k.gen_s);
      case_s = List.map (fun k -> k.case_s) cases;
      crashes =
        List.fold_left
          (fun acc k ->
            acc
            + List.length
                (List.filter (function Faultlab.Crash _ -> true | _ -> false) k.plan))
          0 cases;
      plan_events = List.fold_left (fun acc k -> acc + List.length k.plan) 0 cases;
      fanout_s = fan_n.f_wall;
      cell_engine_s = engine fan_n;
      efficiency = total (engine fan_1) /. (float_of_int jobs *. fan_n.f_wall);
      inflation = total (engine fan_n) /. total (engine fan_1);
    }
  in
  layer_values ~c:counts ~m:micro
    ~host_ns_per_txn:(fan_1.f_wall *. 1e9 /. float_of_int counts.txns)
    ~setup_s:(sumf (fun k -> k.c_setup_s))
    ~mixer_run_s:(sumf (fun k -> k.run_s))
    ~mixer_self_s:
      (let all = Spans.spans sp in
       total
         (List.filter_map
            (fun s ->
              if s.Spans.name = "mixer.run_full" then Some (Spans.self_time all s) else None)
            all))
    ~overhead:
      (median (List.map (fun (_, t) -> fan_txn_per_s t) pairs)
      /. median (List.map (fun (u, _) -> fan_txn_per_s u) pairs))
    ~fan:(Some fan)

(* ------------------------------------------------------------------ *)

let spans_path workload seed =
  let dir = Filename.concat "perfbench" "_out" in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  Filename.concat dir (Printf.sprintf "spans-%s-seed%d.json" workload seed)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " oltp, hotspot or chaos");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_int seconds, " how long to measure");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics; 1: per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  let w =
    match Workloads.make !workload ~seed:!seed with
    | Some w when !trace = 0 || !trace = 1 -> w
    | _ ->
        Printf.eprintf "perfbench: --workload must be one of %s and --trace 0 or 1\n"
          (String.concat ", " Workloads.names);
        exit 2
  in
  let st = { attempted = 0; failed = 0 } in
  let budget = float_of_int !seconds in
  let specs, values =
    if !trace = 0 then
      ( Report.end_to_end,
        match w with
        | Workloads.Cell c -> cell_end_to_end st c ~seconds:budget
        | Workloads.Chaos p -> chaos_end_to_end st p ~seconds:budget )
    else begin
      let sp = Spans.create () in
      let values =
        match w with
        | Workloads.Cell c -> cell_layers st sp w c ~seconds:budget
        | Workloads.Chaos p -> chaos_layers st sp w p ~seconds:budget
      in
      let path = spans_path !workload !seed in
      Spans.write sp path;
      Printf.printf "spans: %s\n" path;
      (Report.per_layer, values)
    end
  in
  List.iter
    (fun (name, v) -> if not (Float.is_finite v) then problem st "%s is not finite" name)
    values;
  let values = List.map (fun (n, v) -> (n, if Float.is_finite v then v else 0.0)) values in
  let correct = st.failed = 0 in
  Printf.printf "%s seed %d, %.1f s:\n" !workload !seed (Stats.since started);
  Report.table specs values;
  print_endline
    (Report.line ~correct ~attempted:(max 1 st.attempted) ~failed:st.failed specs values);
  exit (if correct then 0 else 1)
