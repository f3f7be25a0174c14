(* The three benchmark workloads.  Each is a batch job at a fixed input
   size; inside the simulation arrivals are the mixer's open-loop Poisson
   process in virtual time at rate concurrency / base_interarrival (30). *)

open Tpc.Types

let names = [ "oltp"; "hotspot"; "chaos" ]

(* A mixer cell: one long-lived world. *)
type cell = { config : config; tree : tree; mixer : Tpc.Mixer.cfg }

type t = Cell of cell | Chaos of Driver.chaos_params

let pa = default_config |> with_protocol Presumed_abort |> with_trace_events false

(* Fault-free PA on a 5-member flat tree: the commit path does the work;
   almost no lock waits; the one world grows with its history. *)
let oltp ~seed =
  {
    config = pa;
    tree = Workload.mixer_tree ~n:5 ~opts:[] ();
    mixer =
      { Tpc.Mixer.default_cfg with concurrency = 8; txns = 50_000; keyspace = 1024; seed };
  }

(* The same tree under contention: 16 keys per member, read-only votes,
   long locks and group commit.  Lock queues and timeout aborts, batched
   forces, and piggybacked acknowledgments. *)
let hotspot ~seed =
  let opts = [ `Read_only; `Long_locks ] in
  {
    config = pa |> with_opts opts |> with_group_commit ~size:8 ~timeout:2.0;
    tree = Workload.mixer_tree ~n:5 ~opts ();
    mixer =
      { Tpc.Mixer.default_cfg with concurrency = 32; txns = 50_000; keyspace = 16; seed };
  }

let chaos_seeds = 1000
let chaos_txns = 200

(* Many short worlds under seeded fault plans (crash/restart, partition,
   drop, jitter) on a 4-member PA tree with retries, as [tpc_sim chaos]
   runs them.  Seed [s] covers chaos seeds [s * 1000, s * 1000 + 999]. *)
let chaos ~seed =
  let concurrency = 8 in
  let horizon =
    float_of_int chaos_txns *. Tpc.Mixer.default_cfg.Tpc.Mixer.base_interarrival
    /. float_of_int concurrency
  in
  {
    Driver.ch_config =
      pa
      |> with_retries ~interval:25.0 ~max:8
      |> with_prepare_retries 2 |> with_retry_backoff 2.0;
    ch_tree = Workload.mixer_tree ~n:4 ~opts:[] ();
    ch_mixer =
      { Tpc.Mixer.default_cfg with txns = chaos_txns; concurrency; seed = seed * chaos_seeds };
    ch_seed0 = seed * chaos_seeds;
    ch_seeds = chaos_seeds;
    ch_gen = { Faultlab.default_gen with horizon };
    ch_plan = None;
    ch_broken = false;
    ch_shrink = false;
    ch_protocol_flag = "pa";
    ch_n = 4;
    ch_adversary = false;
    ch_blocking = false;
  }

let make name ~seed =
  match name with
  | "oltp" -> Some (Cell (oltp ~seed))
  | "hotspot" -> Some (Cell (hotspot ~seed))
  | "chaos" -> Some (Chaos (chaos ~seed))
  | _ -> None

let chaos_seed_list (p : Driver.chaos_params) =
  List.init p.Driver.ch_seeds (fun i -> p.Driver.ch_seed0 + i)

let chaos_plan (p : Driver.chaos_params) seed =
  Faultlab.gen ~seed ~nodes:(Faultlab.tree_nodes p.Driver.ch_tree) p.Driver.ch_gen

let chaos_mixer (p : Driver.chaos_params) seed = { p.Driver.ch_mixer with Tpc.Mixer.seed }

(* Microbench parameters at the workload's settings. *)
let micro_params w ~queue_depth =
  match w with
  | Cell c ->
      {
        Micro.config = c.config;
        tree = c.tree;
        keyspace = c.mixer.Tpc.Mixer.keyspace;
        queue_depth;
        scratch = false;
      }
  | Chaos p ->
      {
        Micro.config = p.Driver.ch_config;
        tree = p.Driver.ch_tree;
        keyspace = p.Driver.ch_mixer.Tpc.Mixer.keyspace;
        queue_depth;
        scratch = true;
      }
