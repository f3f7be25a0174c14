(** Per-run result summary: the paper's three evaluation axes (message
    flows, log writes, resource lock time) plus outcome/heuristic data. *)

type t = {
  outcome : Types.outcome option;  (** [None]: the root never completed *)
  pending : bool;      (** wait-for-outcome: completed with outcome pending *)
  flows : int;         (** protocol message flows (paper convention) *)
  data_flows : int;    (** application-data messages (carry piggybacks) *)
  tm_writes : int;     (** transaction-manager log writes *)
  tm_forced : int;     (** ... of which forced *)
  force_ios : int;     (** physical force I/Os over all logs (group commit) *)
  completion_time : float option;  (** root application told the outcome *)
  quiesce_time : float;            (** last event in the run *)
  mean_lock_release : float option;
      (** mean over members of the time their locks were released *)
  max_lock_release : float option;
  heuristics : int;
  damage_reports : (string * string) list;  (** (damaged node, reported to) *)
}

let of_run ~trace ~wals ~root ~outcome ~pending ~quiesce_time =
  let events = Trace.events trace in
  (* timers a crashed node armed still fire, as epoch-guarded no-ops, long
     after the last real action: report the last traced event instead *)
  let quiesce_time =
    List.fold_left
      (fun acc e -> max acc (Trace.event_time e))
      (if events = [] then quiesce_time else 0.0)
      events
  in
  let release_times =
    List.filter_map
      (function Trace.Locks_released { time; _ } -> Some time | _ -> None)
      events
  in
  let mean l =
    match l with
    | [] -> None
    | _ -> Some (List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l))
  in
  let maxi l =
    match l with [] -> None | x :: rest -> Some (List.fold_left max x rest)
  in
  let force_ios =
    List.fold_left (fun acc w -> acc + (Wal.Log.stats w).Wal.Log.force_ios) 0 wals
  in
  {
    outcome;
    pending;
    flows = Trace.flows trace;
    data_flows = Trace.data_flows trace;
    tm_writes = Trace.tm_writes trace;
    tm_forced = Trace.tm_forced_writes trace;
    force_ios;
    completion_time = Trace.completion_time trace root;
    quiesce_time;
    mean_lock_release = mean release_times;
    max_lock_release = maxi release_times;
    heuristics = Trace.heuristic_count trace;
    damage_reports = Trace.damage_reports trace;
  }

let counts t : Cost_model.counts =
  { Cost_model.flows = t.flows; writes = t.tm_writes; forced = t.tm_forced }

(* Nearest-rank percentiles.  The sort is paid once per sample set: callers
   that need several percentiles go through [sorted_samples] +
   [percentile_of_sorted] (or [percentiles]) instead of re-sorting per
   query.  This stays the exact reference implementation the streaming
   [Obs.Histogram] is tested against. *)

let sorted_samples samples =
  let a = Array.of_list samples in
  Array.sort compare a;
  a

let percentile_of_sorted sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    sorted.(min (n - 1) (max 0 (rank - 1)))

let percentile samples p = percentile_of_sorted (sorted_samples samples) p

let percentiles samples ps =
  let sorted = sorted_samples samples in
  List.map (percentile_of_sorted sorted) ps

let json_of_float_opt = function
  | None -> Json.Null
  | Some f -> Json.Float f

let to_json t =
  Json.to_string
    (Json.Obj
       [
         ( "outcome",
           match t.outcome with
           | None -> Json.Null
           | Some o -> Json.String (Types.outcome_to_string o) );
         ("pending", Json.Bool t.pending);
         ("flows", Json.Int t.flows);
         ("data_flows", Json.Int t.data_flows);
         ("tm_writes", Json.Int t.tm_writes);
         ("tm_forced", Json.Int t.tm_forced);
         ("force_ios", Json.Int t.force_ios);
         ("completion_time", json_of_float_opt t.completion_time);
         ("quiesce_time", Json.Float t.quiesce_time);
         ("mean_lock_release", json_of_float_opt t.mean_lock_release);
         ("max_lock_release", json_of_float_opt t.max_lock_release);
         ("heuristics", Json.Int t.heuristics);
         ( "damage_reports",
           Json.List
             (List.map
                (fun (node, to_) ->
                  Json.Obj
                    [
                      ("node", Json.String node); ("reported_to", Json.String to_);
                    ])
                t.damage_reports) );
       ])

(** Aggregate results over a concurrent multi-transaction run (the mixer's
    return value): the paper's per-commit axes re-expressed as throughput,
    latency percentiles and per-commit averages. *)
module Agg = struct
  type t = {
    label : string;  (** optimization-set label, e.g. ["read-only+shared-log"] *)
    concurrency : int;
    txns : int;  (** transactions submitted *)
    committed : int;
    aborted : int;
    duration : float;  (** first arrival to last completion (sim time) *)
    throughput : float;  (** commits per simulated second *)
    abort_rate : float;
    commit_latency_p50 : float;
    commit_latency_p95 : float;
    commit_latency_p99 : float;
    commit_latency_mean : float;
    lock_hold_p50 : float;
    lock_hold_p95 : float;
    lock_hold_p99 : float;
    lock_wait_mean : float;  (** mean lock-queue wait per transaction *)
    lock_waits : int;  (** grants that had to queue *)
    flows : int;
    data_flows : int;
    flows_per_commit : float;
    tm_writes : int;
    tm_forced : int;
    force_ios : int;
    force_ios_per_commit : float;
    consistency_violations : int;
    phase_latency : (string * Obs.Histogram.summary) list;
        (** per 2PC phase (voting, in-doubt, decision, phase-two, ...):
            time-in-phase distribution across all nodes and transactions,
            from the participants' streaming histograms *)
  }

  let ratio num den = if den = 0 then 0.0 else num /. float_of_int den

  let finite f = if Float.is_nan f then 0.0 else f

  let summary_to_json (s : Obs.Histogram.summary) =
    Json.Obj
      [
        ("count", Json.Int s.s_count);
        ("mean", Json.Float (finite s.s_mean));
        ("min", Json.Float (finite s.s_min));
        ("max", Json.Float (finite s.s_max));
        ("p50", Json.Float (finite s.s_p50));
        ("p95", Json.Float (finite s.s_p95));
        ("p99", Json.Float (finite s.s_p99));
      ]

  let to_json_value t =
    Json.Obj
      [
        ("label", Json.String t.label);
        ("concurrency", Json.Int t.concurrency);
        ("txns", Json.Int t.txns);
        ("committed", Json.Int t.committed);
        ("aborted", Json.Int t.aborted);
        ("duration", Json.Float t.duration);
        ("throughput", Json.Float t.throughput);
        ("abort_rate", Json.Float t.abort_rate);
        ("commit_latency_p50", Json.Float t.commit_latency_p50);
        ("commit_latency_p95", Json.Float t.commit_latency_p95);
        ("commit_latency_p99", Json.Float t.commit_latency_p99);
        ("commit_latency_mean", Json.Float t.commit_latency_mean);
        ("lock_hold_p50", Json.Float t.lock_hold_p50);
        ("lock_hold_p95", Json.Float t.lock_hold_p95);
        ("lock_hold_p99", Json.Float t.lock_hold_p99);
        ("lock_wait_mean", Json.Float t.lock_wait_mean);
        ("lock_waits", Json.Int t.lock_waits);
        ("flows", Json.Int t.flows);
        ("data_flows", Json.Int t.data_flows);
        ("flows_per_commit", Json.Float t.flows_per_commit);
        ("tm_writes", Json.Int t.tm_writes);
        ("tm_forced", Json.Int t.tm_forced);
        ("force_ios", Json.Int t.force_ios);
        ("force_ios_per_commit", Json.Float t.force_ios_per_commit);
        ("consistency_violations", Json.Int t.consistency_violations);
        ( "phase_latency",
          Json.Obj
            (List.map (fun (ph, s) -> (ph, summary_to_json s)) t.phase_latency)
        );
      ]

  let to_json t = Json.to_string (to_json_value t)

  let pp ppf t =
    Format.fprintf ppf
      "@[<v>%s x%d: %d txns, %d committed, %d aborted@,\
       throughput: %.4f commits/s, abort rate: %.3f@,\
       commit latency p50/p95/p99: %.2f / %.2f / %.2f@,\
       lock hold p50/p95/p99: %.2f / %.2f / %.2f@,\
       flows/commit: %.2f, force I/Os/commit: %.2f@,\
       consistency violations: %d@]"
      t.label t.concurrency t.txns t.committed t.aborted t.throughput
      t.abort_rate t.commit_latency_p50 t.commit_latency_p95
      t.commit_latency_p99 t.lock_hold_p50 t.lock_hold_p95 t.lock_hold_p99
      t.flows_per_commit t.force_ios_per_commit t.consistency_violations
end

let pp ppf t =
  Format.fprintf ppf
    "@[<v>outcome: %s%s@,\
     flows: %d (+%d data)@,\
     log writes: %d (%d forced), %d force I/Os@,\
     completion: %s, quiesce: %.2f@,\
     lock release (mean/max): %s / %s@,\
     heuristics: %d, damage reports: %d@]"
    (match t.outcome with
    | Some o -> Types.outcome_to_string o
    | None -> "(never completed)")
    (if t.pending then " (outcome pending)" else "")
    t.flows t.data_flows t.tm_writes t.tm_forced t.force_ios
    (match t.completion_time with
    | Some c -> Printf.sprintf "%.2f" c
    | None -> "-")
    t.quiesce_time
    (match t.mean_lock_release with
    | Some v -> Printf.sprintf "%.2f" v
    | None -> "-")
    (match t.max_lock_release with
    | Some v -> Printf.sprintf "%.2f" v
    | None -> "-")
    t.heuristics
    (List.length t.damage_reports)
