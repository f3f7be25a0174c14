(** Per-run result summary: the paper's three evaluation axes (message
    flows, log writes, resource lock time) plus outcome/heuristic data. *)

type t = {
  outcome : Types.outcome option;  (** [None]: the root never completed *)
  pending : bool;  (** wait-for-outcome: completed with outcome pending *)
  flows : int;  (** protocol message flows (paper convention) *)
  data_flows : int;  (** application-data messages (carry piggybacks) *)
  tm_writes : int;  (** transaction-manager log writes *)
  tm_forced : int;  (** ... of which forced *)
  force_ios : int;  (** physical force I/Os over all logs (group commit) *)
  completion_time : float option;  (** root application told the outcome *)
  quiesce_time : float;  (** last event in the run *)
  mean_lock_release : float option;
      (** mean over members of the time their locks were released *)
  max_lock_release : float option;
  heuristics : int;
  damage_reports : (string * string) list;  (** (damaged node, reported to) *)
}

val of_run :
  trace:Trace.t ->
  wals:Wal.Log.t list ->
  root:string ->
  outcome:Types.outcome option ->
  pending:bool ->
  quiesce_time:float ->
  t
(** Summarize one run.  [flows], [data_flows], [tm_writes] and [tm_forced]
    come from the trace's counters, so they hold in both trace modes; the
    timeline fields ([completion_time], lock releases, [heuristics],
    [damage_reports]) read the retained events and are empty on a
    counter-only trace. *)

val counts : t -> Cost_model.counts

val percentile : float list -> float -> float
(** [percentile samples p] is the nearest-rank [p]-th percentile of the
    (unsorted) sample list; [nan] on an empty list.  This is the exact
    reference implementation the streaming [Obs.Histogram] approximates.
    For several percentiles of one sample set, use {!percentiles} (or
    {!sorted_samples} + {!percentile_of_sorted}) so the sort is paid
    once. *)

val percentiles : float list -> float list -> float list
(** [percentiles samples ps] sorts once and answers every requested
    percentile. *)

val sorted_samples : float list -> float array
(** Sort once, query many times with {!percentile_of_sorted}. *)

val percentile_of_sorted : float array -> float -> float

val to_json : t -> string
(** Compact single-line JSON object; parses with {!Json.parse}. *)

val pp : Format.formatter -> t -> unit

(** Aggregate results over a concurrent multi-transaction run (the mixer's
    return value): the paper's per-commit axes re-expressed as throughput,
    latency percentiles and per-commit averages. *)
module Agg : sig
  type t = {
    label : string;
        (** optimization-set label, e.g. ["read-only+shared-log"] *)
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

  val ratio : float -> int -> float
  (** [ratio num den] is [num /. den], or [0.] when [den = 0]. *)

  val summary_to_json : Obs.Histogram.summary -> Json.t
  (** NaNs (empty histograms) serialize as [0.0]. *)

  val to_json_value : t -> Json.t
  val to_json : t -> string
  val pp : Format.formatter -> t -> unit
end
