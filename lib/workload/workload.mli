(** Workload generators: commit-tree shapes and member-property mixes for
    the benches and the randomized tests.

    Table 3 of the paper analyses a transaction with [n] members of which
    [m] follow one optimization; these helpers build such trees in the
    shapes the analysis assumes and in the shapes the peer-to-peer
    discussion motivates. *)

val flat :
  ?decorate:(int -> Tpc.Types.profile -> Tpc.Types.profile) ->
  n:int ->
  unit ->
  Tpc.Types.tree
(** Coordinator with [n-1] leaf subordinates; [decorate i p] may adjust the
    profile of subordinate [i] (0-based).  Raises [Invalid_argument] when
    [n < 1]. *)

val chain :
  ?decorate:(int -> Tpc.Types.profile -> Tpc.Types.profile) ->
  n:int ->
  unit ->
  Tpc.Types.tree
(** A chain of cascaded coordinators of total size [n]. *)

val flat_with_delegation_chain : n:int -> m:int -> unit -> Tpc.Types.tree
(** Flat tree whose final [m] members form a delegation chain off the
    coordinator: the Table 3 shape for the last-agent row (each last agent
    picks one of its subordinates as its own last agent).  Requires
    [m < n]. *)

val random_tree : ?fanout:int -> seed:int -> n:int -> unit -> Tpc.Types.tree
(** Uniform random tree over [n] members with maximum [fanout] (default 4);
    deterministic in [seed]. *)

(** {2 Property mixes}

    Decorations marking the first [m] subordinates of a flat tree as
    followers of one optimization. *)

val read_only_mix : m:int -> int -> Tpc.Types.profile -> Tpc.Types.profile
val reliable_mix : m:int -> int -> Tpc.Types.profile -> Tpc.Types.profile
val unsolicited_mix : m:int -> int -> Tpc.Types.profile -> Tpc.Types.profile
val leave_out_mix : m:int -> int -> Tpc.Types.profile -> Tpc.Types.profile
val shared_log_mix : m:int -> int -> Tpc.Types.profile -> Tpc.Types.profile
val long_locks_mix : m:int -> int -> Tpc.Types.profile -> Tpc.Types.profile

(** {2 Table 3 experiment} *)

val table3_tree : Tpc.Cost_model.optimization -> n:int -> m:int -> Tpc.Types.tree
(** The commit tree for one Table 3 row: flat with [m] members following
    the optimization (a delegation chain for the last-agent row). *)

val table3_opt_variant : Tpc.Cost_model.optimization -> Tpc.Types.opt
(** The {!Tpc.Types.opt} switch for one Table 3 optimization. *)

val table3_opts : Tpc.Cost_model.optimization -> Tpc.Types.opts
(** The protocol switches that activate one optimization. *)

val run_table3 :
  ?protocol:Tpc.Types.protocol ->
  Tpc.Cost_model.optimization ->
  n:int ->
  m:int ->
  Tpc.Cost_model.counts
(** Run the Table 3 experiment for one optimization and return the
    simulated (flows, writes, forced) counts.  With [m = 0] the
    optimization is switched off entirely. *)

(** {2 Table 4 and group commit}

    Streams of transactions between two members [C] (coordinator) and [S]
    (subordinate), both updating. *)

(** The three rows of Table 4:
    - {!Chain_basic}: the Basic protocol, full Prepare / Vote / Commit / Ack
      per transaction: [4r] flows;
    - {!Chain_long_locks}: PA with long locks; the subordinate withholds its
      acknowledgment and sends it with the data message beginning the next
      transaction: [3r] protocol flows plus [r] data flows;
    - {!Chain_long_locks_last_agent}: long locks with the peers alternating
      as last agent, two transactions per three flows ({!Tpc.Stream}). *)
type chain_mode = Chain_basic | Chain_long_locks | Chain_long_locks_last_agent

val chain_mode_to_string : chain_mode -> string

val run_chain : ?latency:float -> chain_mode -> r:int -> Tpc.Run.stream
(** Run [r] transactions chained as Table 4 assumes ("with small delays
    between them"): each starts when the root reports the previous one's
    outcome.  [latency] (default 1.0) is the one-way message delay. *)

val run_group_commit :
  ?timeout:float ->
  ?stagger:float ->
  n:int ->
  group_size:int ->
  unit ->
  Tpc.Run.stream
(** [n] PA transactions started [stagger] (default 0.1) apart, so that
    their coordinator sides share one log and their subordinate sides
    another; with [group_size > 1] each log batches force requests up to
    [group_size] or until [timeout] (default 5.0) elapses.  Every
    transaction issues three forced writes ([totals.tm_forced]); the
    batching shows in [totals.force_ios] and its cost in the latencies. *)

(** {2 Mixer sweeps} *)

val mixer_tree : ?n:int -> opts:Tpc.Types.opt list -> unit -> Tpc.Types.tree
(** Flat [n]-member tree for a {!Tpc.Mixer} run: the member-property side of
    each listed optimization (shared logs, long locks, reliable votes,
    unsolicited votes, suspendable servers) is applied to every
    subordinate.  Defaults to [n = 4]. *)

(** {2 Lock-contention experiment}

    Section 1's throughput claim: "a faster commit protocol can improve
    transaction throughput ... by causing locks to be released sooner,
    reducing the wait time of other transactions."  The experiment runs one
    distributed transaction and a stream of local intruder transactions at
    one member that want the key the distributed transaction holds; it
    measures how long the intruders wait for the lock under a given
    configuration. *)

type contention_result = {
  ct_intruders : int;          (** intruders that eventually got the lock *)
  ct_mean_wait : float;
  ct_max_wait : float;
  ct_commit_outcome : Tpc.Types.outcome option;
}

val contention_experiment :
  ?config:Tpc.Types.config ->
  ?arrivals:float list ->
  victim:string ->
  Tpc.Types.tree ->
  contention_result
(** Run one commit over [tree] while intruder transactions arrive at member
    [victim] (at the given virtual times, default [[0.5; 1.0; 1.5]]) wanting
    the exact key the distributed transaction locks there.  Each intruder
    commits as soon as its lock is granted, releasing it for the next. *)
