(** The long-locks + last-agent pairing: Table 4's third row and the
    Figure 7 discussion's "commit two transactions in three steps".

    Table 4's other rows, Figure 7 and the group-commit sweep run through
    {!Participant} via {!Run.commit_stream}.  This schedule cannot: within
    each pair the two peers swap the coordinator and last-agent roles, and
    {!Participant} classifies every sender as parent, child or stranger by
    the static commit tree before it admits a message, so a
    per-transaction role swap would loosen that safety check.  The module
    therefore scripts the flows and log writes directly over two
    write-ahead logs. *)

val run : ?latency:float -> r:int -> unit -> Run.stream
(** Run [r] chained transactions between members [C] and [S] in pairs,
    three flows per pair ([3r/2] flows for even [r]; an odd tail
    transaction costs two).  [latency] (default 1.0) is the one-way message
    delay; one force I/O takes 0.5.  [latencies] holds one lock span per
    pair: how long the pair initiator's resources stayed locked.
    [duration] is the time of the last flow. *)
