(** The long-locks + last-agent pairing of Table 4's third row and of the
    Figure 7 discussion: [r] chained transactions between two members,
    committed two at a time in three flows.

    Table 4's other rows run through {!Participant} (see
    {!Run.commit_stream}).  This one cannot: within each pair the two peers
    swap the coordinator and last-agent roles, and {!Participant} classifies
    every sender as parent, child or stranger by the static commit tree
    before it admits a message - a per-transaction role swap would loosen
    that safety check.  So this module drives the flow and log schedule
    directly over two write-ahead logs, a latency-delayed message step and
    the trace used for counting.

    Each pair costs three flows (Vote(t1); Commit(t1)+Vote(t2);
    Commit(t2)+ack(t1), the dangling acknowledgment riding the next pair's
    opener): [3r/2] flows for even [r]; an odd tail transaction costs two. *)

type ctx = {
  engine : Simkernel.Engine.t;
  trace : Trace.t;
  wal_c : Wal.Log.t;
  wal_s : Wal.Log.t;
  latency : float;
  mutable lock_spans : float list;  (* newest first *)
}

let make_ctx ~latency =
  let engine = Simkernel.Engine.create () in
  let wal_config = { Wal.Log.io_latency = 0.5; group = None } in
  {
    engine;
    trace = Trace.create ();
    wal_c = Wal.Log.create engine ~node:"C" ~config:wal_config ();
    wal_s = Wal.Log.create engine ~node:"S" ~config:wal_config ();
    latency;
    lock_spans = [];
  }

let now ctx = Simkernel.Engine.now ctx.engine

let send ctx ~src ~dst ~label ~protocol k =
  Trace.record ctx.trace
    (Trace.Send { time = now ctx; src; dst; label; protocol });
  ignore (Simkernel.Engine.schedule ctx.engine ~delay:ctx.latency (fun () -> k ()))

let force ctx wal ~txn kind k =
  let node = Wal.Log.node wal in
  Trace.record ctx.trace
    (Trace.Log_write { time = now ctx; node; kind; forced = true; rm = false });
  Wal.Log.force wal (Wal.Log_record.make ~txn ~node kind) k

let append ctx wal ~txn kind =
  let node = Wal.Log.node wal in
  Trace.record ctx.trace
    (Trace.Log_write { time = now ctx; node; kind; forced = false; rm = false });
  Wal.Log.append wal (Wal.Log_record.make ~txn ~node kind)

let note_lock_span ctx ~since =
  ctx.lock_spans <- (now ctx -. since) :: ctx.lock_spans

(* ------------------------------------------------------------------ *)
(* Long locks + last agent: pairs of transactions in three flows       *)
(* (Figure 7: "commit two transactions in three steps")                *)
(* ------------------------------------------------------------------ *)

(* Within a pair the peers swap roles: the pair initiator [a] delegates t_i
   to [b]; [b] commits t_i, immediately opens t_{i+1} as its coordinator and
   delegates it back to [a] in the same flow; [a]'s commit of t_{i+1} rides
   the third flow together with the implied acknowledgment of t_i.  The
   acknowledgment [b] owes for t_{i+1} rides the next pair's opening flow. *)
let rec ll_last_agent_pair ctx i r ~initiator_is_c k =
  if i > r then k ()
  else begin
    let t1 = Printf.sprintf "t%d" i in
    let t2 = if i + 1 <= r then Some (Printf.sprintf "t%d" (i + 1)) else None in
    let a, wal_a, b, wal_b =
      if initiator_is_c then ("C", ctx.wal_c, "S", ctx.wal_s)
      else ("S", ctx.wal_s, "C", ctx.wal_c)
    in
    let locked_at = now ctx in
    (* flow 1: a prepares itself and hands b the decision for t1 *)
    force ctx wal_a ~txn:t1 Wal.Log_record.Prepared (fun () ->
        send ctx ~src:a ~dst:b ~label:"Vote YES (you decide)" ~protocol:true
          (fun () ->
            (* b decides t1 and, if there is a t2, opens it and delegates it
               back to a in the same flow *)
            force ctx wal_b ~txn:t1 Wal.Log_record.Committed (fun () ->
                match t2 with
                | None ->
                    (* odd tail: only Commit(t1) flows back *)
                    send ctx ~src:b ~dst:a ~label:"Commit" ~protocol:true
                      (fun () ->
                        force ctx wal_a ~txn:t1 Wal.Log_record.Committed
                          (fun () ->
                            append ctx wal_a ~txn:t1 Wal.Log_record.End;
                            (* implied ack for b's commit record *)
                            send ctx ~src:a ~dst:b ~label:"Data + implied Ack"
                              ~protocol:false (fun () ->
                                append ctx wal_b ~txn:t1 Wal.Log_record.End;
                                note_lock_span ctx ~since:locked_at;
                                k ())))
                | Some t2 ->
                    force ctx wal_b ~txn:t2 Wal.Log_record.Prepared (fun () ->
                        (* flow 2: Commit(t1) + Vote YES(t2, you decide) *)
                        send ctx ~src:b ~dst:a
                          ~label:"Commit(t1) + Vote YES(t2, you decide)"
                          ~protocol:true (fun () ->
                            force ctx wal_a ~txn:t1 Wal.Log_record.Committed
                              (fun () ->
                                append ctx wal_a ~txn:t1 Wal.Log_record.End;
                                (* a decides t2 *)
                                force ctx wal_a ~txn:t2
                                  Wal.Log_record.Committed (fun () ->
                                    append ctx wal_a ~txn:t2 Wal.Log_record.End;
                                    (* flow 3: Commit(t2) + implied ack(t1) *)
                                    send ctx ~src:a ~dst:b
                                      ~label:"Commit(t2) + implied Ack(t1)"
                                      ~protocol:true (fun () ->
                                        append ctx wal_b ~txn:t1
                                          Wal.Log_record.End;
                                        force ctx wal_b ~txn:t2
                                          Wal.Log_record.Committed (fun () ->
                                            append ctx wal_b ~txn:t2
                                              Wal.Log_record.End;
                                            note_lock_span ctx ~since:locked_at;
                                            (* b's ack of t2 rides the next
                                               pair's opener (or a trailing
                                               data message at the end) *)
                                            if i + 2 > r then
                                              send ctx ~src:b ~dst:a
                                                ~label:"Data + implied Ack(t2)"
                                                ~protocol:false k
                                            else
                                              ll_last_agent_pair ctx (i + 2) r
                                                ~initiator_is_c:
                                                  (not initiator_is_c)
                                                k)))))))))
  end

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let run ?(latency = 1.0) ~r () =
  let ctx = make_ctx ~latency in
  ll_last_agent_pair ctx 1 r ~initiator_is_c:true (fun () -> ());
  Simkernel.Engine.run ctx.engine;
  let duration = now ctx in
  {
    Run.totals =
      Metrics.of_run ~trace:ctx.trace ~wals:[ ctx.wal_c; ctx.wal_s ] ~root:"C"
        ~outcome:(Some Types.Committed) ~pending:false ~quiesce_time:duration;
    duration;
    latencies = List.rev ctx.lock_spans;
    trace = ctx.trace;
  }
