(* Microbenches of each layer's public interface, run at one workload's
   parameters (latencies, group commit, members, keyspace, agenda depth).
   Each reports host ns and allocated words per operation. *)

module E = Simkernel.Engine

type params = {
  config : Tpc.Types.config;
  tree : Tpc.Types.tree;
  keyspace : int;
  queue_depth : int;  (** pending events to keep on the agenda *)
  scratch : bool;  (** build worlds on a recycled engine, as the driver does *)
}

type result = { ns : float; words : float }

(* [f n] performs exactly [n] operations from a fresh state.  A tenth-size
   pass first lets lazy initialization and heap growth settle. *)
let measure ~ops f =
  f (max 1 (ops / 10));
  let w0 = Stats.allocated_words () in
  let t0 = Stats.now_ns () in
  f ops;
  let dt = Stats.since t0 in
  let dw = Stats.allocated_words () -. w0 in
  { ns = dt *. 1e9 /. float_of_int ops; words = dw /. float_of_int ops }

let members p = List.map (fun m -> m.Tpc.Types.p_name) (Tpc.Types.tree_members p.tree)

(* Distinct transaction ids and keys, built outside the timed region the
   way the mixer builds them before a transaction reaches these layers. *)
let txn_ids = lazy (Array.init 400_000 (Printf.sprintf "txn-%d"))
let keys p = Array.init (max 1 p.keyspace) (Printf.sprintf "key-%d")

let engine ~flat p =
  measure ~ops:500_000 (fun ops ->
      let e = E.create () in
      let fired = ref 0 in
      let pop = max 1 (min p.queue_depth ops) in
      let delay i =
        if i land 1 = 0 then p.config.Tpc.Types.latency
        else p.config.Tpc.Types.io_latency
      in
      if flat then begin
        let kind = ref None in
        let k =
          E.register_kind e ~name:"perfbench.tick" (fun a0 _ _ _ ->
              incr fired;
              if !fired <= ops - pop then
                Option.iter
                  (fun k ->
                    ignore
                      (E.schedule_flat e ~delay:(delay a0) ~kind:k ~a0:(a0 + 1)
                         ~a1:0 ~a2:0))
                  !kind)
        in
        kind := Some k;
        for i = 0 to pop - 1 do
          ignore (E.schedule_flat e ~delay:(delay i) ~kind:k ~a0:i ~a1:0 ~a2:0)
        done
      end
      else begin
        let rec tick i () =
          incr fired;
          if !fired <= ops - pop then
            ignore (E.schedule e ~delay:(delay i) (tick (i + 1)))
        in
        for i = 0 to pop - 1 do
          ignore (E.schedule e ~delay:(delay i) (tick i))
        done
      end;
      E.run e)

let send_deliver p =
  let names = members p in
  let root = List.hd names and subs = Array.of_list (List.tl names) in
  let payload = [ Tpc.Msg.Data { txn = "txn-1"; info = "" } ] in
  measure ~ops:200_000 (fun ops ->
      let e = E.create () in
      let net = Tpc.Net.create e ~default_latency:p.config.Tpc.Types.latency () in
      List.iter (fun n -> Tpc.Net.add_node net n (fun ~src:_ _ -> ())) names;
      for i = 0 to ops - 1 do
        ignore
          (Tpc.Net.send net ~src:root ~dst:subs.(i mod Array.length subs) payload);
        if i land 63 = 63 then E.run e
      done;
      E.run e)

let record = Wal.Log_record.make ~txn:"txn-1" ~node:"m0" Wal.Log_record.Rm_update

let wal_log p group =
  let e = E.create () in
  let config = { Wal.Log.io_latency = p.config.Tpc.Types.io_latency; group } in
  (e, Wal.Log.create e ~node:"m0" ~config ())

let wal_append p =
  measure ~ops:200_000 (fun ops ->
      let _, log = wal_log p None in
      for _ = 1 to ops do
        Wal.Log.append log record
      done)

(* Forced writes, issued a batch at a time so each batch can share one
   physical I/O; ns per forced write. *)
let wal_force p group =
  let batch = match group with Some g -> g.Wal.Log.size | None -> 1 in
  measure ~ops:100_000 (fun ops ->
      let e, log = wal_log p group in
      for i = 1 to ops do
        Wal.Log.force log record ignore;
        if i mod batch = 0 then E.run e
      done;
      E.run e)

(* Without group commit in the workload, batch as the hotspot does. *)
let group_of p =
  match p.config.Tpc.Types.group_commit with
  | Some g -> g
  | None -> { Wal.Log.size = 8; timeout = 2.0 }

let acquire_release p =
  let keys = keys p and ids = Lazy.force txn_ids in
  measure ~ops:200_000 (fun ops ->
      let lm = Lockmgr.create (E.create ()) in
      for i = 0 to ops - 1 do
        let txn = ids.(i) in
        Lockmgr.acquire lm ~txn ~key:keys.(i mod Array.length keys)
          Lockmgr.Exclusive ~granted:ignore;
        Lockmgr.release_all lm ~txn
      done)

(* One grant that had to queue: a holder, a waiter, the holder's release
   wakes the waiter. *)
let queued_grant p =
  let keys = keys p and ids = Lazy.force txn_ids in
  measure ~ops:100_000 (fun ops ->
      let lm = Lockmgr.create (E.create ()) in
      for i = 0 to ops - 1 do
        let key = keys.(i mod Array.length keys) in
        let holder = ids.(2 * i) and waiter = ids.((2 * i) + 1) in
        Lockmgr.acquire lm ~txn:holder ~key Lockmgr.Exclusive ~granted:ignore;
        Lockmgr.acquire lm ~txn:waiter ~key Lockmgr.Exclusive ~granted:ignore;
        Lockmgr.release_all lm ~txn:holder;
        Lockmgr.release_all lm ~txn:waiter
      done)

let kv_store p =
  let e, wal = wal_log p None in
  (e, Kvstore.create e ~name:"m0" ~wal ())

let put_commit p =
  let keys = keys p and ids = Lazy.force txn_ids in
  measure ~ops:100_000 (fun ops ->
      let _, kv = kv_store p in
      for i = 0 to ops - 1 do
        let txn = ids.(i) in
        ignore (Kvstore.put kv ~txn ~key:keys.(i mod Array.length keys) ~value:txn);
        Kvstore.commit kv ~txn ~force:false ignore
      done)

(* Restart replay: ns per durable log record read back by [recover]. *)
let recover_ns_per_record p =
  let keys = keys p and ids = Lazy.force txn_ids in
  let e, kv = kv_store p in
  for i = 0 to 1999 do
    let txn = ids.(i) in
    ignore (Kvstore.put kv ~txn ~key:keys.(i mod Array.length keys) ~value:txn);
    Kvstore.prepare kv ~txn ~force:true ignore;
    E.run e;
    Kvstore.commit kv ~txn ~force:true ignore;
    E.run e
  done;
  let records = List.length (Wal.Log.durable (Kvstore.wal kv)) in
  let replays = 20 in
  let t0 = Stats.now_ns () in
  for _ = 1 to replays do
    Kvstore.crash kv;
    Kvstore.recover kv
  done;
  Stats.since t0 *. 1e9 /. float_of_int (replays * records)

let histogram_record () =
  let samples = Array.init 1024 (fun i -> 0.5 +. (1.37 *. float_of_int (i mod 97))) in
  measure ~ops:500_000 (fun ops ->
      let h = Obs.Histogram.create () in
      for i = 0 to ops - 1 do
        Obs.Histogram.record h samples.(i land 1023)
      done)

(* One committed transaction through {!Tpc.Run.commit_sequence}: every
   member updates, trace off. *)
let participant_commit p =
  let ids = Lazy.force txn_ids in
  measure ~ops:2_000 (fun ops ->
      ignore
        (Tpc.Run.commit_sequence ~config:p.config
           ~work:(fun ~txn:_ ~node:_ -> Tpc.Run.Work_update)
           ~txns:(Array.to_list (Array.sub ids 0 ops))
           p.tree))

let world_setup p =
  let scratch = if p.scratch then Some (E.create ()) else None in
  measure ~ops:500 (fun ops ->
      for _ = 1 to ops do
        ignore (Tpc.Run.setup ~config:p.config ?scratch p.tree)
      done)

type all = {
  flat : result;
  closure : result;
  send : result;
  append : result;
  force : result;
  group_force : result;
  acq_rel : result;
  queued : result;
  put : result;
  recover_ns : float;
  hist : result;
  commit : result;
  setup : result;
}

let run_all p =
  {
    flat = engine ~flat:true p;
    closure = engine ~flat:false p;
    send = send_deliver p;
    append = wal_append p;
    force = wal_force p None;
    group_force = wal_force p (Some (group_of p));
    acq_rel = acquire_release p;
    queued = queued_grant p;
    put = put_commit p;
    recover_ns = recover_ns_per_record p;
    hist = histogram_record ();
    commit = participant_commit p;
    setup = world_setup p;
  }
