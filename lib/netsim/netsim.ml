module Make (P : sig
  type t
end) =
struct
  type handler = src:string -> P.t list -> unit

  type node_state = {
    name : string;
    mutable handler : handler;
    mutable up : bool;
    mutable sent : int;
    mutable received : int;
    mutable sent_to : int array;
        (* messages sent to each node, by destination index: the per-link
           sequence number [drop_nth] counts from *)
  }

  type t = {
    engine : Simkernel.Engine.t;
    default_latency : float;
    nodes : (string, int) Hashtbl.t; (* name -> index into node_arr *)
    mutable node_arr : node_state array;
    mutable n_nodes : int;
    latencies : (string * string, float) Hashtbl.t;
    directed_latencies : (string * string, float) Hashtbl.t;
    partitions : (string * string, unit) Hashtbl.t;
    drops : (string * string, int list ref) Hashtbl.t;
    mutable jitter : (src:string -> dst:string -> float) option;
    mutable mutator : (src:string -> dst:string -> P.t list -> P.t list) option;
    mutable total_flows : int;
    (* In-flight payload bundles live in a freelist-chained slot arena so a
       delivery schedules as a flat event (kind + int slots), not a closure.
       [inflight_next.(s)] chains free slots; [-1] terminates. *)
    deliver : Simkernel.Engine.kind;
    mutable inflight : P.t list array;
    mutable inflight_next : int array;
    mutable inflight_free : int;
  }

  let no_node =
    {
      name = "";
      handler = (fun ~src:_ _ -> ());
      up = false;
      sent = 0;
      received = 0;
      sent_to = [||];
    }

  (* Fired by the engine for every delivery: a0 = payload slot, a1 = dst
     index, a2 = src index.  The slot is released before the handler runs so
     re-entrant sends can reuse it. *)
  let deliver_flat t slot dst src =
    let payloads = t.inflight.(slot) in
    t.inflight.(slot) <- [];
    t.inflight_next.(slot) <- t.inflight_free;
    t.inflight_free <- slot;
    let d = t.node_arr.(dst) in
    if d.up then begin
      d.received <- d.received + 1;
      d.handler ~src:t.node_arr.(src).name payloads
    end

  let create engine ?(default_latency = 1.0) () =
    let cap = 64 in
    let tref = ref None in
    let deliver =
      Simkernel.Engine.register_kind engine ~name:"net.deliver"
        (fun a0 a1 a2 _ ->
          match !tref with Some t -> deliver_flat t a0 a1 a2 | None -> ())
    in
    let t =
      {
        engine;
        default_latency;
        nodes = Hashtbl.create 16;
        node_arr = Array.make 8 no_node;
        n_nodes = 0;
        latencies = Hashtbl.create 16;
        directed_latencies = Hashtbl.create 4;
        partitions = Hashtbl.create 4;
        drops = Hashtbl.create 4;
        jitter = None;
        mutator = None;
        total_flows = 0;
        deliver;
        inflight = Array.make cap [];
        inflight_next = Array.init cap (fun i -> if i = cap - 1 then -1 else i + 1);
        inflight_free = 0;
      }
    in
    tref := Some t;
    t

  let engine t = t.engine

  let inflight_alloc t payloads =
    if t.inflight_free = -1 then begin
      let cap = Array.length t.inflight in
      let cap' = 2 * cap in
      let inflight = Array.make cap' [] in
      Array.blit t.inflight 0 inflight 0 cap;
      let next = Array.init cap' (fun i -> if i = cap' - 1 then -1 else i + 1) in
      Array.blit t.inflight_next 0 next 0 cap;
      t.inflight <- inflight;
      t.inflight_next <- next;
      t.inflight_free <- cap
    end;
    let s = t.inflight_free in
    t.inflight_free <- t.inflight_next.(s);
    t.inflight.(s) <- payloads;
    s

  let node_index t name =
    match Hashtbl.find t.nodes name with
    | i -> i
    | exception Not_found ->
        invalid_arg (Printf.sprintf "netsim: unknown node %S" name)

  let node_state t name = t.node_arr.(node_index t name)

  let add_node t name handler =
    if Hashtbl.mem t.nodes name then
      invalid_arg (Printf.sprintf "netsim: duplicate node %S" name);
    if t.n_nodes = Array.length t.node_arr then begin
      let bigger = Array.make (2 * t.n_nodes) no_node in
      Array.blit t.node_arr 0 bigger 0 t.n_nodes;
      t.node_arr <- bigger
    end;
    t.node_arr.(t.n_nodes) <-
      { name; handler; up = true; sent = 0; received = 0; sent_to = [||] };
    Hashtbl.replace t.nodes name t.n_nodes;
    t.n_nodes <- t.n_nodes + 1

  let set_handler t name handler = (node_state t name).handler <- handler

  let pair a b = if a <= b then (a, b) else (b, a)

  let set_latency t a b l = Hashtbl.replace t.latencies (pair a b) l

  let set_latency_directed t ~src ~dst l =
    Hashtbl.replace t.directed_latencies (src, dst) l

  (* The fault and topology tables are empty in a fault-free run: each
     lookup is skipped then, so a flow builds no (src, dst) key. *)
  let latency t a b =
    let directed =
      if Hashtbl.length t.directed_latencies = 0 then None
      else Hashtbl.find_opt t.directed_latencies (a, b)
    in
    match directed with
    | Some l -> l
    | None when Hashtbl.length t.latencies = 0 -> t.default_latency
    | None ->
        Option.value (Hashtbl.find_opt t.latencies (pair a b))
          ~default:t.default_latency

  let set_jitter t f = t.jitter <- f
  let set_mutator t f = t.mutator <- f

  let partition t a b = Hashtbl.replace t.partitions (pair a b) ()
  let heal t a b = Hashtbl.remove t.partitions (pair a b)
  let partitioned t a b =
    Hashtbl.length t.partitions > 0 && Hashtbl.mem t.partitions (pair a b)

  let sent_on s di = if di < Array.length s.sent_to then s.sent_to.(di) else 0

  (* Count one more message on the link [s] -> [di] and return its sequence
     number. *)
  let bump_sent s di =
    if di >= Array.length s.sent_to then begin
      let bigger = Array.make (max 8 (2 * (di + 1))) 0 in
      Array.blit s.sent_to 0 bigger 0 (Array.length s.sent_to);
      s.sent_to <- bigger
    end;
    let seq = s.sent_to.(di) + 1 in
    s.sent_to.(di) <- seq;
    seq

  let drop_nth t ~src ~dst ~nth =
    if nth < 1 then invalid_arg "netsim: drop_nth expects nth >= 1";
    let sent =
      match (Hashtbl.find_opt t.nodes src, Hashtbl.find_opt t.nodes dst) with
      | Some si, Some di -> sent_on t.node_arr.(si) di
      | _ -> 0 (* no registered node sends on this link *)
    in
    let drops =
      match Hashtbl.find_opt t.drops (src, dst) with
      | Some r -> r
      | None ->
          let r = ref [] in
          Hashtbl.replace t.drops (src, dst) r;
          r
    in
    drops := (sent + nth) :: !drops

  let crash_node t name = (node_state t name).up <- false
  let restart_node t name = (node_state t name).up <- true
  let is_up t name = (node_state t name).up

  let send t ~src ~dst payloads =
    let si = node_index t src in
    let di = node_index t dst in
    let s = t.node_arr.(si) in
    if (not s.up) || partitioned t src dst then false
    else begin
      (* The message left the source: it is a flow whether or not it arrives. *)
      t.total_flows <- t.total_flows + 1;
      s.sent <- s.sent + 1;
      let seq = bump_sent s di in
      let lost =
        Hashtbl.length t.drops > 0
        &&
        match Hashtbl.find_opt t.drops (src, dst) with
        | Some drops when List.mem seq !drops ->
            drops := List.filter (fun n -> n <> seq) !drops;
            true
        | _ -> false
      in
      if not lost then begin
        (* adversarial relay: a mutator may rewrite the payload bundle in
           flight (equivocation, vote flipping).  The sender's trace already
           recorded what it believes it sent. *)
        let payloads =
          match t.mutator with
          | None -> payloads
          | Some f -> f ~src ~dst payloads
        in
        let l =
          latency t src dst
          +.
          match t.jitter with
          | None -> 0.0
          | Some f -> Float.max 0.0 (f ~src ~dst)
        in
        let slot = inflight_alloc t payloads in
        ignore
          (Simkernel.Engine.schedule_flat t.engine ~delay:l ~kind:t.deliver
             ~a0:slot ~a1:di ~a2:si)
      end;
      true
    end

  (* A fabricated message: it never left [src] (no sent counter, no flow,
     no drop bookkeeping) but arrives at [dst] claiming to be from [src]
     after the link's base latency.  Partitions do not stop it - the
     adversary is on the wire, not at the (possibly partitioned) source. *)
  let inject t ~src ~dst payloads =
    let di = node_index t dst in
    let l = latency t src dst in
    match Hashtbl.find_opt t.nodes src with
    | Some si ->
        let slot = inflight_alloc t payloads in
        ignore
          (Simkernel.Engine.schedule_flat t.engine ~delay:l ~kind:t.deliver
             ~a0:slot ~a1:di ~a2:si)
    | None ->
        (* a forged sender need not be a registered node; the claimed name
           travels in a closure instead of the flat src index *)
        let d = t.node_arr.(di) in
        ignore
          (Simkernel.Engine.schedule t.engine ~delay:l (fun () ->
               if d.up then begin
                 d.received <- d.received + 1;
                 d.handler ~src payloads
               end))

  let flows t = t.total_flows
  let sent_by t name = (node_state t name).sent
  let received_by t name = (node_state t name).received

  let reset_stats t =
    t.total_flows <- 0;
    for i = 0 to t.n_nodes - 1 do
      let s = t.node_arr.(i) in
      s.sent <- 0;
      s.received <- 0
    done
end
