(* Host-time spans recorded around the benchmark's calls into each layer.
   They stay in memory and are written out once, when the run ends. *)

type span = {
  id : int;
  name : string;
  start : float;  (** host seconds since the recorder was created *)
  stop : float;
  parent : int option;
}

type t = { origin : int64; mutable next : int; mutable spans : span list }

let create () = { origin = Stats.now_ns (); next = 0; spans = [] }
let now t = Stats.since t.origin

let add t ?parent ~name ~start ~stop () =
  let id = t.next in
  t.next <- id + 1;
  t.spans <- { id; name; start; stop; parent } :: t.spans;
  id

(* Time [f], passing it the id its own span will carry, so children can
   name it as their parent before it is recorded. *)
let within t ?parent name f =
  let id = t.next in
  t.next <- id + 1;
  let start = now t in
  let r = f id in
  t.spans <- { id; name; start; stop = now t; parent } :: t.spans;
  r

let spans t = List.rev t.spans
let duration s = s.stop -. s.start

(* Length of the union of [intervals] inside [lo, hi]. *)
let covered intervals ~lo ~hi =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, last) (a, b) ->
        match last with
        | Some (la, lb) when a <= lb -> (total, Some (la, Float.max lb b))
        | Some (la, lb) -> (total +. (lb -. la), Some (a, b))
        | None -> (total, Some (a, b)))
      (0.0, None) clipped
  in
  match last with Some (a, b) -> total +. (b -. a) | None -> total

(** A span's duration minus the part of it its children cover. *)
let self_time all s =
  let children =
    List.filter_map
      (fun c -> if c.parent = Some s.id then Some (c.start, c.stop) else None)
      all
  in
  duration s -. covered children ~lo:s.start ~hi:s.stop

let to_json t =
  let all = spans t in
  Tpc.Json.List
    (List.map
       (fun s ->
         Tpc.Json.Obj
           [
             ("id", Tpc.Json.Int s.id);
             ("name", Tpc.Json.String s.name);
             ("start", Tpc.Json.Float s.start);
             ("end", Tpc.Json.Float s.stop);
             ( "parent",
               match s.parent with Some p -> Tpc.Json.Int p | None -> Tpc.Json.Null );
             ("self", Tpc.Json.Float (self_time all s));
           ])
       all)

let write t path =
  let oc = open_out path in
  output_string oc (Tpc.Json.to_string (to_json t));
  output_char oc '\n';
  close_out oc
