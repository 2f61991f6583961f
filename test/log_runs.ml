(* Random runs for the injection-log tests of test_engine and test_soa.

   A line network is driven by random injections, reroutes, capacity drops
   (drop-tail or drop-head) and, on the record engine, exogenous noise.
   The test keeps its own entry for every packet: injections are matched
   to the network's [Injected] tracer events (adversary injections come
   before exogenous ones within a step), and every reroute updates the
   entry's route.  The reference logs then follow the rule the engines
   must agree with: collect every logged entry, sort by (time, id). *)

module B = Aqt_graph.Build
module N = Aqt_engine.Network
module Soa = Aqt_engine.Soa
module Trace = Aqt_engine.Trace
module Packet = Aqt_engine.Packet
module Capacity = Aqt_capacity.Model
module Policies = Aqt_policy.Policies
module Prng = Aqt_util.Prng

type entry = {
  time : int;
  id : int;
  initial : bool;
  exogenous : bool;
  mutable route : int array;
}

type run = {
  net : N.t;
  soa : Soa.t option;  (** driven with the same decisions, if asked for *)
  entries : entry array;  (** one per packet, by id *)
}

let edges = 8

let capacity prng =
  let speedup = 1 + Prng.int prng 2 in
  let cap = 1 + Prng.int prng 3 in
  match Prng.int prng 3 with
  | 0 -> Capacity.make ~speedup Capacity.Unbounded
  | 1 -> Capacity.uniform ~policy:Capacity.Drop_tail ~speedup cap
  | _ -> Capacity.uniform ~policy:Capacity.Drop_head ~speedup cap

let run ?soa_domains ~exogenous ~seed ~steps () =
  let prng = Prng.create seed in
  let l = B.line edges in
  let segment () =
    let a = Prng.int prng edges in
    let b = a + Prng.int prng (edges - a) in
    Array.sub l.edges a (b - a + 1)
  in
  let policy = if Prng.bool prng then Policies.fifo else Policies.lifo in
  let capacity = capacity prng in
  let table = Hashtbl.create 64 in
  let add e = Hashtbl.replace table e.id e in
  (* This step's injections, in the order the network injects them. *)
  let expected = Queue.create () in
  let tracer = function
    | Trace.Injected { t; packet; initial = false; _ } ->
        let route, exogenous = Queue.pop expected in
        add { time = t; id = packet; initial = false; exogenous; route }
    | _ -> ()
  in
  let net =
    N.create ~log_injections:true ~tracer ~capacity ~graph:l.graph ~policy ()
  in
  let soa =
    Option.map
      (fun domains ->
        Soa.create ~log_injections:true ~capacity ~domains ~graph:l.graph
          ~policy ())
      soa_domains
  in
  for _ = 1 to Prng.int prng 6 do
    let route = segment () in
    let p = N.place_initial net route in
    add { time = 0; id = p.id; initial = true; exogenous = false; route };
    Option.iter (fun s -> ignore (Soa.place_initial s route)) soa
  done;
  let inj route : N.injection = { route; tag = "t" } in
  for _ = 1 to steps do
    (* Reroute a third of one edge's packets onto the next k edges (k = 0
       ends their route at that edge). *)
    let at = Prng.int prng edges in
    let k = Prng.int prng (edges - at) in
    let suffix = Array.sub l.edges (at + 1) k in
    let third = Prng.int prng 3 in
    List.iter
      (fun (p : Packet.t) ->
        if p.id mod 3 = third then begin
          N.reroute net p suffix;
          (Hashtbl.find table p.id).route <- p.route
        end)
      (N.buffer_packets net l.edges.(at));
    Option.iter
      (fun s ->
        Soa.reroute_where s
          (fun ~id ~edge ~remaining:_ ->
            edge = l.edges.(at) && id mod 3 = third)
          suffix)
      soa;
    let routes = List.init (Prng.int prng 4) (fun _ -> segment ()) in
    let noise =
      if exogenous then List.init (Prng.int prng 3) (fun _ -> segment ())
      else []
    in
    List.iter (fun r -> Queue.push (r, false) expected) routes;
    List.iter (fun r -> Queue.push (r, true) expected) noise;
    N.step net ~exogenous:(List.map inj noise) (List.map inj routes);
    Option.iter (fun s -> Soa.step s (List.map inj routes)) soa
  done;
  let entries =
    Array.init (Hashtbl.length table) (fun id -> Hashtbl.find table id)
  in
  { net; soa; entries }

(* The old rule: every logged entry of the kind, sorted by (time, id). *)
let sorted_entries r ~initial =
  let selected =
    Array.of_list
      (List.filter
         (fun e -> e.initial = initial && not e.exogenous)
         (Array.to_list r.entries))
  in
  Array.sort (fun a b -> compare (a.time, a.id) (b.time, b.id)) selected;
  selected

let reference_log r =
  Array.map (fun e -> (e.time, e.route)) (sorted_entries r ~initial:false)

let reference_initials r =
  Array.map (fun e -> e.route) (sorted_entries r ~initial:true)

let times_follow_ids r =
  let ok = ref true in
  Array.iteri
    (fun i e -> if i > 0 && e.time < r.entries.(i - 1).time then ok := false)
    r.entries;
  !ok
