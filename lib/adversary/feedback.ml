module Ratio = Aqt_util.Ratio
module Sim = Aqt_engine.Sim
module Network = Aqt_engine.Network
module P = Aqt_engine.Packet
module Digraph = Aqt_graph.Digraph

let route_cost queues route =
  Array.fold_left (fun acc e -> acc + queues.(e)) 0 route

(* Greedy water-filling: each released packet takes the candidate route
   with the least total backlog, counting the virtual load of the packets
   already placed this step (so a same-step batch spreads out instead of
   piling onto one momentarily-idle route).  Ties break to the lowest pool
   index — a pure function of (queues, pool, n), which is what lets the
   differential arms re-derive identical choices from identical states. *)
let assign ~queues ~pool n =
  if Array.length pool = 0 then invalid_arg "Feedback.assign: empty pool";
  let load = Array.copy queues in
  List.init n (fun _ ->
      let best = ref 0 and best_cost = ref max_int in
      Array.iteri
        (fun i route ->
          let c = route_cost load route in
          if c < !best_cost then begin
            best := i;
            best_cost := c
          end)
        pool;
      let route = pool.(!best) in
      Array.iter (fun e -> load.(e) <- load.(e) + 1) route;
      route)

let should_truncate ~(queues : int array) ~(hot : int) ~edge ~remaining =
  remaining > 1 && queues.(edge) >= hot

type t = {
  name : string;
  rate : Ratio.t;
  pool : int array array;
  hot : int;
  driver : Sim.driver;
}

let queues_of net =
  let m = Digraph.n_edges (Network.graph net) in
  Array.init m (Network.buffer_len net)

let make ?(name = "feedback") ~rate ~pool ~hot ~horizon () =
  if Array.length pool = 0 then invalid_arg "Feedback.make: empty route pool";
  if hot < 1 then invalid_arg "Feedback.make: hot threshold must be >= 1";
  (* One aggregate-rate bucket releases packets; the route of each release
     is chosen online.  Admissibility is therefore independent of the
     choice rule: every edge's interval count is bounded by the total
     release count, which is floor-discretized at [rate]. *)
  let counter = Flow.make ~route:pool.(0) ~rate ~start:1 ~stop:horizon () in
  (* The Sim hook hands us the start-of-step queue vector; when the driver
     is stepped outside Sim (no hook call), reading the network directly
     is equivalent, because both hooks run before the step's forwards and
     truncation never changes queue lengths. *)
  let snapshot = ref None in
  let queues net t =
    match !snapshot with
    | Some (t', qs) when t' = t -> qs
    | _ -> queues_of net
  in
  let driver =
    {
      Sim.observe_queues = Some (fun qs t -> snapshot := Some (t, qs));
      before_step =
        (fun net t ->
          let qs = queues net t in
          let victims = ref [] in
          Network.iter_buffered
            (fun p ->
              if
                should_truncate ~queues:qs ~hot ~edge:(P.current_edge p)
                  ~remaining:(P.remaining p)
              then victims := p :: !victims)
            net;
          List.iter (fun p -> Network.reroute net p [||]) !victims);
      injections_at =
        (fun net t ->
          let n = Flow.cumulative counter t - Flow.cumulative counter (t - 1) in
          if n = 0 then []
          else
            List.map
              (fun route : Network.injection -> { route; tag = name })
              (assign ~queues:(queues net t) ~pool n));
    }
  in
  { name; rate; pool; hot; driver }
