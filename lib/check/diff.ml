module P = Aqt_engine.Packet
module Network = Aqt_engine.Network
module Soa = Aqt_engine.Soa
module Trace = Aqt_engine.Trace
module Digraph = Aqt_graph.Digraph
module Rate_check = Aqt_adversary.Rate_check
module Feedback = Aqt_adversary.Feedback
module Stability = Aqt.Stability
module Capacity = Aqt_capacity.Model

type mutant =
  | Drop_injection of int
  | Flip_tie_order
  | Skip_reroutes
  | Ignore_capacity
  | Violate_local_budget

type failure = { kind : string; step : int option; detail : string }

let pp_failure fmt f =
  match f.step with
  | Some s -> Format.fprintf fmt "[%s @@ step %d] %s" f.kind s f.detail
  | None -> Format.fprintf fmt "[%s] %s" f.kind f.detail

exception Fail of failure

let fail kind ?step detail = raise (Fail { kind; step; detail })

(* An engine arm as the checks read it.  Every check below is written
   once against this signature and applied to each arm in turn; Network
   and Soa satisfy it through the adapters that follow.  [Ref_model]
   stays concrete: it is what every arm is compared with. *)
module type ENGINE = sig
  type t

  val place_initial : t -> int array -> unit
  val step : t -> Network.injection list -> unit

  val reroute_where :
    t -> (id:int -> edge:int -> remaining:int -> bool) -> int array -> unit
  (** As {!Soa.reroute_where}. *)

  val buffer_len : t -> int -> int
  val buffer_packets : t -> int -> P.view list
  val in_flight : t -> int
  val absorbed : t -> int
  val injected_count : t -> int
  val initial_count : t -> int
  val dropped : t -> int
  val displaced : t -> int
  val occupancy : t -> int
  val peak_occupancy : t -> int
  val max_queue_ever : t -> int
  val max_dwell : t -> int
  val max_pending_dwell : t -> int
  val delivered_latency_max : t -> int
  val delivered_latency_mean : t -> float
  val reroute_count : t -> int
  val max_queue_of_edge : t -> int -> int
  val sent_on_edge : t -> int -> int
  val last_injection_on : t -> int -> int
  val dropped_on_edge : t -> int -> int
  val injection_log : t -> (int * int array) array
end

(* [Soa.reroute_where] for the models that hand out packet records
   ([Network], [Ref_model]).  Victims are collected first, so no rewrite
   runs while the buffers are being walked. *)
let reroute_where iter reroute t pred suffix =
  let victims = ref [] in
  iter
    (fun p ->
      if pred ~id:p.P.id ~edge:(P.current_edge p) ~remaining:(P.remaining p)
      then victims := p :: !victims)
    t;
  List.iter (fun p -> reroute t p suffix) !victims

module Network_arm = struct
  include Network

  let place_initial t route = ignore (place_initial t route)
  let step t injs = step t injs
  let reroute_where = reroute_where iter_buffered reroute
  let buffer_packets t e = List.map P.view (buffer_packets t e)
end

module Soa_arm = struct
  include Soa

  let place_initial t route = ignore (place_initial t route)
end

type arm = Arm : string * (module ENGINE with type t = 'a) * 'a -> arm

let show_route r =
  String.concat ";" (List.map string_of_int (Array.to_list r))

let show_buffer = function
  | [] -> "(empty)"
  | vs ->
      String.concat " | "
        (List.map
           (fun (v : P.view) ->
             Printf.sprintf "#%d inj@%d hop=%d buf@%d route=[%s]" v.v_id
               v.v_injected_at v.v_hop v.v_buffered_at (show_route v.v_route))
           vs)

(* Per step: every buffer, packet by packet against the reference's
   [buffers] (one list per edge, in policy order), then the counters that
   account for the packets. *)
let compare_buffers ~step refm buffers (Arm (arm, (module E), a)) =
  Array.iteri
    (fun e want ->
      let got = E.buffer_packets a e in
      if want <> got then
        fail "divergence" ~step
          (Printf.sprintf "%s arm, edge %d:\n  reference: %s\n  engine:    %s"
             arm e (show_buffer want) (show_buffer got)))
    buffers;
  List.iter
    (fun (name, want, got) ->
      if got <> want then
        fail "divergence" ~step
          (Printf.sprintf "%s arm: %s %d, reference %d" arm name got want))
    [
      ("in_flight", Ref_model.in_flight refm, E.in_flight a);
      ("absorbed", Ref_model.absorbed refm, E.absorbed a);
      ("dropped", Ref_model.dropped refm, E.dropped a);
    ]

(* Capacity-never-exceeded: after every step, each buffer respects its
   static cap and a shared pool respects its total.  Checked against the
   scenario's model, not the arm's (so the ignore-capacity mutant is caught
   here as soon as it overfills a buffer). *)
let check_capacity ~step ~m capacity (Arm (arm, (module E), a)) =
  if not (Capacity.is_unbounded capacity) then begin
    let caps = Capacity.caps capacity ~m in
    for e = 0 to m - 1 do
      if E.buffer_len a e > caps.(e) then
        fail "capacity-exceeded" ~step
          (Printf.sprintf "%s arm: edge %d holds %d packets, cap %d" arm e
             (E.buffer_len a e) caps.(e))
    done;
    let total = Capacity.shared_total capacity in
    if total <> max_int && E.occupancy a > total then
      fail "capacity-exceeded" ~step
        (Printf.sprintf "%s arm: %d packets buffered, shared total %d" arm
           (E.occupancy a) total)
  end

let compare_stats ~m refm (Arm (arm, (module E), a)) =
  let stat name want got =
    if want <> got then
      fail "stat-divergence"
        (Printf.sprintf "%s arm: %s = %d, reference %d" arm name got want)
  in
  let total name r g = stat name (r refm) (g a) in
  total "injected" Ref_model.injected_count E.injected_count;
  total "initials" Ref_model.initial_count E.initial_count;
  total "max_queue" Ref_model.max_queue_ever E.max_queue_ever;
  total "max_dwell" Ref_model.max_dwell E.max_dwell;
  total "max_pending_dwell" Ref_model.max_pending_dwell E.max_pending_dwell;
  total "latency_max" Ref_model.delivered_latency_max E.delivered_latency_max;
  total "reroutes" Ref_model.reroute_count E.reroute_count;
  total "dropped" Ref_model.dropped E.dropped;
  total "displaced" Ref_model.displaced E.displaced;
  total "peak_occupancy" Ref_model.peak_occupancy E.peak_occupancy;
  if Ref_model.delivered_latency_mean refm <> E.delivered_latency_mean a then
    fail "stat-divergence"
      (Printf.sprintf "%s arm: latency_mean %g, reference %g" arm
         (E.delivered_latency_mean a)
         (Ref_model.delivered_latency_mean refm));
  for e = 0 to m - 1 do
    let edge name r g =
      stat (Printf.sprintf "%s %d" name e) (r refm e) (g a e)
    in
    edge "max_queue_of_edge" Ref_model.max_queue_of_edge E.max_queue_of_edge;
    edge "sent_on_edge" Ref_model.sent_on_edge E.sent_on_edge;
    edge "last_injection_on" Ref_model.last_injection_on E.last_injection_on;
    edge "dropped_on_edge" Ref_model.dropped_on_edge E.dropped_on_edge
  done

let compare_logs refm (Arm (arm, (module E), a)) =
  let want = Ref_model.injection_log refm in
  let got = E.injection_log a in
  if Array.length want <> Array.length got then
    fail "injection-log"
      (Printf.sprintf "%s arm: %d entries, reference %d" arm
         (Array.length got) (Array.length want));
  Array.iteri
    (fun i (wt, wr) ->
      let gt, gr = got.(i) in
      if wt <> gt || wr <> gr then
        fail "injection-log"
          (Printf.sprintf
             "%s arm: entry %d is (t=%d, [%s]), reference (t=%d, [%s])" arm i
             gt (show_route gr) wt (show_route wr)))
    want

let check_conservation (Arm (arm, (module E), a)) =
  let made = E.initial_count a + E.injected_count a in
  let accounted = E.absorbed a + E.in_flight a + E.dropped a in
  if made <> accounted then
    fail "conservation"
      (Printf.sprintf
         "%s arm: %d packets created but %d accounted for \
          (absorbed + in flight + dropped)"
         arm made accounted)

(* One model's start of step, the same code for the reference and every
   engine arm.  The reroute pass truncates the route of every buffered
   packet its rule selects at the packet's current edge; truncation is per
   packet, so the order within a model does not matter.  Outside the
   feedback family the rule is fixed (the fast-path tests': [id mod 5 = 2]
   and more than one hop left) and the injections go in as scheduled.  In
   it, each model snapshots its OWN queues BEFORE the reroute pass (the
   state the feedback adversary observes: truncation must not change what
   it saw), then derives from that snapshot both the truncation rule and
   the greedy water-filling routes that replace the step's placeholders,
   with the pure [Feedback] rules.  If a model's queues have drifted, its
   choices drift, and the buffer compare reports the divergence the same
   step. *)
let start_step (scenario : Gen.scenario) ~m ~reroutes ~buffer_len
    ~reroute_where injs =
  match scenario.feedback with
  | None ->
      if reroutes then
        reroute_where
          (fun ~id ~edge:_ ~remaining -> id mod 5 = 2 && remaining > 1)
          [||];
      injs
  | Some { Gen.pool; hot } ->
      let queues = Array.init m buffer_len in
      if reroutes then
        reroute_where
          (fun ~id:_ ~edge ~remaining ->
            Feedback.should_truncate ~queues ~hot ~edge ~remaining)
          [||];
      List.map2
        (fun (inj : Network.injection) route -> { inj with route })
        injs
        (Feedback.assign ~queues ~pool (List.length injs))

(* Trace-level invariants: at most [speedup] forwards per (step, edge), and
   each step's forwarded-edge multiset equals the reference model's — the
   engine is greedy and never idles a backlogged link.  The sorted lists
   compare as multisets, so a speedup-s edge appearing s times on both
   sides matches. *)
let check_trace_invariants ~speedup tr ref_forwards =
  let by_step = Hashtbl.create 64 in
  Array.iter
    (function
      | Trace.Forwarded { t; edge; _ } ->
          let prev = try Hashtbl.find by_step t with Not_found -> [] in
          let uses = List.length (List.filter (Int.equal edge) prev) in
          if uses >= speedup then
            fail "trace-invariant" ~step:t
              (Printf.sprintf
                 "edge %d forwarded %d times in step %d (speedup %d)" edge
                 (uses + 1) t speedup);
          Hashtbl.replace by_step t (edge :: prev)
      | _ -> ())
    (Trace.events tr);
  Array.iteri
    (fun i expected ->
      let t = i + 1 in
      let got =
        List.sort Int.compare
          (try Hashtbl.find by_step t with Not_found -> [])
      in
      let want = List.sort Int.compare expected in
      if want <> got then
        fail "trace-invariant" ~step:t
          (Printf.sprintf
             "step %d forwarded edges {%s}, nonempty buffers were {%s}" t
             (String.concat "," (List.map string_of_int got))
             (String.concat "," (List.map string_of_int want))))
    ref_forwards

let check_obligation scenario net = function
  | Gen.Rate_ok rate ->
      let m = Digraph.n_edges scenario.Gen.graph in
      (match Rate_check.check_rate ~m ~rate (Network.injection_log net) with
      | Ok () -> ()
      | Error v ->
          fail "rate" (Format.asprintf "%a" Rate_check.pp_violation v))
  | Gen.Windowed_ok { w; rate } ->
      let m = Digraph.n_edges scenario.Gen.graph in
      (match
         Rate_check.check_windowed ~m ~w ~rate (Network.injection_log net)
       with
      | Ok () -> ()
      | Error v ->
          fail "windowed" (Format.asprintf "%a" Rate_check.pp_violation v))
  | Gen.Leaky_ok { b; rate } ->
      let m = Digraph.n_edges scenario.Gen.graph in
      (match
         Rate_check.check_leaky ~m ~b ~rate (Network.injection_log net)
       with
      | Ok () -> ()
      | Error v ->
          fail "leaky" (Format.asprintf "%a" Rate_check.pp_violation v))
  | Gen.Local_ok { rate; sigmas } ->
      (match
         Rate_check.check_local ~rate ~sigmas (Network.injection_log net)
       with
      | Ok () -> ()
      | Error v ->
          fail "local" (Format.asprintf "%a" Rate_check.pp_violation v))
  | Gen.Routes_valid ->
      Array.iter
        (fun (t, route) ->
          if not (Digraph.route_is_simple scenario.Gen.graph route) then
            fail "routes" ~step:t
              (Printf.sprintf "injected route [%s] is not a simple path"
                 (show_route route)))
        (Network.injection_log net)
  | Gen.Drop_accounting ->
      let m = Digraph.n_edges scenario.Gen.graph in
      let per_edge = ref 0 in
      for e = 0 to m - 1 do
        per_edge := !per_edge + Network.dropped_on_edge net e
      done;
      let dropped = Network.dropped net in
      if !per_edge <> dropped then
        fail "drops"
          (Printf.sprintf "per-edge drops sum to %d but %d dropped" !per_edge
             dropped);
      if Network.displaced net > dropped then
        fail "drops"
          (Printf.sprintf "%d displaced exceeds %d dropped"
             (Network.displaced net) dropped);
      if Capacity.is_unbounded scenario.Gen.capacity && dropped <> 0 then
        fail "drops"
          (Printf.sprintf "unbounded buffers dropped %d packets" dropped)
  | Gen.Dwell_bound { w; rate; d } -> (
      match Stability.verify_run ~w ~rate ~d net with
      | None | Some { Stability.ok = true; _ } -> ()
      | Some v ->
          fail "dwell"
            (Printf.sprintf
               "dwell bound %d exceeded: max completed %d, max pending %d"
               v.Stability.bound v.Stability.max_dwell_seen
               v.Stability.max_pending))

(* The budget-violation mutant corrupts the SCHEDULE itself — identically
   for every arm — by replaying one injection [sigma_e + 1] extra times in
   its step, blowing the per-edge budget on that route's first edge.  No
   arm diverges from any other, so the differential layer is blind to it by
   construction: only the [Local_ok] admissibility obligation can catch it.
   Scenarios without that obligation are immune (the mutant is a no-op). *)
let violate_local (scenario : Gen.scenario) =
  let sigmas =
    List.find_map
      (function
        | Gen.Local_ok { rate = _; sigmas } -> Some sigmas
        | _ -> None)
      scenario.Gen.obligations
  in
  match sigmas with
  | None -> scenario.Gen.schedule
  | Some sigmas ->
      let schedule = Array.copy scenario.Gen.schedule in
      let idx = ref (-1) in
      Array.iteri
        (fun i injs -> if !idx < 0 && injs <> [] then idx := i)
        schedule;
      (if !idx >= 0 then
         match schedule.(!idx) with
         | [] -> ()
         | (inj : Network.injection) :: _ ->
             let e0 = inj.route.(0) in
             let extra = List.init (sigmas.(e0) + 1) (fun _ -> inj) in
             schedule.(!idx) <- extra @ schedule.(!idx));
      schedule

let run ?mutant ?(soa_domains = []) (scenario : Gen.scenario) =
  let engine_tie =
    match mutant with
    | Some Flip_tie_order -> (
        match scenario.tie_order with
        | Network.Transit_first -> Network.Injection_first
        | Network.Injection_first -> Network.Transit_first)
    | _ -> scenario.tie_order
  in
  let engine_reroutes =
    scenario.reroutes && mutant <> Some Skip_reroutes
  in
  let engine_capacity =
    if mutant = Some Ignore_capacity then Capacity.unbounded
    else scenario.capacity
  in
  let schedule =
    if mutant = Some Violate_local_budget then violate_local scenario
    else scenario.schedule
  in
  let refm =
    Ref_model.create ~tie_order:scenario.tie_order
      ~capacity:scenario.capacity ~graph:scenario.graph
      ~policy:scenario.policy ()
  in
  let network ?tracer () =
    Network.create ~log_injections:true ~tie_order:engine_tie ?tracer
      ~capacity:engine_capacity ~graph:scenario.graph
      ~policy:scenario.policy ()
  in
  let fast = network () in
  let tr = Trace.create () in
  let traced = network ~tracer:(Trace.handler tr) () in
  (* One Soa arm per requested domain count: the struct-of-arrays engine,
     sequential and partition-parallel, must match the oracle as the
     record engine does. *)
  let soas =
    List.map
      (fun d ->
        ( d,
          Soa.create ~log_injections:true ~tie_order:engine_tie
            ~capacity:engine_capacity ~domains:d ~graph:scenario.graph
            ~policy:scenario.policy () ))
      soa_domains
  in
  let arms =
    Arm ("fast", (module Network_arm), fast)
    :: Arm ("traced", (module Network_arm), traced)
    :: List.map
         (fun (d, s) -> Arm (Printf.sprintf "soa-d%d" d, (module Soa_arm), s))
         soas
  in
  let finally () = List.iter (fun (_, s) -> Soa.shutdown s) soas in
  Fun.protect ~finally @@ fun () ->
  try
    List.iter
      (fun route ->
        ignore (Ref_model.place_initial refm route);
        List.iter
          (fun (Arm (_, (module E), a)) -> E.place_initial a route)
          arms)
      scenario.initial;
    let horizon = Gen.horizon scenario in
    let ref_forwards = Array.make horizon [] in
    let injections_seen = ref 0 in
    let m = Digraph.n_edges scenario.graph in
    for i = 0 to horizon - 1 do
      let step = i + 1 in
      let injs = schedule.(i) in
      let engine_injs =
        match mutant with
        | Some (Drop_injection k) ->
            List.filter
              (fun _ ->
                let n = !injections_seen in
                incr injections_seen;
                n <> k)
              injs
        | _ -> injs
      in
      let forwards =
        Ref_model.step refm
          (start_step scenario ~m ~reroutes:scenario.reroutes
             ~buffer_len:(Ref_model.buffer_len refm)
             ~reroute_where:
               (reroute_where Ref_model.iter_buffered Ref_model.reroute refm)
             injs)
      in
      ref_forwards.(i) <- List.map fst forwards;
      List.iter
        (fun (Arm (_, (module E), a)) ->
          E.step a
            (start_step scenario ~m ~reroutes:engine_reroutes
               ~buffer_len:(E.buffer_len a) ~reroute_where:(E.reroute_where a)
               engine_injs))
        arms;
      let buffers =
        Array.init m (fun e ->
            List.map P.view (Ref_model.buffer_packets refm e))
      in
      List.iter (compare_buffers ~step refm buffers) arms;
      List.iter (check_capacity ~step ~m scenario.capacity) arms
    done;
    List.iter (compare_stats ~m refm) arms;
    List.iter (compare_logs refm) arms;
    List.iter check_conservation arms;
    check_trace_invariants
      ~speedup:(Capacity.speedup scenario.capacity)
      tr ref_forwards;
    if Trace.count_dropped tr <> Ref_model.dropped refm then
      fail "trace-invariant"
        (Printf.sprintf "traced arm emitted %d drop events, reference %d"
           (Trace.count_dropped tr) (Ref_model.dropped refm));
    List.iter (check_obligation scenario fast) scenario.obligations;
    None
  with Fail f -> Some f
