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
  | Some s -> Format.fprintf fmt "[%s @ step %d] %s" f.kind s f.detail
  | None -> Format.fprintf fmt "[%s] %s" f.kind f.detail

exception Fail of failure

let fail kind ?step detail = raise (Fail { kind; step; detail })

(* Everything observable about a buffered packet.  Routes are compared as
   lists: each engine holds rerouted routes in arrays of its own, so only
   their values are comparable. *)
let print_of_packet (p : P.t) =
  Printf.sprintf "#%d inj@%d hop=%d buf@%d route=[%s]" p.P.id p.P.injected_at
    p.P.hop p.P.buffered_at
    (String.concat ";" (List.map string_of_int (Array.to_list p.P.route)))

let packet_fp (p : P.t) =
  (p.P.id, p.P.injected_at, p.P.hop, p.P.buffered_at, Array.to_list p.P.route)

let print_of_view (v : Soa.view) =
  Printf.sprintf "#%d inj@%d hop=%d buf@%d route=[%s]" v.Soa.v_id
    v.Soa.v_injected_at v.Soa.v_hop v.Soa.v_buffered_at
    (String.concat ";" (List.map string_of_int (Array.to_list v.Soa.v_route)))

let view_fp (v : Soa.view) =
  ( v.Soa.v_id,
    v.Soa.v_injected_at,
    v.Soa.v_hop,
    v.Soa.v_buffered_at,
    Array.to_list v.Soa.v_route )

let compare_buffers ~arm ~step refm net =
  let m = Digraph.n_edges (Network.graph net) in
  for e = 0 to m - 1 do
    let want = Ref_model.buffer_packets refm e in
    let got = Network.buffer_packets net e in
    if List.map packet_fp want <> List.map packet_fp got then
      fail "divergence" ~step
        (Printf.sprintf "%s arm, edge %d:\n  reference: %s\n  engine:    %s"
           arm e
           (String.concat " | " (List.map print_of_packet want))
           (String.concat " | " (List.map print_of_packet got)))
  done;
  if Network.in_flight net <> Ref_model.in_flight refm then
    fail "divergence" ~step
      (Printf.sprintf "%s arm: in_flight %d, reference %d" arm
         (Network.in_flight net) (Ref_model.in_flight refm));
  if Network.absorbed net <> Ref_model.absorbed refm then
    fail "divergence" ~step
      (Printf.sprintf "%s arm: absorbed %d, reference %d" arm
         (Network.absorbed net) (Ref_model.absorbed refm));
  if Network.dropped net <> Ref_model.dropped refm then
    fail "divergence" ~step
      (Printf.sprintf "%s arm: dropped %d, reference %d" arm
         (Network.dropped net) (Ref_model.dropped refm))

(* The SoA arms expose buffered packets as copied-out views rather than
   [Packet.t] handles; the comparison is the same fingerprint. *)
let compare_soa_buffers ~arm ~step refm soa =
  let m = Digraph.n_edges (Soa.graph soa) in
  for e = 0 to m - 1 do
    let want = Ref_model.buffer_packets refm e in
    let got = Soa.buffer_packets soa e in
    if List.map packet_fp want <> List.map view_fp got then
      fail "divergence" ~step
        (Printf.sprintf "%s arm, edge %d:\n  reference: %s\n  engine:    %s"
           arm e
           (String.concat " | " (List.map print_of_packet want))
           (String.concat " | " (List.map print_of_view got)))
  done;
  if Soa.in_flight soa <> Ref_model.in_flight refm then
    fail "divergence" ~step
      (Printf.sprintf "%s arm: in_flight %d, reference %d" arm
         (Soa.in_flight soa) (Ref_model.in_flight refm));
  if Soa.absorbed soa <> Ref_model.absorbed refm then
    fail "divergence" ~step
      (Printf.sprintf "%s arm: absorbed %d, reference %d" arm
         (Soa.absorbed soa) (Ref_model.absorbed refm));
  if Soa.dropped soa <> Ref_model.dropped refm then
    fail "divergence" ~step
      (Printf.sprintf "%s arm: dropped %d, reference %d" arm
         (Soa.dropped soa) (Ref_model.dropped refm))

(* Capacity-never-exceeded: after every step, each buffer respects its
   static cap and a shared pool respects its total.  Checked against the
   scenario's model, not the arm's (so the ignore-capacity mutant is caught
   here as soon as it overfills a buffer). *)
let check_capacity ~arm ~step (capacity : Capacity.t) net =
  if not (Capacity.is_unbounded capacity) then begin
    let m = Digraph.n_edges (Network.graph net) in
    let caps = Capacity.caps capacity ~m in
    for e = 0 to m - 1 do
      if Network.buffer_len net e > caps.(e) then
        fail "capacity-exceeded" ~step
          (Printf.sprintf "%s arm: edge %d holds %d packets, cap %d" arm e
             (Network.buffer_len net e) caps.(e))
    done;
    let total = Capacity.shared_total capacity in
    if total <> max_int && Network.occupancy net > total then
      fail "capacity-exceeded" ~step
        (Printf.sprintf "%s arm: %d packets buffered, shared total %d" arm
           (Network.occupancy net) total)
  end

let check_stat ~arm name want got =
  if want <> got then
    fail "stat-divergence"
      (Printf.sprintf "%s arm: %s = %d, reference %d" arm name got want)

let compare_stats ~arm refm net =
  let m = Digraph.n_edges (Network.graph net) in
  check_stat ~arm "injected" (Ref_model.injected_count refm)
    (Network.injected_count net);
  check_stat ~arm "initials" (Ref_model.initial_count refm)
    (Network.initial_count net);
  check_stat ~arm "max_queue" (Ref_model.max_queue_ever refm)
    (Network.max_queue_ever net);
  check_stat ~arm "max_dwell" (Ref_model.max_dwell refm)
    (Network.max_dwell net);
  check_stat ~arm "max_pending_dwell"
    (Ref_model.max_pending_dwell refm)
    (Network.max_pending_dwell net);
  check_stat ~arm "latency_max"
    (Ref_model.delivered_latency_max refm)
    (Network.delivered_latency_max net);
  check_stat ~arm "reroutes" (Ref_model.reroute_count refm)
    (Network.reroute_count net);
  check_stat ~arm "dropped" (Ref_model.dropped refm) (Network.dropped net);
  check_stat ~arm "displaced" (Ref_model.displaced refm)
    (Network.displaced net);
  check_stat ~arm "peak_occupancy"
    (Ref_model.peak_occupancy refm)
    (Network.peak_occupancy net);
  if
    Ref_model.delivered_latency_mean refm
    <> Network.delivered_latency_mean net
  then
    fail "stat-divergence"
      (Printf.sprintf "%s arm: latency_mean %g, reference %g" arm
         (Network.delivered_latency_mean net)
         (Ref_model.delivered_latency_mean refm));
  for e = 0 to m - 1 do
    check_stat ~arm
      (Printf.sprintf "max_queue_of_edge %d" e)
      (Ref_model.max_queue_of_edge refm e)
      (Network.max_queue_of_edge net e);
    check_stat ~arm
      (Printf.sprintf "sent_on_edge %d" e)
      (Ref_model.sent_on_edge refm e)
      (Network.sent_on_edge net e);
    check_stat ~arm
      (Printf.sprintf "last_injection_on %d" e)
      (Ref_model.last_injection_on refm e)
      (Network.last_injection_on net e);
    check_stat ~arm
      (Printf.sprintf "dropped_on_edge %d" e)
      (Ref_model.dropped_on_edge refm e)
      (Network.dropped_on_edge net e)
  done

let check_soa_capacity ~arm ~step (capacity : Capacity.t) soa =
  if not (Capacity.is_unbounded capacity) then begin
    let m = Digraph.n_edges (Soa.graph soa) in
    let caps = Capacity.caps capacity ~m in
    for e = 0 to m - 1 do
      if Soa.buffer_len soa e > caps.(e) then
        fail "capacity-exceeded" ~step
          (Printf.sprintf "%s arm: edge %d holds %d packets, cap %d" arm e
             (Soa.buffer_len soa e) caps.(e))
    done;
    let total = Capacity.shared_total capacity in
    if total <> max_int && Soa.occupancy soa > total then
      fail "capacity-exceeded" ~step
        (Printf.sprintf "%s arm: %d packets buffered, shared total %d" arm
           (Soa.occupancy soa) total)
  end

let compare_soa_stats ~arm refm soa =
  let m = Digraph.n_edges (Soa.graph soa) in
  check_stat ~arm "injected" (Ref_model.injected_count refm)
    (Soa.injected_count soa);
  check_stat ~arm "initials" (Ref_model.initial_count refm)
    (Soa.initial_count soa);
  check_stat ~arm "max_queue" (Ref_model.max_queue_ever refm)
    (Soa.max_queue_ever soa);
  check_stat ~arm "max_dwell" (Ref_model.max_dwell refm) (Soa.max_dwell soa);
  check_stat ~arm "max_pending_dwell"
    (Ref_model.max_pending_dwell refm)
    (Soa.max_pending_dwell soa);
  check_stat ~arm "latency_max"
    (Ref_model.delivered_latency_max refm)
    (Soa.delivered_latency_max soa);
  check_stat ~arm "reroutes" (Ref_model.reroute_count refm)
    (Soa.reroute_count soa);
  check_stat ~arm "dropped" (Ref_model.dropped refm) (Soa.dropped soa);
  check_stat ~arm "displaced" (Ref_model.displaced refm) (Soa.displaced soa);
  check_stat ~arm "peak_occupancy"
    (Ref_model.peak_occupancy refm)
    (Soa.peak_occupancy soa);
  if Ref_model.delivered_latency_mean refm <> Soa.delivered_latency_mean soa
  then
    fail "stat-divergence"
      (Printf.sprintf "%s arm: latency_mean %g, reference %g" arm
         (Soa.delivered_latency_mean soa)
         (Ref_model.delivered_latency_mean refm));
  for e = 0 to m - 1 do
    check_stat ~arm
      (Printf.sprintf "max_queue_of_edge %d" e)
      (Ref_model.max_queue_of_edge refm e)
      (Soa.max_queue_of_edge soa e);
    check_stat ~arm
      (Printf.sprintf "sent_on_edge %d" e)
      (Ref_model.sent_on_edge refm e)
      (Soa.sent_on_edge soa e);
    check_stat ~arm
      (Printf.sprintf "last_injection_on %d" e)
      (Ref_model.last_injection_on refm e)
      (Soa.last_injection_on soa e);
    check_stat ~arm
      (Printf.sprintf "dropped_on_edge %d" e)
      (Ref_model.dropped_on_edge refm e)
      (Soa.dropped_on_edge soa e)
  done

let compare_logs ~arm refm net =
  let want = Ref_model.injection_log refm in
  let got = Network.injection_log net in
  if Array.length want <> Array.length got then
    fail "injection-log"
      (Printf.sprintf "%s arm: %d entries, reference %d" arm
         (Array.length got) (Array.length want));
  Array.iteri
    (fun i (wt, wr) ->
      let gt, gr = got.(i) in
      if wt <> gt || Array.to_list wr <> Array.to_list gr then
        fail "injection-log"
          (Printf.sprintf "%s arm: entry %d is (t=%d, [%s]), reference (t=%d, [%s])"
             arm i gt
             (String.concat ";" (List.map string_of_int (Array.to_list gr)))
             wt
             (String.concat ";" (List.map string_of_int (Array.to_list wr)))))
    want

let compare_soa_logs ~arm refm soa =
  let want = Ref_model.injection_log refm in
  let got = Soa.injection_log soa in
  if Array.length want <> Array.length got then
    fail "injection-log"
      (Printf.sprintf "%s arm: %d entries, reference %d" arm
         (Array.length got) (Array.length want));
  Array.iteri
    (fun i (wt, wr) ->
      let gt, gr = got.(i) in
      if wt <> gt || Array.to_list wr <> Array.to_list gr then
        fail "injection-log"
          (Printf.sprintf
             "%s arm: entry %d is (t=%d, [%s]), reference (t=%d, [%s])" arm i
             gt
             (String.concat ";" (List.map string_of_int (Array.to_list gr)))
             wt
             (String.concat ";" (List.map string_of_int (Array.to_list wr)))))
    want

let check_soa_conservation ~arm soa =
  let made = Soa.initial_count soa + Soa.injected_count soa in
  let accounted = Soa.absorbed soa + Soa.in_flight soa + Soa.dropped soa in
  if made <> accounted then
    fail "conservation"
      (Printf.sprintf
         "%s arm: %d packets created but %d accounted for \
          (absorbed + in flight + dropped)"
         arm made accounted)

(* The deterministic reroute pass (same rule as the fast-path tests):
   before each step, every buffered packet with [id mod 5 = 2] and more
   than one remaining hop gets its route truncated at the current edge.
   Applied identically to the reference and (unless the mutant suppresses
   it) to each engine arm; truncation is per-packet, so the application
   order within an arm does not matter. *)
let should_truncate (p : P.t) = p.P.id mod 5 = 2 && P.remaining p > 1

let reroute_ref refm =
  let victims = ref [] in
  Ref_model.iter_buffered
    (fun p -> if should_truncate p then victims := p :: !victims)
    refm;
  List.iter (fun p -> Ref_model.reroute refm p [||]) !victims

let reroute_net net =
  let victims = ref [] in
  Network.iter_buffered
    (fun p -> if should_truncate p then victims := p :: !victims)
    net;
  List.iter (fun p -> Network.reroute net p [||]) !victims

let reroute_soa soa =
  Soa.reroute_where soa
    (fun ~id ~edge:_ ~remaining -> id mod 5 = 2 && remaining > 1)
    [||]

(* Feedback-routing support: each arm observes its OWN start-of-step queue
   vector, then re-derives the truncation pass and the greedy route
   assignment from it with the pure [Feedback] rules.  If any arm's queues
   have drifted, its choices drift, and the buffer compare reports the
   divergence the same step. *)
let queues_ref refm m = Array.init m (Ref_model.buffer_len refm)
let queues_net net m = Array.init m (Network.buffer_len net)
let queues_soa soa m = Array.init m (Soa.buffer_len soa)

let feedback_reroute_ref ~queues ~hot refm =
  let victims = ref [] in
  Ref_model.iter_buffered
    (fun p ->
      if
        Feedback.should_truncate ~queues ~hot ~edge:(P.current_edge p)
          ~remaining:(P.remaining p)
      then victims := p :: !victims)
    refm;
  List.iter (fun p -> Ref_model.reroute refm p [||]) !victims

let feedback_reroute_net ~queues ~hot net =
  let victims = ref [] in
  Network.iter_buffered
    (fun p ->
      if
        Feedback.should_truncate ~queues ~hot ~edge:(P.current_edge p)
          ~remaining:(P.remaining p)
      then victims := p :: !victims)
    net;
  List.iter (fun p -> Network.reroute net p [||]) !victims

let feedback_reroute_soa ~queues ~hot soa =
  Soa.reroute_where soa
    (fun ~id:_ ~edge ~remaining ->
      Feedback.should_truncate ~queues ~hot ~edge ~remaining)
    [||]

(* Replace the placeholder routes of a feedback step with the greedy
   water-filling assignment derived from [qs].  A no-op on every other
   family. *)
let assign_feedback (scenario : Gen.scenario) qs injs =
  match scenario.Gen.feedback with
  | None -> injs
  | Some fb ->
      List.map2
        (fun (inj : Network.injection) route -> { inj with route })
        injs
        (Feedback.assign ~queues:qs ~pool:fb.Gen.pool (List.length injs))

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

let check_conservation ~arm net =
  let made = Network.initial_count net + Network.injected_count net in
  let accounted =
    Network.absorbed net + Network.in_flight net + Network.dropped net
  in
  if made <> accounted then
    fail "conservation"
      (Printf.sprintf
         "%s arm: %d packets created but %d accounted for \
          (absorbed + in flight + dropped)"
         arm made accounted)

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
                 (String.concat ";"
                    (List.map string_of_int (Array.to_list route)))))
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
  let fast =
    Network.create ~log_injections:true ~tie_order:engine_tie ~recycle:true
      ~capacity:engine_capacity ~graph:scenario.graph
      ~policy:scenario.policy ()
  in
  let tr = Trace.create () in
  let traced =
    Network.create ~log_injections:true ~tie_order:engine_tie
      ~tracer:(Trace.handler tr) ~capacity:engine_capacity
      ~graph:scenario.graph ~policy:scenario.policy ()
  in
  (* One SoA arm per requested domain count — the struct-of-arrays engine,
     sequential and partition-parallel, must all match the oracle
     buffer-for-buffer each step. *)
  let soa_arms =
    List.map
      (fun d ->
        ( Printf.sprintf "soa-d%d" d,
          Soa.create ~log_injections:true ~tie_order:engine_tie
            ~capacity:engine_capacity ~domains:d ~graph:scenario.graph
            ~policy:scenario.policy () ))
      soa_domains
  in
  let finally () = List.iter (fun (_, s) -> Soa.shutdown s) soa_arms in
  Fun.protect ~finally @@ fun () ->
  try
    List.iter
      (fun route ->
        ignore (Ref_model.place_initial refm route);
        ignore (Network.place_initial fast route);
        ignore (Network.place_initial traced route);
        List.iter (fun (_, s) -> ignore (Soa.place_initial s route)) soa_arms)
      scenario.initial;
    let horizon = Gen.horizon scenario in
    let ref_forwards = Array.make horizon [] in
    let injections_seen = ref 0 in
    let m = Digraph.n_edges scenario.graph in
    for i = 0 to horizon - 1 do
      let step = i + 1 in
      (* Each arm's queue snapshot, taken BEFORE the reroute pass: this is
         the state the feedback adversary observes, and truncation must not
         retroactively change what it saw. *)
      let qs_ref, qs_fast, qs_traced, qs_soa =
        match scenario.feedback with
        | None -> ([||], [||], [||], List.map (fun _ -> [||]) soa_arms)
        | Some _ ->
            ( queues_ref refm m,
              queues_net fast m,
              queues_net traced m,
              List.map (fun (_, s) -> queues_soa s m) soa_arms )
      in
      (match scenario.feedback with
      | Some { Gen.hot; _ } ->
          if scenario.reroutes then
            feedback_reroute_ref ~queues:qs_ref ~hot refm;
          if engine_reroutes then begin
            feedback_reroute_net ~queues:qs_fast ~hot fast;
            feedback_reroute_net ~queues:qs_traced ~hot traced;
            List.iter2
              (fun (_, s) qs -> feedback_reroute_soa ~queues:qs ~hot s)
              soa_arms qs_soa
          end
      | None ->
          if scenario.reroutes then reroute_ref refm;
          if engine_reroutes then begin
            reroute_net fast;
            reroute_net traced;
            List.iter (fun (_, s) -> reroute_soa s) soa_arms
          end);
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
        Ref_model.step refm (assign_feedback scenario qs_ref injs)
      in
      ref_forwards.(i) <- List.map fst forwards;
      Network.step fast (assign_feedback scenario qs_fast engine_injs);
      Network.step traced (assign_feedback scenario qs_traced engine_injs);
      List.iter2
        (fun (_, s) qs -> Soa.step s (assign_feedback scenario qs engine_injs))
        soa_arms qs_soa;
      compare_buffers ~arm:"fast" ~step refm fast;
      compare_buffers ~arm:"traced" ~step refm traced;
      List.iter
        (fun (arm, s) -> compare_soa_buffers ~arm ~step refm s)
        soa_arms;
      check_capacity ~arm:"fast" ~step scenario.capacity fast;
      check_capacity ~arm:"traced" ~step scenario.capacity traced;
      List.iter
        (fun (arm, s) -> check_soa_capacity ~arm ~step scenario.capacity s)
        soa_arms
    done;
    compare_stats ~arm:"fast" refm fast;
    compare_stats ~arm:"traced" refm traced;
    compare_logs ~arm:"fast" refm fast;
    compare_logs ~arm:"traced" refm traced;
    check_conservation ~arm:"fast" fast;
    check_conservation ~arm:"traced" traced;
    List.iter
      (fun (arm, s) ->
        compare_soa_stats ~arm refm s;
        compare_soa_logs ~arm refm s;
        check_soa_conservation ~arm s)
      soa_arms;
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
