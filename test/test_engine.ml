(* Tests for the store-and-forward engine: step semantics of §2, dwell and
   conservation accounting, rerouting mechanics, the run loop. *)

module D = Aqt_graph.Digraph
module B = Aqt_graph.Build
module N = Aqt_engine.Network
module Packet = Aqt_engine.Packet
module Sim = Aqt_engine.Sim
module Recorder = Aqt_engine.Recorder
module Policies = Aqt_policy.Policies

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let inj route : N.injection = { route; tag = "t" }

let line_net k =
  let l = B.line k in
  (N.create ~log_injections:true ~graph:l.graph ~policy:Policies.fifo (), l)

(* One packet crosses one edge per step; injection happens in substep 2, so a
   packet injected at step t first moves at step t+1. *)
let step_semantics () =
  let net, l = line_net 3 in
  N.step net [ inj l.edges ];
  check_int "now" 1 (N.now net);
  check_int "sits at first edge" 1 (N.buffer_len net l.edges.(0));
  N.step net [];
  check_int "moved to second edge" 1 (N.buffer_len net l.edges.(1));
  check_int "left first edge" 0 (N.buffer_len net l.edges.(0));
  N.step net [];
  N.step net [];
  check_int "absorbed" 1 (N.absorbed net);
  check_int "in flight" 0 (N.in_flight net);
  check_int "latency 3 hops" 3 (N.delivered_latency_max net)

let one_send_per_buffer () =
  let net, l = line_net 1 in
  N.step net [ inj l.edges; inj l.edges; inj l.edges ];
  check_int "queued" 3 (N.buffer_len net l.edges.(0));
  N.step net [];
  check_int "one sent" 2 (N.buffer_len net l.edges.(0));
  N.step net [];
  check_int "another sent" 1 (N.buffer_len net l.edges.(0));
  check_int "two absorbed" 2 (N.absorbed net)

(* Simultaneity: transit arrivals of a step enqueue before that step's
   injections, and every nonempty buffer forwards each step. *)
let lockstep_convoy () =
  let net, l = line_net 4 in
  N.step net [ inj l.edges ];
  (* Step 2: the transit packet arrives at e1 in the same substep as a fresh
     injection at e1; the transit packet is ahead in FIFO order. *)
  N.step net [ inj (Array.sub l.edges 1 3) ];
  check_int "both share e1" 2 (N.buffer_len net l.edges.(1));
  N.step net [];
  check_int "transit packet won the tie" 1 (N.buffer_len net l.edges.(2));
  check_int "injected packet waits" 1 (N.buffer_len net l.edges.(1));
  check_int "max queue was 2" 2 (N.max_queue_ever net);
  (* From here they advance in lockstep, one edge apart. *)
  N.step net [];
  check_int "head at e3" 1 (N.buffer_len net l.edges.(3));
  check_int "tail at e2" 1 (N.buffer_len net l.edges.(2))

(* Substep-2 tie order: with Injection_first, a fresh injection enters the
   contested buffer ahead of a transit arrival of the same step. *)
let tie_order_modes () =
  let run tie_order =
    let l = B.line 4 in
    let net =
      N.create ~tie_order ~graph:l.graph ~policy:Policies.fifo ()
    in
    N.step net [ { route = Array.sub l.edges 0 2; tag = "transit" } ];
    N.step net [ { route = Array.sub l.edges 1 1; tag = "fresh" } ];
    match N.buffer_packets net l.edges.(1) with
    | p :: _ -> p.Packet.tag
    | [] -> Alcotest.fail "expected contention"
  in
  Alcotest.(check string) "default" "transit" (run N.Transit_first);
  Alcotest.(check string) "inverted" "fresh" (run N.Injection_first)

let initial_configuration () =
  let net, l = line_net 2 in
  let p = N.place_initial net l.edges in
  check_bool "flagged initial" true p.Packet.initial;
  check_int "initial count" 1 (N.initial_count net);
  check_int "not an injection" 0 (N.injected_count net);
  check_int "s_initial" 1 (N.s_initial net);
  N.step net [];
  Alcotest.check_raises "no initial after start"
    (Invalid_argument "Network.place_initial: the system already started")
    (fun () -> ignore (N.place_initial net l.edges))

let conservation_random_runs () =
  let prng = Aqt_util.Prng.create 2024 in
  for _ = 1 to 20 do
    let k = 2 + Aqt_util.Prng.int prng 6 in
    let ring = B.ring k in
    let net = N.create ~graph:ring.graph ~policy:Policies.fifo () in
    let steps = 50 + Aqt_util.Prng.int prng 100 in
    for _ = 1 to steps do
      let injections =
        List.init
          (Aqt_util.Prng.int prng 3)
          (fun _ ->
            let start = Aqt_util.Prng.int prng k in
            let len = 1 + Aqt_util.Prng.int prng (k - 1) in
            inj (Array.init len (fun j -> ring.edges.((start + j) mod k))))
      in
      N.step net injections
    done;
    let buffered = ref 0 in
    N.iter_buffered (fun _ -> incr buffered) net;
    check_int "injected = absorbed + buffered"
      (N.injected_count net)
      (N.absorbed net + !buffered);
    check_int "in_flight matches buffers" (N.in_flight net) !buffered
  done

let dwell_accounting () =
  let net, l = line_net 1 in
  (* Three packets at once: they leave after 1, 2 and 3 steps. *)
  N.step net [ inj l.edges; inj l.edges; inj l.edges ];
  N.step net [];
  N.step net [];
  check_int "two gone, one waiting" 1 (N.in_flight net);
  check_int "completed dwell max" 2 (N.max_dwell net);
  check_int "pending dwell" 2 (N.max_pending_dwell net);
  N.step net [];
  check_int "final dwell" 3 (N.max_dwell net)

let per_edge_stats () =
  let net, l = line_net 2 in
  N.step net [ inj l.edges; inj l.edges ];
  N.step net [];
  N.step net [];
  N.step net [];
  check_int "sent on e0" 2 (N.sent_on_edge net l.edges.(0));
  check_int "max queue e0" 2 (N.max_queue_of_edge net l.edges.(0));
  check_int "max queue e1" 1 (N.max_queue_of_edge net l.edges.(1))

let count_requiring_scan () =
  let net, l = line_net 3 in
  N.step net [ inj l.edges; inj (Array.sub l.edges 0 1) ];
  check_int "both require e0" 2 (N.count_requiring net l.edges.(0));
  check_int "one requires e2" 1 (N.count_requiring net l.edges.(2));
  N.step net [];
  (* The long packet (first in FIFO order) moved to e1; the short one still
     waits for e0. *)
  check_int "short still requires e0" 1 (N.count_requiring net l.edges.(0));
  N.step net [];
  (* Short absorbed, long at e2. *)
  check_int "e0 no longer required" 0 (N.count_requiring net l.edges.(0));
  check_int "e2 still required" 1 (N.count_requiring net l.edges.(2))

let route_validation_on_inject () =
  let net, l = line_net 3 in
  Alcotest.check_raises "non-path rejected"
    (Invalid_argument
       (Format.asprintf "Network: route %a is not a simple path"
          (D.pp_route (N.graph net))
          [| l.edges.(0); l.edges.(2) |]))
    (fun () -> N.step net [ inj [| l.edges.(0); l.edges.(2) |] ])

let reroute_mechanics () =
  let net, l = line_net 4 in
  N.step net [ inj (Array.sub l.edges 0 2) ];
  let p =
    match N.buffer_packets net l.edges.(0) with
    | [ p ] -> p
    | _ -> Alcotest.fail "expected one packet"
  in
  (* Extend the remaining route beyond the next edge. *)
  N.reroute net p [| l.edges.(1); l.edges.(2); l.edges.(3) |];
  check_int "rerouted once" 1 p.Packet.reroutes;
  check_int "route grew" 4 (Array.length p.Packet.route);
  check_int "network count" 1 (N.reroute_count net);
  for _ = 1 to 4 do
    N.step net []
  done;
  check_int "followed new route" 1 (N.absorbed net);
  check_int "latency over 4 hops" 4 (N.delivered_latency_max net)

let reroute_rejections () =
  let net, l = line_net 3 in
  N.step net [ inj (Array.sub l.edges 0 1) ];
  let p =
    match N.buffer_packets net l.edges.(0) with
    | [ p ] -> p
    | _ -> Alcotest.fail "expected one packet"
  in
  Alcotest.check_raises "disconnected suffix"
    (Invalid_argument
       (Format.asprintf "Network: route %a is not a simple path"
          (D.pp_route (N.graph net))
          [| l.edges.(0); l.edges.(2) |]))
    (fun () -> N.reroute net p [| l.edges.(2) |]);
  N.step net [];
  Alcotest.check_raises "absorbed packet"
    (Invalid_argument "Network.reroute: packet already absorbed") (fun () ->
      N.reroute net p [| l.edges.(1) |])

let injection_log_contents () =
  let net, l = line_net 2 in
  ignore (N.place_initial net l.edges);
  N.step net [ inj l.edges ];
  N.step net [ inj (Array.sub l.edges 1 1) ];
  let log = N.injection_log net in
  check_int "two entries (initial excluded)" 2 (Array.length log);
  let t1, r1 = log.(0) and t2, r2 = log.(1) in
  check_int "first time" 1 t1;
  check_int "second time" 2 t2;
  check_int "first route len" 2 (Array.length r1);
  check_int "second route len" 1 (Array.length r2)

(* Random runs with reroutes, drop-tail and drop-head losses, exogenous
   noise and packet recycling: both logs must equal the reference built by
   sorting every logged entry by (time, id). *)
let prop_logs_match_sorted_reference =
  QCheck.Test.make ~name:"logs equal the (time, id)-sorted reference"
    ~count:150 (QCheck.int_range 0 100_000) (fun seed ->
      let r = Log_runs.run ~exogenous:true ~seed ~steps:40 () in
      N.injection_log r.net = Log_runs.reference_log r
      && N.initial_final_routes r.net = Log_runs.reference_initials r
      && Log_runs.times_follow_ids r)

let last_use_tracking () =
  let net, l = line_net 3 in
  check_int "never used" min_int (N.last_injection_on net l.edges.(0));
  N.step net [ inj (Array.sub l.edges 0 2) ];
  check_int "marks whole route" 1 (N.last_injection_on net l.edges.(1));
  check_int "not the tail edge" min_int (N.last_injection_on net l.edges.(2));
  N.step net [];
  check_int "t* of in-flight" 1 (N.min_injection_time_in_flight net);
  N.step net [];
  N.step net [];
  check_int "empty network t*" max_int (N.min_injection_time_in_flight net)

(* Exogenous traffic competes for capacity but stays outside the adversary's
   accounting: no injection-log entries, no Def 3.2 edge-use marks. *)
let exogenous_traffic () =
  let net, l = line_net 3 in
  N.step net ~exogenous:[ inj (Array.sub l.edges 0 1) ] [ inj l.edges ];
  check_int "both in flight" 2 (N.in_flight net);
  check_int "only the adversary's is logged" 1
    (Array.length (N.injection_log net));
  check_int "no edge-use mark from noise... adversary marked e0" 1
    (N.last_injection_on net l.edges.(0));
  (* Pure-noise step: the edge-use clock does not advance. *)
  N.step net ~exogenous:[ inj (Array.sub l.edges 0 1) ] [];
  check_int "noise leaves last_use alone" 1 (N.last_injection_on net l.edges.(0));
  (* Noise still occupies capacity: the adversary packet shares e0's buffer. *)
  check_bool "competes in buffers" true (N.max_queue_ever net >= 2)

(* Event tracing: a packet's full life shows up, in order. *)
let tracer_events () =
  let l = B.line 2 in
  let tr = Aqt_engine.Trace.create () in
  let net =
    N.create ~tracer:(Aqt_engine.Trace.handler tr) ~graph:l.graph
      ~policy:Policies.fifo ()
  in
  N.step net [ inj l.edges ];
  N.step net [];
  let p =
    match N.buffer_packets net l.edges.(1) with
    | [ p ] -> p
    | _ -> Alcotest.fail "expected packet at e1"
  in
  N.reroute net p [||] (* truncate: absorb after e1 *);
  N.step net [];
  check_int "injected" 1 (Aqt_engine.Trace.count_injected tr);
  check_int "forwarded twice" 2 (Aqt_engine.Trace.count_forwarded tr);
  check_int "rerouted once" 1 (Aqt_engine.Trace.count_rerouted tr);
  check_int "absorbed" 1 (Aqt_engine.Trace.count_absorbed tr);
  check_int "five events total" 5 (Aqt_engine.Trace.length tr);
  (match Aqt_engine.Trace.packet_history tr 0 with
  | [ Injected { t = 1; _ }; Forwarded { t = 2; edge = 0; dwell = 1; _ };
      Rerouted { t = 2; route_len = 2; _ };
      Forwarded { t = 3; edge = 1; _ }; Absorbed { t = 3; latency = 2; _ } ] ->
      ()
  | h ->
      Alcotest.failf "unexpected history:@ %s"
        (String.concat "; "
           (List.map
              (Format.asprintf "%a" Aqt_engine.Trace.pp_event)
              h)));
  check_bool "hop times" true
    (Aqt_engine.Trace.hop_times tr 0 = [ (2, 0); (3, 1) ])

(* Sim run loop *)

let sim_horizon_and_drain () =
  let net, l = line_net 2 in
  let driver =
    Sim.injections_only (fun _ t -> if t = 1 then [ inj l.edges ] else [])
  in
  let drained net = if N.in_flight net = 0 then Some "drained" else None in
  let outcome = Sim.run ~stop_when:drained ~net ~driver ~horizon:100 () in
  check_bool "drained" true (outcome.stop = Sim.Stopped "drained");
  check_int "steps to drain" 3 outcome.steps_run;
  let net2, _ = line_net 2 in
  let outcome2 = Sim.run ~net:net2 ~driver:Sim.null_driver ~horizon:5 () in
  check_bool "horizon" true (outcome2.stop = Sim.Horizon);
  check_int "ran 5" 5 outcome2.steps_run

let sim_blowup_and_custom_stop () =
  let net, l = line_net 1 in
  let driver = Sim.injections_only (fun _ _ -> [ inj l.edges; inj l.edges ]) in
  let outcome = Sim.run ~blowup:10 ~net ~driver ~horizon:1000 () in
  (match outcome.stop with
  | Sim.Blowup q -> check_bool "exceeded cap" true (q > 10)
  | _ -> Alcotest.fail "expected blowup");
  let net2, l2 = line_net 1 in
  let driver2 = Sim.injections_only (fun _ _ -> [ inj l2.edges ]) in
  let stop_when net = if N.absorbed net >= 3 then Some "three" else None in
  let outcome2 = Sim.run ~stop_when ~net:net2 ~driver:driver2 ~horizon:1000 () in
  check_bool "custom stop" true (outcome2.stop = Sim.Stopped "three")

let recorder_sampling () =
  let net, l = line_net 2 in
  let recorder = Recorder.make ~every:2 () in
  let driver = Sim.injections_only (fun _ _ -> [ inj l.edges ]) in
  let _ = Sim.run ~recorder ~net ~driver ~horizon:10 () in
  check_int "5 samples at every=2" 5 (Recorder.length recorder);
  let samples = Recorder.samples recorder in
  check_int "first sample time" 2 samples.(0).Recorder.t;
  (match Recorder.last recorder with
  | Some s -> check_int "last sample time" 10 s.Recorder.t
  | None -> Alcotest.fail "expected samples");
  let pts = Recorder.points recorder (fun s -> float_of_int s.Recorder.in_flight) in
  check_int "points count" 5 (Array.length pts)

(* qcheck: random reroutes on a big line never break conservation or FIFO
   ordering within a buffer. *)
let prop_reroute_preserves_conservation =
  QCheck.Test.make ~name:"random extensions keep accounting consistent"
    ~count:60
    (QCheck.int_range 0 10_000)
    (fun seed ->
      let prng = Aqt_util.Prng.create seed in
      let l = B.line 8 in
      let net = N.create ~graph:l.graph ~policy:Policies.fifo () in
      for _ = 1 to 60 do
        (* Inject a random prefix route, sometimes extend a buffered packet
           to a longer prefix. *)
        let len = 1 + Aqt_util.Prng.int prng 4 in
        N.step net [ inj (Array.sub l.edges 0 len) ];
        N.iter_buffered
          (fun p ->
            if
              Aqt_util.Prng.int prng 10 = 0
              && not (Packet.is_absorbed p)
            then begin
              let last = p.Packet.route.(Array.length p.Packet.route - 1) in
              if last < 7 && p.Packet.route.(p.Packet.hop) <= last then
                N.reroute net p
                  (Array.init
                     (last + 1 - p.Packet.hop)
                     (fun j -> l.edges.(p.Packet.hop + 1 + j)))
            end)
          net
      done;
      let buffered = ref 0 in
      N.iter_buffered (fun _ -> incr buffered) net;
      N.injected_count net = N.absorbed net + !buffered)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "aqt_engine"
    [
      ( "semantics",
        [
          Alcotest.test_case "two-substep step" `Quick step_semantics;
          Alcotest.test_case "one send per buffer" `Quick one_send_per_buffer;
          Alcotest.test_case "lockstep convoy" `Quick lockstep_convoy;
          Alcotest.test_case "tie order" `Quick tie_order_modes;
          Alcotest.test_case "initial configuration" `Quick initial_configuration;
          Alcotest.test_case "conservation" `Quick conservation_random_runs;
        ] );
      ( "instrumentation",
        [
          Alcotest.test_case "dwell accounting" `Quick dwell_accounting;
          Alcotest.test_case "per-edge stats" `Quick per_edge_stats;
          Alcotest.test_case "count_requiring" `Quick count_requiring_scan;
          Alcotest.test_case "injection log" `Quick injection_log_contents;
          q prop_logs_match_sorted_reference;
          Alcotest.test_case "last-use tracking" `Quick last_use_tracking;
          Alcotest.test_case "event tracing" `Quick tracer_events;
          Alcotest.test_case "exogenous traffic" `Quick exogenous_traffic;
        ] );
      ( "rerouting",
        [
          Alcotest.test_case "route validation" `Quick route_validation_on_inject;
          Alcotest.test_case "mechanics" `Quick reroute_mechanics;
          Alcotest.test_case "rejections" `Quick reroute_rejections;
          q prop_reroute_preserves_conservation;
        ] );
      ( "sim",
        [
          Alcotest.test_case "horizon and drain" `Quick sim_horizon_and_drain;
          Alcotest.test_case "blowup and custom stop" `Quick sim_blowup_and_custom_stop;
          Alcotest.test_case "recorder" `Quick recorder_sampling;
        ] );
    ]
