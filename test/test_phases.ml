(* Integration tests for the Section 3 constructions: startup (Lemma 3.15),
   pump (Lemma 3.6), stitch (Lemma 3.16), and the composed instability
   adversary (Theorem 3.17), executed on the real simulator.

   The adversaries are exact-integer realizations of fluid schedules, so
   postconditions are checked against measured values with small additive
   slack (the paper absorbs the same error into a larger S0). *)

module R = Aqt_util.Ratio
module N = Aqt_engine.Network
module Sim = Aqt_engine.Sim
module Phased = Aqt_adversary.Phased
module G = Aqt.Gadget
module I = Aqt.Invariant
module Policies = Aqt_policy.Policies

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let eps = R.make 1 5
let params = Aqt.Params.make ~eps ~s0:400 ()

let fresh_seeded ~m ~seed =
  let g = G.cyclic ~n:params.n ~m () in
  let net = N.create ~graph:g.graph ~policy:Policies.fifo () in
  for _ = 1 to seed do
    ignore (N.place_initial ~tag:"seed" net (G.seed_route g))
  done;
  (net, g)

let seed = 2 * params.s0 + 2
let slack = 4 * params.n (* generous integrality allowance *)

(* Lemma 3.15: startup establishes C(S', F(1)) with S' close to the predicted
   2S(1-R_n) and above S(1+eps). *)
let startup_postcondition () =
  let net, g = fresh_seeded ~m:4 ~seed in
  let duration = Phased.run net (Aqt.Startup.phase ~params ~gadget:g) in
  check_int "duration 2S + n" (seed + params.n) duration;
  let m = I.measure net g ~k:1 in
  check_bool "invariant with slack" true
    (I.holds_with_slack ~slack net g ~k:1);
  let predicted = Aqt.Params.s' ~r:params.r ~n:params.n ~total_old:seed in
  check_bool "s_ingress matches prediction" true
    (abs (m.s_ingress - predicted) <= slack);
  check_bool "s_epath matches prediction" true
    (abs (m.s_epath - predicted) <= slack);
  let target =
    int_of_float
      (float_of_int (seed / 2) *. (1.0 +. R.to_float eps))
  in
  check_bool "S' >= S(1+eps)" true (m.s_ingress >= target)

(* Lemma 3.6: the pump moves C(S, F(1)) to C(S', F(2)) with S' ~ S * 2(1-R_n),
   and empties gadget 1. *)
let pump_postcondition () =
  let net, g = fresh_seeded ~m:4 ~seed in
  ignore (Phased.run net (Aqt.Startup.phase ~params ~gadget:g));
  let before = I.measure net g ~k:1 in
  ignore (Phased.run net (Aqt.Pump.phase ~params ~gadget:g ~k:1));
  let after = I.measure net g ~k:2 in
  check_bool "C on gadget 2" true (I.holds_with_slack ~slack net g ~k:2);
  let factor = Aqt.Params.pump_factor ~r:params.r ~n:params.n in
  let predicted = int_of_float (float_of_int before.s_ingress *. factor) in
  check_bool "pumped size near prediction" true
    (abs (after.s_ingress - predicted) <= slack);
  check_bool "grew at least (1+eps)" true
    (after.s_ingress
    >= int_of_float (float_of_int before.s_ingress *. (1.0 +. R.to_float eps)));
  (* Gadget 1 is (nearly) empty: a handful of stragglers at most. *)
  let left = I.measure net g ~k:1 in
  check_bool "gadget 1 drained" true
    (left.s_epath + left.s_ingress + left.extraneous <= slack)

(* Two pumps in sequence keep compounding. *)
let pump_composes () =
  let net, g = fresh_seeded ~m:4 ~seed in
  ignore (Phased.run net (Aqt.Startup.phase ~params ~gadget:g));
  ignore (Phased.run net (Aqt.Pump.phase ~params ~gadget:g ~k:1));
  let s2 = (I.measure net g ~k:2).s_ingress in
  ignore (Phased.run net (Aqt.Pump.phase ~params ~gadget:g ~k:2));
  let m3 = I.measure net g ~k:3 in
  check_bool "C on gadget 3" true (I.holds_with_slack ~slack net g ~k:3);
  check_bool "second pump grows too" true
    (m3.s_ingress
    >= int_of_float (float_of_int s2 *. (1.0 +. R.to_float eps)))

(* Lemma 3.16: the stitch converts a drained egress queue into ~r^3 S fresh
   single-edge packets at the chain's ingress, leaving nothing else. *)
let stitch_postcondition () =
  let m_gadgets = 3 in
  let net, g = fresh_seeded ~m:m_gadgets ~seed in
  ignore (Phased.run net (Aqt.Startup.phase ~params ~gadget:g));
  ignore (Phased.run net (Aqt.Pump.phase ~params ~gadget:g ~k:1));
  ignore (Phased.run net (Aqt.Pump.phase ~params ~gadget:g ~k:2));
  (* Drain: idle until the egress holds the leftovers. *)
  let s_ing = N.buffer_len net (G.ingress g ~k:m_gadgets) in
  let driver = Phased.sequence [ Phased.idle (s_ing + params.n) ] in
  ignore (Sim.run ~net ~driver ~horizon:(s_ing + params.n) ());
  let egress = G.egress g ~k:m_gadgets in
  let s_before = N.buffer_len net egress in
  check_bool "drain left a queue at the egress" true (s_before > params.s0 / 2);
  (* All remaining routes are the single egress edge. *)
  List.iter
    (fun p ->
      check_int "remaining length 1" 1 (Aqt_engine.Packet.remaining p))
    (N.buffer_packets net egress);
  let tau = N.now net in
  let plan =
    Aqt.Stitch.plan ~rate:params.rate ~relay:(G.stitch_route g)
      ~start:(tau + 1) ~s:s_before
  in
  ignore (Phased.run net (Aqt.Stitch.phase ~rate:params.rate ~gadget:g));
  let fresh = N.buffer_packets net (G.ingress g ~k:1) in
  let n_fresh = List.length fresh in
  check_bool "fresh queue ~ r^3 S" true (abs (n_fresh - plan.r3s) <= slack);
  (* Everything else is gone. *)
  check_bool "network holds only the fresh seeds" true
    (N.in_flight net - n_fresh <= slack);
  (* Every queued packet is one hop from absorption, and all but a few
     stragglers were injected after tau + S (Lemma 3.16's freshness claim). *)
  List.iter
    (fun p ->
      check_int "remaining one hop" 1 (Aqt_engine.Packet.remaining p))
    fresh;
  let stale =
    List.length
      (List.filter
         (fun p -> p.Aqt_engine.Packet.injected_at <= tau + plan.s)
         fresh)
  in
  check_bool "seeds are fresh" true (stale <= slack)

(* Theorem 3.17: seeds grow strictly over full cycles, and the growth is
   sustained (each cycle multiplies by > 1.2 with the default actual-model
   chain length of margin 1.5 minus integrality losses). *)
let instability_growth () =
  let cfg = Aqt.Instability.config ~eps ~s0:400 ~cycles:3 () in
  let res = Aqt.Instability.run cfg in
  check_int "recorded cycles+1 stats" (cfg.cycles + 1)
    (Array.length res.stats);
  Array.iteri
    (fun i g ->
      if g <= 1.2 then
        Alcotest.failf "cycle %d growth %.3f not sustained" i g)
    res.growth;
  check_bool "queues grew overall" true
    (res.stats.(Array.length res.stats - 1).seed > 2 * res.stats.(0).seed)

(* The composed adversary is a legal rate-r adversary even with rerouting:
   Lemma 3.3, checked exactly. *)
let instability_rate_legal () =
  let cfg =
    Aqt.Instability.config ~eps ~s0:400 ~cycles:2 ~log_injections:true ()
  in
  let res = Aqt.Instability.run cfg in
  let m = Aqt_graph.Digraph.n_edges res.gadget.graph in
  let log = N.injection_log res.net in
  check_bool "nontrivial log" true (Array.length log > 10_000);
  check_bool "reroutes happened" true (N.reroute_count res.net > 1_000);
  (match Aqt_adversary.Rate_check.check_rate ~m ~rate:params.rate log with
  | Ok () -> ()
  | Error v ->
      Alcotest.failf "rate violated: %s"
        (Format.asprintf "%a" Aqt_adversary.Rate_check.pp_violation v));
  check_int "burstiness zero" 0
    (Aqt_adversary.Rate_check.burstiness ~m ~rate:params.rate log)

(* Lemma 3.3's equivalence: replaying the logged (time, final route) pairs as
   a static adversary under FIFO reproduces the exact same execution. *)
let replay_equivalence () =
  let cfg =
    Aqt.Instability.config ~eps ~s0:400 ~cycles:1 ~log_injections:true ()
  in
  let res = Aqt.Instability.run cfg in
  let log = N.injection_log res.net in
  let net2 =
    N.create ~log_injections:true ~graph:res.gadget.graph
      ~policy:Policies.fifo ()
  in
  (* Reproduce the initial configuration with its final effective routes —
     the first startup phase rerouted the seeds, and A' must inject those
     final routes from the start. *)
  let seeds = N.initial_final_routes res.net in
  check_int "all seeds logged" cfg.seed (Array.length seeds);
  Array.iter
    (fun route -> ignore (N.place_initial ~tag:"seed" net2 route))
    seeds;
  let adv = Aqt_adversary.Stock.replay ~rate:params.rate log in
  let _ =
    Sim.run ~net:net2 ~driver:adv.Aqt_adversary.Stock.driver
      ~horizon:(N.now res.net) ()
  in
  check_int "same absorbed" (N.absorbed res.net) (N.absorbed net2);
  check_int "same in flight" (N.in_flight res.net) (N.in_flight net2);
  check_int "same max queue" (N.max_queue_ever res.net) (N.max_queue_ever net2);
  (* Buffer-by-buffer equality of the final states. *)
  for e = 0 to Aqt_graph.Digraph.n_edges res.gadget.graph - 1 do
    check_int
      (Printf.sprintf "buffer %d equal" e)
      (N.buffer_len res.net e) (N.buffer_len net2 e)
  done

(* The same injection sequence does not destabilize LIS: Theorem 3.17 is a
   property of FIFO, not of the workload. *)
let construction_is_policy_specific () =
  let cfg =
    Aqt.Instability.config ~eps ~s0:400 ~cycles:2 ~log_injections:true ()
  in
  let res = Aqt.Instability.run cfg in
  let log = N.injection_log res.net in
  let fifo_backlog = N.in_flight res.net in
  let results =
    Aqt.Baselines.replay_against
      ~initial:(N.initial_final_routes res.net)
      ~graph:res.gadget.graph ~rate:params.rate ~log
      ~policies:[ Policies.lis; Policies.ftg ]
      ~settle:(2 * params.s0) ()
  in
  List.iter
    (fun (r : Aqt.Baselines.replay_result) ->
      check_bool
        (Printf.sprintf "%s backlog below FIFO's" r.policy)
        true
        (r.backlog < fifo_backlog / 2))
    results

(* Pointing the adaptive construction at other policies: resilient runs
   report the collapse instead of raising. *)
let resilient_collapse () =
  let cfg = Aqt.Instability.config ~eps ~s0:400 ~cycles:2 () in
  let fifo_run = Aqt.Instability.run ~resilient:true cfg in
  check_bool "fifo completes" true (fifo_run.collapsed = None);
  let ftg_run =
    Aqt.Instability.run ~policy:Policies.ftg ~resilient:true cfg
  in
  (match ftg_run.collapsed with
  | Some msg ->
      check_bool "ftg rejected at rerouting" true
        (String.length msg > 0
        && String.sub msg 0 13 = "Startup.phase")
  | None -> Alcotest.fail "FTG must collapse (not historic)");
  let lis_run =
    Aqt.Instability.run ~policy:Policies.lis ~resilient:true cfg
  in
  match lis_run.collapsed with
  | Some msg ->
      check_bool "lis collapses at the pump" true
        (String.length msg > 0 && String.sub msg 0 10 = "Pump.phase")
  | None -> Alcotest.fail "LIS must not sustain the invariant"

(* The Section 5 generalization: the asymmetric gadget F_(n,1) sustains the
   same growth and remains a legal rate-r adversary. *)
let lean_gadget_construction () =
  let cfg =
    Aqt.Instability.config ~eps ~s0:400 ~f_len:1 ~cycles:2
      ~log_injections:true ()
  in
  let res = Aqt.Instability.run cfg in
  check_bool "no collapse" true (res.collapsed = None);
  Array.iter
    (fun g ->
      if g <= 1.2 then Alcotest.failf "lean gadget growth %.3f not sustained" g)
    res.growth;
  (* Smaller graph than the symmetric one. *)
  let sym = G.cyclic ~n:cfg.params.n ~m:cfg.m () in
  check_bool "fewer edges" true
    (Aqt_graph.Digraph.n_edges res.gadget.graph
    < Aqt_graph.Digraph.n_edges sym.graph);
  (* Still a legal rate-r adversary after all the rerouting. *)
  let m = Aqt_graph.Digraph.n_edges res.gadget.graph in
  check_bool "rate-r legal" true
    (Aqt_adversary.Rate_check.check_rate ~m ~rate:params.rate
       (N.injection_log res.net)
    = Ok ())

(* Stitch plans are internally consistent for any queue size and rate. *)
let prop_stitch_plan_consistent =
  QCheck.Test.make ~name:"stitch plan volumes and duration are consistent"
    ~count:200
    (QCheck.triple
       (QCheck.pair (QCheck.int_range 1 9) (QCheck.int_range 2 10))
       (QCheck.int_range 1 5000) (QCheck.int_range 1 1000))
    (fun ((p', q'), s, start) ->
      QCheck.assume (p' < q');
      let rate = R.make p' q' in
      let g = G.cyclic ~n:3 ~m:2 () in
      let pl : Aqt.Stitch.plan =
        Aqt.Stitch.plan ~rate ~relay:(G.stitch_route g) ~start ~s
      in
      pl.rs = Aqt_util.Ratio.floor_mul rate s
      && pl.r2s = Aqt_util.Ratio.floor_mul rate pl.rs
      && pl.r3s = Aqt_util.Ratio.floor_mul rate pl.r2s
      && pl.r3s <= pl.r2s
      && pl.r2s <= pl.rs
      && pl.rs <= pl.s
      && pl.duration = pl.s + pl.rs + pl.r2s
      && List.fold_left (fun acc f -> acc + Aqt_adversary.Flow.total f) 0
           pl.flows
         = pl.rs + pl.r2s + pl.r3s)

let () =
  Alcotest.run "aqt_phases"
    [
      ( "lemma-3.15",
        [ Alcotest.test_case "startup postcondition" `Slow startup_postcondition ]
      );
      ( "lemma-3.6",
        [
          Alcotest.test_case "pump postcondition" `Slow pump_postcondition;
          Alcotest.test_case "pump composes" `Slow pump_composes;
        ] );
      ( "lemma-3.16",
        [ Alcotest.test_case "stitch postcondition" `Slow stitch_postcondition ]
      );
      ( "theorem-3.17",
        [
          Alcotest.test_case "seed growth" `Slow instability_growth;
          Alcotest.test_case "rate-r legality (Lemma 3.3)" `Slow
            instability_rate_legal;
          Alcotest.test_case "replay equivalence (Lemma 3.3)" `Slow
            replay_equivalence;
          Alcotest.test_case "policy specificity" `Slow
            construction_is_policy_specific;
          Alcotest.test_case "resilient collapse" `Slow resilient_collapse;
          Alcotest.test_case "lean gadget (Sec. 5)" `Slow
            lean_gadget_construction;
          QCheck_alcotest.to_alcotest prop_stitch_plan_consistent;
        ] );
    ]
