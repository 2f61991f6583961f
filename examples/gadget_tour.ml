(* A tour of the Section 3 machinery, one lemma at a time.

     dune exec examples/gadget_tour.exe

   Builds the Figure 3.1 / 3.2 graphs, establishes the invariant C(S, F(1))
   with the startup adversary, pumps it to the next gadget, drains, and
   stitches — printing the measured state against the paper's predictions at
   every stage. *)

module Ratio = Aqt_util.Ratio
module Network = Aqt_engine.Network
module Sim = Aqt_engine.Sim
module Phased = Aqt_adversary.Phased
module G = Aqt.Gadget
module I = Aqt.Invariant

let show_invariant net g ~k =
  let m = I.measure net g ~k in
  Printf.printf
    "  C(S, F(%d)): e-path=%d ingress=%d empty-bufs=%d bad-routes=%d \
     extraneous=%d\n"
    k m.s_epath m.s_ingress m.empty_e_buffers
    (m.bad_e_routes + m.bad_ingress_routes)
    m.extraneous

let () =
  let eps = Ratio.make 1 5 in
  let params = Aqt.Params.make ~eps ~s0:500 () in
  Printf.printf "epsilon = %s, so r = %s; derived n = %d, S0 = %d\n"
    (Ratio.to_string eps)
    (Ratio.to_string params.rate)
    params.n params.s0;
  Printf.printf "pump factor 2(1 - R_n) = %.4f (paper guarantees >= 1+eps = %.2f)\n\n"
    (Aqt.Params.pump_factor ~r:params.r ~n:params.n)
    (1.0 +. Ratio.to_float eps);

  (* Figure 3.1: two gadgets in a chain. *)
  let fig31 = G.chain ~n:4 ~m:2 () in
  Printf.printf "Figure 3.1  %s (acyclic: %b)\n" (G.describe fig31)
    (Aqt_graph.Digraph.is_dag fig31.graph);

  (* Figure 3.2: the cyclic construction. *)
  let m_gadgets = 3 in
  let g = G.cyclic ~n:params.n ~m:m_gadgets () in
  Printf.printf "Figure 3.2  %s (acyclic: %b)\n\n" (G.describe g)
    (Aqt_graph.Digraph.is_dag g.graph);

  let net =
    Network.create ~graph:g.graph ~policy:Aqt_policy.Policies.fifo ()
  in
  let seed = (2 * params.s0) + 2 in
  for _ = 1 to seed do
    ignore (Network.place_initial ~tag:"seed" net (G.seed_route g))
  done;
  Printf.printf "Seeded %d single-edge packets at the ingress of F(1).\n\n" seed;

  (* Lemma 3.15. *)
  let d = Phased.run net (Aqt.Startup.phase ~params ~gadget:g) in
  Printf.printf "Lemma 3.15 (startup), %d steps:\n" d;
  show_invariant net g ~k:1;
  let s1 = (I.measure net g ~k:1).s_ingress in
  Printf.printf "  predicted S' = %d\n\n"
    (Aqt.Params.s' ~r:params.r ~n:params.n ~total_old:seed);

  (* Lemma 3.6, twice. *)
  let d = Phased.run net (Aqt.Pump.phase ~params ~gadget:g ~k:1) in
  Printf.printf "Lemma 3.6 (pump 1 -> 2), %d steps:\n" d;
  show_invariant net g ~k:2;
  let s2 = (I.measure net g ~k:2).s_ingress in
  Printf.printf "  growth %.4f (prediction %.4f)\n\n"
    (float_of_int s2 /. float_of_int s1)
    (Aqt.Params.pump_factor ~r:params.r ~n:params.n);

  let d = Phased.run net (Aqt.Pump.phase ~params ~gadget:g ~k:2) in
  Printf.printf "Lemma 3.6 (pump 2 -> 3), %d steps:\n" d;
  show_invariant net g ~k:3;

  (* Drain, then Lemma 3.16. *)
  let s_ing = Network.buffer_len net (G.ingress g ~k:m_gadgets) in
  let drain = s_ing + params.n in
  ignore
    (Sim.run ~net
       ~driver:(Phased.sequence [ Phased.idle drain ])
       ~horizon:drain ());
  let egress_q = Network.buffer_len net (G.egress g ~k:m_gadgets) in
  Printf.printf "Drain (%d idle steps): %d packets queued at the egress.\n\n"
    drain egress_q;

  let d = Phased.run net (Aqt.Stitch.phase ~rate:params.rate ~gadget:g) in
  let fresh = Network.buffer_len net (G.ingress g ~k:1) in
  Printf.printf "Lemma 3.16 (stitch), %d steps: %d fresh seeds (r^3 * %d = %d)\n"
    d fresh egress_q
    (Ratio.floor_mul params.rate
       (Ratio.floor_mul params.rate (Ratio.floor_mul params.rate egress_q)));
  Printf.printf "network now holds %d packets total\n" (Network.in_flight net);
  Printf.printf
    "\nOne full cycle: %d seeds -> %d seeds.  Chain enough gadgets (M per\n\
     Params.chain_length_actual) and the cycle multiplies the queue, proving\n\
     FIFO unstable at rate %s (Theorem 3.17).\n"
    seed fresh
    (Ratio.to_string params.rate)
