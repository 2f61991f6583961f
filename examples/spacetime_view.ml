(* Watch the Lemma 3.6 pump move a queue from one gadget to the next.

     dune exec examples/spacetime_view.exe

   Renders a space-time heat map (rows = edges, columns = time) of a small
   gadget chain while the startup and pump adversaries run: the seed queue at
   a0 turns into the C(S, F(1)) invariant (standing queues on gadget 1's
   e-path), which the pump then transfers to gadget 2's e-path, larger. *)

module Ratio = Aqt_util.Ratio
module Spacetime = Aqt_engine.Spacetime
module Phased = Aqt_adversary.Phased
module G = Aqt.Gadget

let () =
  let eps = Ratio.make 1 5 in
  let params = Aqt.Params.make ~eps ~s0:60 () in
  let seed = (2 * params.s0) + 2 in
  let net, g = Aqt.Startup.seeded ~n:params.n ~m:2 seed in
  Printf.printf
    "Startup (Lemma 3.15) then pump (Lemma 3.6) on %s, %d seeds, r = %s.\n\n"
    (G.describe g) seed
    (Ratio.to_string params.rate);
  let st = Spacetime.make net in
  (* Each phase runs to completion, recording a space-time sample per step. *)
  let wrap = Spacetime.driver_wrap st in
  ignore (Phased.run ~wrap net (Aqt.Startup.phase ~params ~gadget:g));
  ignore
    (Phased.run ~wrap net (fun n t -> Aqt.Pump.phase ~params ~gadget:g ~k:1 n t));
  Spacetime.print st;
  Printf.printf
    "\nReading the map: a0's seed queue (top) feeds gadget 1's e-path (e1_*),\n\
     whose standing queues then migrate to gadget 2's e-path (e2_*) during\n\
     the pump, ending larger by the factor 2(1-R_n) = %.3f.\n"
    (Aqt.Params.pump_factor ~r:params.r ~n:params.n)
