module Ratio = Aqt_util.Ratio
module Network = Aqt_engine.Network
module Sim = Aqt_engine.Sim

type threshold = { source : string; year : int; rate : float; note : string }

let fifo_instability_thresholds =
  [
    {
      source = "Andrews et al. [4]";
      year = 2001;
      rate = 0.85;
      note = "first FIFO instability bound";
    };
    {
      source = "Diaz et al. [11]";
      year = 2001;
      rate = 0.8357;
      note = "improved construction";
    };
    {
      source = "Koukopoulos et al. [15]";
      year = 2001;
      rate = 0.749;
      note = "heterogeneous-network techniques";
    };
    {
      source = "this paper (Thm 3.17)";
      year = 2002;
      rate = 0.5;
      note = "unstable at 1/2 + eps for every eps > 0";
    };
    {
      source = "Bhattacharjee-Goel [8]";
      year = 2003;
      rate = 0.0;
      note = "subsequent work: unstable at arbitrarily low rates";
    };
  ]

let diaz_stability_bound ~d ~m ~alpha =
  if d < 1 || m < 1 || alpha < 1 then invalid_arg "Baselines.diaz_stability_bound";
  Ratio.make 1 (2 * d * m * alpha)

let this_paper_bound ~d =
  if d < 1 then invalid_arg "Baselines.this_paper_bound";
  Ratio.make 1 d

type replay_result = {
  policy : string;
  max_queue : int;
  backlog : int;
  absorbed : int;
  max_dwell : int;
}

let replay_against ?(initial = [||]) ~graph ~rate ~log ~policies ~settle () =
  let last_injection =
    Array.fold_left (fun acc (t, _) -> if t > acc then t else acc) 0 log
  in
  (* The replay driver is a pure function of the step number, so one
     schedule serves every policy. *)
  let driver = (Aqt_adversary.Stock.replay ~rate log).driver in
  List.map
    (fun policy ->
      let net = Network.create ~graph ~policy () in
      Array.iter
        (fun route -> ignore (Network.place_initial ~tag:"seed" net route))
        initial;
      let horizon = last_injection + settle in
      let _ = Sim.run ~net ~driver ~horizon () in
      {
        policy = policy.Aqt_engine.Policy_type.name;
        max_queue = Network.max_queue_ever net;
        backlog = Network.in_flight net;
        absorbed = Network.absorbed net;
        max_dwell = Network.max_dwell net;
      })
    policies
