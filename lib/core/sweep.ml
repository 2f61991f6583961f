module Network = Aqt_engine.Network
module Sim = Aqt_engine.Sim
module Recorder = Aqt_engine.Recorder

type verdict = Stable | Growing | Blowup

let verdict_to_string = function
  | Stable -> "stable"
  | Growing -> "growing"
  | Blowup -> "blowup"

type report = {
  name : string;
  policy : string;
  rate : Aqt_util.Ratio.t;
  verdict : verdict;
  max_queue : int;
  mid_backlog : int;
  final_backlog : int;
  steps_run : int;
}

let classify ?(blowup = 200_000) ?route_table ~name ~graph ~policy ~adversary
    ~horizon () =
  (* A caller-supplied [route_table] amortises route validation across the
     cells of a sweep grid (same graph, same route set, many policy/rate
     combinations). *)
  let net = Network.create ?route_table ~graph ~policy () in
  let recorder = Recorder.make ~every:(max 1 (horizon / 200)) () in
  let outcome =
    Sim.run ~recorder ~blowup ~net
      ~driver:adversary.Aqt_adversary.Stock.driver ~horizon ()
  in
  let samples = Recorder.samples recorder in
  let backlog_at frac =
    if Array.length samples = 0 then Network.in_flight net
    else
      samples.(min (Array.length samples - 1)
                 (int_of_float (frac *. float_of_int (Array.length samples))))
        .Recorder.in_flight
  in
  let mid_backlog = backlog_at 0.5 in
  let final_backlog = Network.in_flight net in
  let verdict =
    match outcome.Sim.stop with
    | Sim.Blowup _ -> Blowup
    | _ ->
        (* Linear growth from an empty start has final = 2 * mid exactly, so
           a factor-2 test would miss it; 1.5x plus an additive floor flags
           sustained growth while tolerating bounded oscillation. *)
        if final_backlog > (3 * mid_backlog / 2) + 20 then Growing else Stable
  in
  {
    name;
    policy = policy.Aqt_engine.Policy_type.name;
    rate = adversary.Aqt_adversary.Stock.rate;
    verdict;
    max_queue = Network.max_queue_ever net;
    mid_backlog;
    final_backlog;
    steps_run = outcome.Sim.steps_run;
  }
