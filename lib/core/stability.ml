module Ratio = Aqt_util.Ratio
module Network = Aqt_engine.Network

let floor_wr ~w ~rate = Ratio.floor_mul rate w

let greedy_applicable ~rate ~d =
  Ratio.(mul_int rate (d + 1) <= one)

let time_priority_applicable ~rate ~d = Ratio.(mul_int rate d <= one)

let dwell_bound ~rate ~w ~d ~time_priority =
  let applicable =
    if time_priority then time_priority_applicable ~rate ~d
    else greedy_applicable ~rate ~d
  in
  if applicable then Some (floor_wr ~w ~rate) else None

let converted_window ~s ~w ~rate ~r_star =
  if Ratio.(rate >= r_star) then
    invalid_arg "Stability.converted_window: need rate < r_star";
  let gap = Ratio.sub r_star rate in
  (* ceil ((s + w + 1) / gap) *)
  Ratio.ceil (Ratio.div (Ratio.of_int (s + w + 1)) gap)

let corollary_bound ~s ~w ~rate ~d ~time_priority =
  let r_star = if time_priority then Ratio.make 1 d else Ratio.make 1 (d + 1) in
  if Ratio.(rate >= r_star) then None
  else begin
    let w_star = converted_window ~s ~w ~rate ~r_star in
    Some (Ratio.floor_mul r_star w_star)
  end

let d_of_routes routes =
  List.fold_left (fun acc r -> max acc (Array.length r)) 0 routes

let delivery_bound ~rate ~w ~d ~time_priority =
  Option.map (fun dwell -> d * dwell) (dwell_bound ~rate ~w ~d ~time_priority)

let buffer_bound ~rate ~w ~d ~time_priority =
  Option.map
    (fun dwell ->
      (* Packets sharing a buffer were all injected within the last
         (d+1)*dwell steps; per edge, any interval of L steps admits at most
         (floor(L/w) + 1) * floor(w r) injections requiring it. *)
      let window_span = (d + 1) * dwell in
      ((window_span / w) + 1) * dwell)
    (dwell_bound ~rate ~w ~d ~time_priority)

let converted_driver ~initial ~(driver : Aqt_engine.Sim.driver) :
    Aqt_engine.Sim.driver =
  {
    before_step = (fun net t -> if t > 1 then driver.before_step net (t - 1));
    injections_at =
      (fun net t ->
        if t = 1 then
          List.map
            (fun route : Network.injection -> { route; tag = "initial" })
            (Array.to_list initial)
        else driver.injections_at net (t - 1));
    (* The wrapped adversary's clock is shifted by the synthetic first
       step, so its queue observations shift with it. *)
    observe_queues =
      Option.map
        (fun f queues t -> if t > 1 then f queues (t - 1))
        driver.Aqt_engine.Sim.observe_queues;
  }

type verdict = { bound : int; max_dwell_seen : int; max_pending : int; ok : bool }

let verify_run ?(s_initial = 0) ~w ~rate ~d net =
  let time_priority = (Network.policy net).time_priority in
  let bound =
    if s_initial = 0 then dwell_bound ~rate ~w ~d ~time_priority
    else corollary_bound ~s:s_initial ~w ~rate ~d ~time_priority
  in
  Option.map
    (fun bound ->
      let max_dwell_seen = Network.max_dwell net in
      let max_pending = Network.max_pending_dwell net in
      {
        bound;
        max_dwell_seen;
        max_pending;
        ok = max_dwell_seen <= bound && max_pending <= bound;
      })
    bound
