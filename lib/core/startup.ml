module Network = Aqt_engine.Network
module Sim = Aqt_engine.Sim
module Flow = Aqt_adversary.Flow
module Phased = Aqt_adversary.Phased

let seeded ?(policy = Aqt_policy.Policies.fifo) ?tie_order ?log_injections
    ?f_len ~n ~m seeds =
  let gadget = Gadget.cyclic ?f_len ~n ~m () in
  let net =
    Network.create ?log_injections ?tie_order ~graph:gadget.graph ~policy ()
  in
  let route = Gadget.seed_route gadget in
  for _ = 1 to seeds do
    ignore (Network.place_initial ~tag:"seed" net route)
  done;
  (net, gadget)

type plan = {
  total_seed : int;
  duration : int;
  s_target : int;
  short_flows : Flow.t list;
  stream_counter : Flow.t;
}

let plan ~(params : Params.t) ~gadget ~start ~total_seed =
  let tau = start - 1 in
  let r = params.r and n = params.n and rate = params.rate in
  let s_target = Params.s' ~r ~n ~total_old:total_seed in
  let short_flows =
    List.init n (fun idx ->
        let i = idx + 1 in
        let ti = Params.ti ~r ~n ~total_old:total_seed ~i in
        (* Lemma 3.15 runs the short flow of edge i over [i, t_i]. *)
        Flow.make ~tag:(Printf.sprintf "short%d" i)
          ~route:[| gadget.Gadget.e.(0).(i - 1) |]
          ~rate ~start:(tau + i)
          ~stop:(tau + max i ti)
          ())
  in
  let stream_counter =
    Flow.make ~tag:"stream" ~max_total:(s_target + n)
      ~route:(Gadget.seed_route gadget) ~rate ~start:(tau + 1)
      ~stop:(tau + total_seed) ()
  in
  { total_seed; duration = total_seed + n; s_target; short_flows; stream_counter }

let phase ~params ~gadget : Phased.phase =
 fun net start ->
  let ingress = Gadget.ingress gadget ~k:1 in
  let seeds =
    List.filter
      (fun (p : Aqt_engine.Packet.t) -> Aqt_engine.Packet.remaining p = 1)
      (Network.buffer_packets net ingress)
  in
  let total_seed = List.length seeds in
  if total_seed < 2 * params.Params.n then
    failwith
      (Printf.sprintf
         "Startup.phase: only %d seed packets at the ingress (need >= 2n = %d)"
         total_seed (2 * params.Params.n));
  (match
     Reroute.extend_all ~rate:params.Params.rate net ~packets:seeds
       ~suffix:(Gadget.startup_extension gadget)
   with
  | Ok () -> ()
  | Error e ->
      failwith
        (Format.asprintf "Startup.phase: rerouting rejected: %a"
           Reroute.pp_error e));
  let p = plan ~params ~gadget ~start ~total_seed in
  let n = params.Params.n in
  let short_route = Gadget.seed_route gadget in
  let long_route = Gadget.startup_long_route gadget in
  let injections _ t =
    let stream =
      let before = Flow.cumulative p.stream_counter (t - 1) in
      let count = Flow.count_at p.stream_counter t in
      List.init count (fun j : Network.injection ->
          if before + j < n then { route = short_route; tag = "pad" }
          else { route = long_route; tag = "stream" })
    in
    stream @ Flow.injections_at p.short_flows t
  in
  (Sim.injections_only injections, p.duration)
