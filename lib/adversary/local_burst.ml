module Ratio = Aqt_util.Ratio
module Sim = Aqt_engine.Sim

type t = {
  name : string;
  rate : Ratio.t;
  sigmas : int array;
  driver : Sim.driver;
}

(* Per-edge budgets derived from the flow set, tight enough that the
   adversary provably satisfies its own (rho, sigma_e) condition:

   - each token-bucket flow of rate r_f contributes at most
     [floor (r_f * len) + 1] packets to any interval of [len] steps on the
     edges its route uses, plus its one-off burst [b_i] at t = 1;
   - an edge used by [k_e] flows therefore sees at most
     [k_e * floor (r_f * len) + sum_(i on e) (b_i + 1)] packets, and
     [k_e * floor (r_f * len) <= floor (k_max * r_f * len)] whenever
     [k_e <= k_max].

   So [rho = k_max * r_f] and [sigma_e = sum_(i on e) (b_i + 1)] make every
   interval admissible by construction — exactly the shape
   [Rate_check.check_local] verifies after the run. *)
let budgets ~m ~flow_rate flows =
  let k = Array.make m 0 in
  let sigmas = Array.make m 0 in
  List.iter
    (fun (route, burst) ->
      if burst < 0 then invalid_arg "Local_burst: negative burst";
      Array.iter
        (fun e ->
          if e < 0 || e >= m then invalid_arg "Local_burst: edge out of range";
          k.(e) <- k.(e) + 1;
          sigmas.(e) <- sigmas.(e) + burst + 1)
        route)
    flows;
  let k_max = Array.fold_left max 0 k in
  if k_max = 0 then invalid_arg "Local_burst: no flow uses any edge";
  (Ratio.mul_int flow_rate k_max, sigmas)

let make ?(name = "local-burst") ~m ~flow_rate ~flows ~horizon () =
  let rate, sigmas = budgets ~m ~flow_rate flows in
  let token_flows =
    List.map
      (fun (route, _) ->
        Flow.make ~tag:name ~route ~rate:flow_rate ~start:1 ~stop:horizon ())
      flows
  in
  let driver =
    Sim.injections_only (fun _ t ->
        let burst =
          if t = 1 then
            List.concat_map
              (fun (route, b) ->
                List.init b (fun _ : Aqt_engine.Network.injection ->
                    { route; tag = name }))
              flows
          else []
        in
        burst @ Flow.injections_at token_flows t)
  in
  { name; rate; sigmas; driver }
