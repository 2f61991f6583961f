module Network = Aqt_engine.Network
module Sim = Aqt_engine.Sim
module Phased = Aqt_adversary.Phased
module Dyn = Aqt_util.Dynarray_compat

type config = {
  params : Params.t;
  m : int;
  f_len : int;
  seed : int;
  cycles : int;
  max_steps : int;
  log_injections : bool;
}

let config ?n ?s0 ?m ?f_len ?seed ?cycles:(cycles_ = 3)
    ?(log_injections = false) ~eps () =
  let params = Params.make ?n ?s0 ~eps () in
  let m =
    match m with
    | Some m when m >= 2 -> m
    | Some _ -> invalid_arg "Instability.config: need at least 2 gadgets"
    | None -> Params.chain_length_actual ~r:params.r ~n:params.n
  in
  let seed =
    match seed with
    | Some s when s > 2 * params.s0 -> s
    | Some _ -> invalid_arg "Instability.config: seed must exceed 2*s0"
    | None -> (2 * params.s0) + 2
  in
  let f_len =
    match f_len with
    | Some l when l >= 1 && l <= params.n -> l
    | Some _ -> invalid_arg "Instability.config: f_len must be in [1, n]"
    | None -> params.n
  in
  let max_steps = 30_000_000 in
  { params; m; f_len; seed; cycles = cycles_; max_steps; log_injections }

type cycle_stat = { cycle : int; start_step : int; seed : int }

type result = {
  stats : cycle_stat array;
  growth : float array;
  outcome : Sim.outcome;
  net : Network.t;
  gadget : Gadget.t;
  collapsed : string option;
}

(* The drain tail of Lemma 3.13: after C(S, F(M)) is established, S + f_len
   idle steps leave at least S - f_len packets queued at the egress of F(M) —
   the ingress packets take f_len hops to arrive, everything else is already
   pipelined. *)
let drain_phase ~(gadget : Gadget.t) : Phased.phase =
 fun net _start ->
  let s_ingress =
    Network.buffer_len net (Gadget.ingress gadget ~k:gadget.Gadget.m_gadgets)
  in
  let duration = max 1 (s_ingress + gadget.Gadget.f_len) in
  (Sim.null_driver, duration)

let phases cfg gadget =
  let params = cfg.params in
  let pumps =
    List.init (cfg.m - 1) (fun idx : Phased.phase ->
        fun net start -> Pump.phase ~params ~gadget ~k:(idx + 1) net start)
  in
  let stitch : Phased.phase =
   fun net start -> Stitch.phase ~rate:params.rate ~gadget net start
  in
  (Startup.phase ~params ~gadget :: pumps)
  @ [ drain_phase ~gadget; stitch ]

let run ?policy ?tie_order ?(resilient = false) cfg =
  let net, gadget =
    Startup.seeded ?policy ?tie_order ~log_injections:cfg.log_injections
      ~f_len:cfg.f_len ~n:cfg.params.n ~m:cfg.m cfg.seed
  in
  let stats = Dyn.create () in
  let on_cycle k t =
    Dyn.push stats
      {
        cycle = k;
        start_step = t;
        seed = Network.buffer_len net (Gadget.ingress gadget ~k:1);
      }
  in
  let driver = Phased.cycle ~on_cycle (phases cfg gadget) in
  let stop_when _ =
    if Dyn.length stats > cfg.cycles then Some "cycles-complete" else None
  in
  let outcome, collapsed =
    match Sim.run ~stop_when ~net ~driver ~horizon:cfg.max_steps () with
    | outcome -> (outcome, None)
    | exception (Failure msg | Invalid_argument msg) when resilient ->
        ( {
            Sim.stop = Sim.Stopped "phase-collapse";
            steps_run = Network.now net;
            max_queue = Network.max_queue_ever net;
            max_dwell = Network.max_dwell net;
            dropped = Network.dropped net;
          },
          Some msg )
  in
  let stats = Dyn.to_array stats in
  let growth =
    Array.init
      (max 0 (Array.length stats - 1))
      (fun i ->
        float_of_int stats.(i + 1).seed /. float_of_int (max 1 stats.(i).seed))
  in
  { stats; growth; outcome; net; gadget; collapsed }
