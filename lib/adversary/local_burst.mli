(** The locally bursty adversary of Rosenbaum (arXiv:2208.09522).

    The classical (b, r) leaky-bucket adversary grants one {e global} burst
    allowance; the locally bursty model refines it to a per-edge budget: in
    every time interval [I] and for every edge [e], the adversary may inject
    at most [rho * |I| + sigma_e] packets whose routes require [e].  A small
    [sigma_e] on a bottleneck link coexisting with generous budgets
    elsewhere is exactly the regime the classical model cannot express.

    The concrete adversary is a set of token-bucket {!Flow}s (one per
    route, common per-flow rate) plus an optional one-off burst per flow at
    [t = 1].  The per-edge budgets [sigma_e] and the global [rho] are
    {e derived} from the flow set so the adversary provably satisfies its
    own condition ({!Aqt_adversary.Rate_check.check_local} re-verifies it
    exactly, in integer arithmetic, after every differential run). *)

type t = {
  name : string;
  rate : Aqt_util.Ratio.t;  (** The global [rho] of the (rho, sigma_e) model. *)
  sigmas : int array;
      (** Per-edge burst budgets, indexed by edge id (0 on unused edges). *)
  driver : Aqt_engine.Sim.driver;
}

val budgets :
  m:int ->
  flow_rate:Aqt_util.Ratio.t ->
  (int array * int) list ->
  Aqt_util.Ratio.t * int array
(** [budgets ~m ~flow_rate flows] derives [(rho, sigmas)] for a flow set of
    [(route, burst)] pairs on a graph with [m] edges: [rho = k_max *
    flow_rate] with [k_max] the largest number of flows sharing one edge,
    and [sigma_e] the sum of [burst_i + 1] over the flows using [e].
    @raise Invalid_argument on a negative burst, an out-of-range edge, or a
    flow set using no edge at all. *)

val make :
  ?name:string ->
  m:int ->
  flow_rate:Aqt_util.Ratio.t ->
  flows:(int array * int) list ->
  horizon:int ->
  unit ->
  t
(** [make ~m ~flow_rate ~flows ~horizon ()] builds the adversary: each
    [(route, burst)] pair becomes a rate-[flow_rate] token-bucket flow
    active on steps [1 .. horizon] plus [burst] extra packets at [t = 1].
    [rate] and [sigmas] are {!budgets} of the flow set.
    @raise Invalid_argument as {!budgets}, or if [flow_rate] is outside
    (0, 1] (per {!Flow.make}). *)
