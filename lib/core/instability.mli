(** Theorem 3.17: FIFO is unstable at rate 1/2 + ε.

    The composed adversary iterates cycles on the cyclic chain of M gadgets:

    + {b startup} (Lemma 3.15): seeds at the ingress of F(1) become
      C(S2, F(1)) with S2 >= (S1/2)(1+ε);
    + {b pump} k = 1..M-1 (Lemma 3.6): C(S, F(k)) becomes C(S(1+ε), F(k+1));
    + {b drain} (Lemma 3.13's tail): idle S+n steps, leaving >= S-n >= S/2
      packets queued at the egress of F(M) with one-edge remaining routes;
    + {b stitch} (Lemma 3.16): converts them to r^3-fraction fresh seeds at
      the ingress of F(1).

    Per cycle the seed queue multiplies by at least r^3 (1+ε)^M / 4 > 1 for
    M large enough, so queues grow without bound — instability.

    [run] executes the construction on a real network and reports the seed
    size at the start of every cycle. *)

type config = {
  params : Params.t;
  m : int;  (** Number of daisy-chained gadgets. *)
  f_len : int;  (** f-path length; [n] is the paper's symmetric gadget. *)
  seed : int;  (** Initial packets at the ingress of F(1); > 2 * s0. *)
  cycles : int;  (** Full cycles to run. *)
  max_steps : int;  (** Safety cap on total simulated steps. *)
  log_injections : bool;  (** Keep the injection log for rate validation. *)
}

val config :
  ?n:int ->
  ?s0:int ->
  ?m:int ->
  ?f_len:int ->
  ?seed:int ->
  ?cycles:int ->
  ?log_injections:bool ->
  eps:Aqt_util.Ratio.t ->
  unit ->
  config
(** Defaults: [n], [s0] from {!Params.make}; [m] from
    {!Params.chain_length_actual} (the exact growth model — the theorem's own
    pessimistic M makes cycles enormously longer without changing the
    conclusion); [seed = 2 * s0 + 2]; [cycles = 3];
    [max_steps = 30_000_000]; no injection log. *)

type cycle_stat = {
  cycle : int;
  start_step : int;
  seed : int;  (** Packets queued at the ingress of F(1) when the cycle begins. *)
}

type result = {
  stats : cycle_stat array;  (** [cycles + 1] entries: seed before each cycle
                                 and after the last. *)
  growth : float array;  (** Consecutive seed ratios. *)
  outcome : Aqt_engine.Sim.outcome;
  net : Aqt_engine.Network.t;
  gadget : Gadget.t;
  collapsed : string option;
      (** [Some msg] when a phase's measured preconditions failed and the run
          stopped there — e.g. when the construction is pointed at a policy
          it does not destabilize.  [run] raises instead unless
          [resilient:true]. *)
}

val run :
  ?policy:Aqt_engine.Policy_type.t ->
  ?tie_order:Aqt_engine.Network.tie_order ->
  ?resilient:bool ->
  config ->
  result
(** Runs the construction (FIFO, transit-first ties by default).
    @raise Failure if a phase's measured preconditions fail — which is itself
    an experimental signal — unless [resilient] is set, in which case the
    failure is recorded in [collapsed] and the partial statistics are
    returned. *)

val phases : config -> Gadget.t -> Aqt_adversary.Phased.phase list
(** One cycle's phase list, exposed for tests and partial runs. *)
