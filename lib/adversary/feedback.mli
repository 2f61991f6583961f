(** Feedback-driven routing: the adversarial-routing-with-feedback model of
    Chlebus, Cholvi and Kowalski (arXiv:1812.11113).

    Unlike every other adversary in this library, routes are not fixed at
    injection time as a pure function of the step number: the adversary
    {e observes the per-edge queue lengths at the start of each step} and
    reacts — released packets are steered onto the currently least-loaded
    candidate route, and buffered packets stuck on a congested edge have
    their remaining route truncated through the engine's Lemma 3.3 reroute
    path.  The observation arrives through {!Aqt_engine.Sim.driver}'s
    [observe_queues] hook, so the adversary sees exactly the state the
    stability theorems quantify over.

    Admissibility is by construction, not by luck: releases come from one
    aggregate-rate token bucket, so every edge's count over any interval is
    bounded by the total release count regardless of which routes the
    feedback rule picks — the final injection log always passes
    {!Rate_check.check_rate}.  Truncations only shorten routes, which never
    adds demand (Lemma 3.3's direction).

    The decision rules ({!assign}, {!should_truncate}) are pure functions
    of the observed queue vector, exposed so the differential harness
    ([Aqt_check.Diff]) can re-derive the identical choices independently on
    the reference model, the record engine and the SoA backend. *)

val route_cost : int array -> int array -> int
(** [route_cost queues route] is the total backlog along [route]. *)

val assign : queues:int array -> pool:int array array -> int -> int array list
(** [assign ~queues ~pool n] routes [n] same-step releases greedily: each
    takes the pool route with the least total backlog (ties to the lowest
    pool index), counting virtual load from the packets already placed this
    step.  Pure: identical inputs give identical choices.
    @raise Invalid_argument on an empty pool. *)

val should_truncate :
  queues:int array -> hot:int -> edge:int -> remaining:int -> bool
(** The truncation rule: a packet buffered on an edge whose queue length
    has reached [hot], with more than one remaining hop, gives up the rest
    of its route (it is absorbed after crossing its current edge). *)

type t = {
  name : string;
  rate : Aqt_util.Ratio.t;  (** Aggregate release rate. *)
  pool : int array array;  (** Candidate routes. *)
  hot : int;  (** Queue length that triggers truncation. *)
  driver : Aqt_engine.Sim.driver;
}

val make :
  ?name:string ->
  rate:Aqt_util.Ratio.t ->
  pool:int array array ->
  hot:int ->
  horizon:int ->
  unit ->
  t
(** [make ~rate ~pool ~hot ~horizon ()] builds the driver: a rate-[rate]
    release bucket active on steps [1 .. horizon], {!assign} route choice,
    {!should_truncate} rerouting in [before_step].  The driver prefers the
    queue vector delivered by [observe_queues] and falls back to reading
    the network directly when stepped outside {!Aqt_engine.Sim} (the two
    agree: both precede the step's forwards).
    @raise Invalid_argument on an empty pool, [hot < 1], or a rate outside
    (0, 1]. *)
