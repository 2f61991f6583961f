(** Stock adversaries for stability experiments and sweeps.

    Each value is a {!Aqt_engine.Sim.driver} plus metadata describing the
    constraint class it satisfies.  The deterministic ones satisfy their
    stated constraint exactly (validated in the test suite by
    {!Rate_check}); [bernoulli] satisfies it only in expectation and is
    marked accordingly.

    Injections are immutable, so the route-list adversaries build one
    injection record per route when they are made and every step's list
    repeats those records: a step allocates only its list cells. *)

type t = {
  name : string;
  rate : Aqt_util.Ratio.t;
  window : int option;  (** [Some w] if built as a (w,r) adversary. *)
  exact : bool;  (** Whether the constraint holds surely (vs in expectation). *)
  driver : Aqt_engine.Sim.driver;
}

val of_flows : name:string -> rate:Aqt_util.Ratio.t -> Flow.t list -> t
(** Wrap explicit flows; the caller asserts the constraint (tests verify). *)

val token_bucket :
  ?name:string ->
  rate:Aqt_util.Ratio.t ->
  routes:int array list ->
  horizon:int ->
  unit ->
  t
(** One token-bucket flow per route, each at rate [rate], active on
    [1 .. horizon].  Satisfies rate-r per edge provided the routes are
    edge-disjoint; for overlapping routes the per-edge rate is the sum of the
    rates of the routes using the edge — callers size [rate] accordingly. *)

val shared_token_bucket :
  ?name:string ->
  rate:Aqt_util.Ratio.t ->
  routes:int array list ->
  horizon:int ->
  unit ->
  t
(** A single token bucket at rate [rate]; each released packet takes the next
    route in round-robin order.  Aggregate injections on any edge are at most
    the bucket's, so the rate-r constraint holds on every edge regardless of
    route overlap. *)

val windowed_burst :
  ?name:string ->
  ?packed:bool ->
  w:int ->
  rate:Aqt_util.Ratio.t ->
  routes:int array list ->
  horizon:int ->
  unit ->
  t
(** The extremal (w,r) adversary: injects [floor (r * w)] packets per route at
    the start of every window of length [w].  With [packed] (default false)
    all of them land in the window's first step — the model permits
    simultaneous injections, and this drives dwell times toward the
    [floor (w r)] bound of Theorems 4.1/4.3; otherwise they are spread one
    per step over the window's first [floor (r * w)] steps.  Per-edge load is
    the sum over routes using the edge, as in [token_bucket]. *)

val leaky_bucket :
  ?name:string ->
  b:int ->
  rate:Aqt_util.Ratio.t ->
  routes:int array list ->
  horizon:int ->
  unit ->
  t
(** The extremal (b, r) leaky-bucket adversary of Borodin et al.: per route,
    [b] packets land in step 1 and the rest follow a rate-[r] token bucket —
    saturating [count <= r*len + b] on every prefix.  Per-edge load adds
    across routes sharing an edge, as in [token_bucket]. *)

val replay :
  ?name:string -> rate:Aqt_util.Ratio.t -> (int * int array) array -> t
(** Replays a recorded injection log: at step [t], injects every route logged
    with time [t].  Given the [(time, final route)] log of a run that used
    rerouting, this is precisely the equivalent static adversary A' of
    Lemma 3.3 — replaying it under the same historic policy reproduces the
    original execution step for step.  The driver is a pure function of the
    step number, so one value may drive any number of runs.  An unsorted
    log is replayed in time order; entries with equal times are injected
    in log order. *)

val bernoulli :
  ?name:string ->
  prng:Aqt_util.Prng.t ->
  rate:Aqt_util.Ratio.t ->
  routes:int array list ->
  unit ->
  t
(** Each step, independently for each route, injects one packet with
    probability [rate].  Average rate [rate] per route; not an exact
    adversary.  A step draws one coin per route, in route order, with
    {!Aqt_util.Prng.bernoulli_fill}: the coins of as many
    {!Aqt_util.Prng.bernoulli} draws.  A rate above 1 raises
    [Invalid_argument "Prng.bernoulli"] at the first step, unless
    [routes] is empty and nothing is drawn. *)
