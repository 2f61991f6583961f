(** Seeded generation of random conformance scenarios.

    Every scenario is derived deterministically from a single integer seed
    via {!Aqt_util.Prng} (splitmix64), so any failure the differential
    driver finds is replayable from the seed alone — on any machine,
    forever.  A scenario bundles a topology, a policy, a tie order, an
    initial configuration, a fully materialised per-step injection
    schedule, and the list of {e obligations} the run must satisfy beyond
    agreeing with the reference model.

    Eight families are drawn (the family is the seed's first decision):

    - {b free}: arbitrary injection schedules over rings and lines, any
      deterministic policy, optional rerouting — maximal schedule
      diversity, differential checking only;
    - {b shared-bucket}: a {!Aqt_adversary.Stock.shared_token_bucket}
      adversary over overlapping routes — the injection log must pass the
      all-intervals rate-r check ([Rate_ok]);
    - {b windowed}: a (w,r) {!Aqt_adversary.Stock.windowed_burst} over
      edge-disjoint routes, with the rate chosen against the route length
      [d] so Theorem 4.1 (r = 1/(d+1), any greedy policy) or Theorem 4.3
      (r = 1/d, time-priority policies) applies — obligations
      [Windowed_ok] and [Dwell_bound];
    - {b leaky}: a (b,r) {!Aqt_adversary.Stock.leaky_bucket} over
      edge-disjoint routes — obligation [Leaky_ok];
    - {b capacity}: dense free-style schedules against a finite
      {!Aqt_capacity.Model} — small uniform, per-edge or Dynamic-Threshold
      shared buffers under every drop discipline, link speedups 1..3 — so
      the engine's admission, eviction and multi-send decisions are
      differentially checked against the oracle's;
    - {b local}: a {!Aqt_adversary.Local_burst} locally bursty adversary
      (arXiv:2208.09522) — one token-bucket flow per route plus per-flow
      one-off bursts, with the (rho, sigma_e) budgets derived from the
      flow set — obligation [Local_ok];
    - {b feedback}: feedback-driven routing (arXiv:1812.11113,
      {!Aqt_adversary.Feedback}) — the schedule stores only per-step
      release counts; each differential arm re-derives the greedy route
      choice and the hot-edge truncation pass from its {e own} observed
      queue vector, so observation divergence becomes buffer divergence —
      obligation [Rate_ok] (one aggregate release bucket bounds every edge
      regardless of route choice);
    - {b fabric}: a tiny spine-leaf or fat-tree with ECMP route sets and a
      flow-level {!Aqt_workload.Traffic} workload compiled to an
      admissible schedule, under unbounded or small shared-DT buffers —
      obligations [Local_ok] (the compiled (rho, sigma_e) budget holds on
      the log), [Routes_valid] and [Drop_accounting].

    All families except {b capacity} and {b fabric} carry the unbounded
    capacity model, so the paper's regime keeps its full differential
    coverage.

    Schedules from stock adversaries are materialised once at generation
    time, so the reference model, the fast engine and the traced engine
    all replay byte-identical injection sequences.  Excluded by design:
    the [bernoulli] adversary and the [random] policy — both consume a
    mutable PRNG {e during} the run, so two arms would not see the same
    draws. *)

type obligation =
  | Rate_ok of Aqt_util.Ratio.t
      (** Injection log must pass [Rate_check.check_rate]. *)
  | Windowed_ok of { w : int; rate : Aqt_util.Ratio.t }
      (** Must pass [Rate_check.check_windowed] (Def 2.1). *)
  | Leaky_ok of { b : int; rate : Aqt_util.Ratio.t }
      (** Must pass [Rate_check.check_leaky]. *)
  | Local_ok of { rate : Aqt_util.Ratio.t; sigmas : int array }
      (** Must pass [Rate_check.check_local] (locally bursty,
          arXiv:2208.09522). *)
  | Dwell_bound of { w : int; rate : Aqt_util.Ratio.t; d : int }
      (** [Aqt.Stability.verify_run] must not report a violated theorem
          bound (scenarios where no theorem applies verify vacuously). *)
  | Routes_valid
      (** Every route in the injection log is a simple path of the
          scenario graph ([Digraph.route_is_simple]). *)
  | Drop_accounting
      (** Per-edge drop counters sum to the global drop counter,
          displacements never exceed drops, and an unbounded capacity
          model drops nothing. *)

type feedback = { pool : int array array; hot : int }
(** The feedback-routing scenario parameters: the candidate route pool and
    the queue-length truncation threshold.  Present only on the
    {b feedback} family; the differ re-derives route choices per arm with
    {!Aqt_adversary.Feedback.assign} and truncations with
    {!Aqt_adversary.Feedback.should_truncate}. *)

type scenario = {
  seed : int;
  label : string;  (** Family, topology, policy, tie order — for humans. *)
  graph : Aqt_graph.Digraph.t;
  policy : Aqt_engine.Policy_type.t;
  tie_order : Aqt_engine.Network.tie_order;
  initial : int array list;  (** Routes placed at time 0. *)
  schedule : Aqt_engine.Network.injection list array;
      (** [schedule.(i)] arrives in the second substep of step [i + 1];
          the horizon is the array length. *)
  reroutes : bool;
      (** Run the deterministic truncation-reroute pass before each step. *)
  capacity : Aqt_capacity.Model.t;
      (** The buffer/speedup regime the reference and every engine arm run
          under; unbounded for every family except {b capacity} and
          {b fabric}. *)
  feedback : feedback option;
      (** When [Some], routes in [schedule] are placeholders: each arm
          reassigns them online from its own queue observations. *)
  obligations : obligation list;
}

val horizon : scenario -> int

type family =
  | Free
  | Shared_bucket
  | Windowed
  | Leaky
  | Capacity_regime
  | Local_bursty
  | Feedback_routing
  | Fabric

val all_families : family list

val family_name : family -> string
(** The CLI name: ["free"], ["shared-bucket"], ["windowed"], ["leaky"],
    ["capacity"], ["local"], ["feedback"], ["fabric"]. *)

val family_of_string : string -> family option
(** Inverse of {!family_name} (also accepts ["shared"], ["local-burst"]
    and ["dc"]). *)

val generate : ?families:family list -> int -> scenario
(** The scenario of a seed, drawn from [families] (default: all eight).
    Total: every seed yields a well-formed scenario.  Restricting
    [families] changes which scenario a given seed maps to.
    @raise Invalid_argument on an empty family list. *)

val pp : Format.formatter -> scenario -> unit
(** Full human-readable dump: label, sizes, initial routes, the nonempty
    schedule entries, obligations.  This is what a shrunk reproducer
    prints. *)
