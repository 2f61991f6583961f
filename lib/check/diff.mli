(** Differential execution: reference model vs. the fast engine.

    One scenario is executed three ways in lockstep — the naive
    {!Ref_model}, the engine on its zero-allocation fast path (no tracer),
    and the engine with a {!Aqt_engine.Trace}
    collector attached (one step loop, whose optional tracer must not
    change what it does).  After every step the full observable
    state is compared packet-by-packet: per-edge buffer contents in policy
    order, with each packet's id, injection time, hop, buffered-at time
    and full route.  The first mismatching step is reported precisely,
    which is what makes shrinking cheap.

    After the run, the invariant layer checks:

    - the engine's event trace forwards at most [speedup] packets per link
      per step, and the forwarded-edge multiset of every step equals the
      reference model's pre-step answer (greedy non-idling);
    - under a finite capacity model, no buffer ever exceeds its static cap
      and a shared pool never exceeds its total (checked after every step),
      and drop counts — total, displaced, per-edge — agree with the oracle;
    - end-of-run statistics agree (queue maxima, send counts, dwell,
      latency, Def 3.2 last-use times, drop and occupancy peaks);
    - the [(time, final route)] injection logs agree entry-for-entry;
    - packet conservation with drops:
      initial + injected = absorbed + in flight + dropped;
    - every scenario obligation: {!Aqt_adversary.Rate_check} admissibility
      for the scenario's adversary class, and the Theorem 4.1/4.3 dwell
      bound via [Aqt.Stability.verify_run] where a theorem applies.

    A {!mutant} deliberately corrupts the {e engine-side} execution while
    leaving the reference untouched; the committed test suite uses mutants
    to prove the differ actually detects and shrinks engine bugs (a
    checker that can never fail verifies nothing). *)

type mutant =
  | Drop_injection of int
      (** Silently skip the k-th (0-based, in schedule order) injection on
          the engine arms — models a lost packet. *)
  | Flip_tie_order
      (** Build the engine arms with the opposite substep-2 tie order —
          models a tie-breaking regression. *)
  | Skip_reroutes
      (** Engine arms ignore the reroute pass — models a reroute that
          fails to apply. *)
  | Ignore_capacity
      (** Engine arms run the paper's unbounded unit-speed regime while the
          reference enforces the scenario's capacity model — models an
          admission test that silently stopped running.  Only capacity-family
          scenarios can expose it. *)
  | Violate_local_budget
      (** Corrupt the schedule {e identically for all arms} — replay one
          injection [sigma_e + 1] extra times — so the adversary escapes its
          declared (rho, sigma_e) budget without any arm diverging.  By
          construction the differential layer cannot see it: only the
          [Local_ok] admissibility obligation can.  Only local-family
          scenarios expose it. *)

type failure = {
  kind : string;  (** "divergence", "trace-invariant", "rate", ... *)
  step : int option;  (** First failing step, when the check is per-step. *)
  detail : string;
}

val pp_failure : Format.formatter -> failure -> unit

val run :
  ?mutant:mutant -> ?soa_domains:int list -> Gen.scenario -> failure option
(** [None] = the engine conforms on this scenario and every obligation
    holds.  Deterministic: same scenario, same answer.

    [soa_domains] adds one {!Aqt_engine.Soa} arm per listed domain count
    (e.g. [[1; 2; 4]]) to the lockstep comparison: buffers each step,
    stats, logs and conservation at the end — the byte-identical-trajectory
    guarantee of the struct-of-arrays backend, sequential and parallel.
    Worker domains are shut down on every exit path.  Default: no SoA
    arms. *)
