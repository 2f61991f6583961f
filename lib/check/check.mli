(** Conformance campaign driver: seeds in, shrunk reproducers out.

    Ties the pieces together for the CLI and the test suite: generate a
    scenario per seed ({!Gen}), run it differentially against the engine
    ({!Diff}), shrink any failure to a minimal reproducer ({!Shrink}), and
    render a report whose every failure is replayable from its seed and
    the run's flags ([aqt_sim check --seed K], plus [--family] and
    [--backend soa --domains] when the run had them). *)

type failure_report = {
  seed : int;
  original : Diff.failure;  (** What the unshrunk scenario reported. *)
  scenario : Gen.scenario;  (** The shrunk reproducer. *)
  failure : Diff.failure;  (** What the shrunk scenario reports. *)
  replay : string;
      (** The [aqt_sim check --seed K] command that replays it, with the
          run's [--family] and [--backend soa --domains] flags. *)
}

type summary = {
  seeds_run : int;
  failures : failure_report list;  (** Empty = the engine conforms. *)
}

val run_seeds :
  ?families:Gen.family list ->
  ?mutant:Diff.mutant ->
  ?soa_domains:int list ->
  ?base:int ->
  ?progress:(int -> unit) ->
  n:int ->
  unit ->
  summary
(** Seeds [base .. base + n - 1] ([base] defaults to 0); every failure is
    shrunk before being reported.  [progress] is called with the number of
    seeds completed. *)

val mutants : (string * Diff.mutant * Gen.family list) list
(** The differ's self-check: each mutant by name, with the families its
    scan draws from, chosen among those whose scenarios exercise the code
    it corrupts.  [skip-reroutes] needs a family that reroutes at all;
    [violate-local-budget] corrupts every arm alike, so only a locally
    bursty admissibility obligation can catch it.  [aqt_sim check
    --mutant-demo] and the test suite scan these. *)

val find_mutant_failure :
  ?families:Gen.family list ->
  ?soa_domains:int list ->
  ?max_seeds:int ->
  Diff.mutant ->
  (Gen.scenario * Diff.failure) option
(** Scan seeds until the mutant makes one diverge, then shrink it.  This
    is the self-check that the differ can actually catch engine bugs —
    used by the test suite and by [aqt_sim check --mutant-demo].  The
    mutant corrupts every engine arm, the Soa arms of [soa_domains]
    (as in {!run_seeds}) included. *)

val theorem_3_17 : ?horizon:int -> Aqt.Instability.config -> Gen.scenario
(** The paper's own run as an oracle scenario: Theorem 3.17's FIFO
    construction, run with its injection log, replayed as Lemma 3.3's
    static adversary A'.  The initial packets start on their final routes,
    and the injections logged at step [t] make up [schedule.(t - 1)], in
    log order; FIFO with transit-first ties, unbounded buffers, no reroute
    pass and no obligations.  The schedule covers the whole run, or its
    first [horizon] steps; a run whose phase collapsed (see
    [Instability.run ~resilient]) is replayed up to the collapse, and its
    label says so.  Its queues reach the hundreds, far beyond what
    the generated families draw, so {!Diff.run} meets the engine's ring
    growth and wrap-around at the paper's scale.  No family draws it:
    every seed keeps its scenario. *)

val pp_summary : Format.formatter -> summary -> unit
(** Human-readable report: pass line, or per-failure the seed, the
    failure, the shrunk scenario dump, and the replay command. *)
