(** Latency-measuring load generator for the serve daemon.

    A single-domain poll(2) reactor ({!Evpoll}) driving up to thousands
    of concurrent nonblocking keep-alive connections over loopback,
    with pipelined requests encoded by {!Http.encode_request} and
    responses decoded incrementally by {!Http.Rparser}.  Request
    "sizes" are drawn from an empirical flow CDF (heavy-tailed, in the
    spirit of data-center web-search workloads) and carried as header
    padding, so the server's incremental parser sees realistic framing
    variety.

    Two driving disciplines:
    - {b closed-loop}: each connection keeps [pipeline] requests
      outstanding and tops up on every completion — offered load
      self-clocks to the server's service rate;
    - {b open-loop}: requests are issued on a fixed aggregate schedule
      regardless of completions.  Latency is measured from the
      {e scheduled} send instant, so generator-side queueing counts
      against the server (no coordinated omission).

    Latency lands in a {!Metrics} histogram ([loadgen_request_seconds],
    quantiles up to p999); per-status counts, errors and live
    connections are tracked alongside and can be journalled as a
    {!Aqt_harness.Journal.Snapshot}. *)

type mode =
  | Closed  (** self-clocked: [pipeline] outstanding per connection *)
  | Open of float  (** scheduled aggregate rate, requests/second *)

type config = {
  host : string;  (** Target address, default ["127.0.0.1"]. *)
  port : int;
  conns : int;  (** Concurrent keep-alive connections. *)
  requests : int;  (** Total requests to issue. *)
  mode : mode;
  pipeline : int;  (** Closed-loop outstanding depth per connection. *)
  paths : (int * string) list;  (** Weighted request-path mix. *)
  seed : int;  (** PRNG seed: same seed, same workload. *)
  run_timeout : float;  (** Hard wall on the whole run, seconds. *)
  quiet : bool;  (** Suppress the once-a-second progress line. *)
  snapshot_every : float;
      (** Capture a metrics snapshot every this many seconds while the
          run is in flight (plus one final snapshot); [0.] (default)
          captures nothing.  The series lands in {!result.snapshots} and
          is what {!write_journal} persists. *)
}

val default_config : config
(** Loopback:8080, 16 connections, 10k requests, closed-loop depth 4,
    all [/healthz].  Header padding always comes from the built-in
    web-search-style flow CDF. *)

type result = {
  issued : int;
  completed : int;  (** Full responses received. *)
  errors : int;  (** Issued but never answered. *)
  ok : int;  (** 200s *)
  shed : int;  (** 429s *)
  rejected : int;  (** 503s *)
  duration : float;  (** Seconds, on {!Aqt_util.Clock.monotonic}. *)
  throughput : float;  (** Completed responses per second. *)
  p50 : float;
  p99 : float;
  p999 : float;  (** Latency quantiles, seconds. *)
  metrics : Metrics.t;  (** The full registry behind the summary. *)
  snapshots : (float * (string * float) list) list;
      (** In-run metric snapshots as [(elapsed seconds, registry dump)],
          oldest first; empty unless [config.snapshot_every > 0]. *)
}

val run : config -> result
(** Drive the configured workload to completion (or [run_timeout]) and
    summarize.  Requests lost to a dead connection are counted as
    errors, never silently re-issued — re-issuing would inflate the
    admitted rate that selftests check against the server's (ρ,σ)
    envelope.  @raise Invalid_argument on a bad config. *)

val result_json : result -> Aqt_util.Jsonx.t
val result_csv : result -> string
(** ["metric,value"] lines — the CI artifact format. *)

val write_journal : path:string -> result -> unit
(** Append the result's metric series as
    {!Aqt_harness.Journal.Snapshot} events labelled ["loadgen"] — one
    per entry of {!result.snapshots}, each with an ["elapsed_s"] value
    prepended so readers can reconstruct the time axis without the wall
    clock.  With no in-run snapshots, appends a single final snapshot. *)

val selftest :
  ?quiet:bool ->
  ?requests:int ->
  ?conns:int ->
  ?rho:float ->
  ?sigma:int ->
  ?snapshot_every:float ->
  ?emit:(result -> unit) ->
  unit ->
  bool
(** Spin a private {!Server} on an ephemeral port, drive it closed-loop
    well past its (ρ,σ) budget, and check: every request is accounted
    for, some are shed, the admitted count fits the
    [ρ·T + σ] envelope (with jitter slack), and the answered p999 stays
    bounded.  [emit] receives the run's {!result} before the verdict —
    the CI job uses it to write the latency-CSV artifact.  Defaults are
    sized for a quick tier-1 check; CI calls it with
    [requests >= 1_000_000] and [conns >= 1000]. *)
