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

    The run keeps one record per request (latency origin, the instant
    it was answered or lost, HTTP status) and derives everything else
    from it after the run: the per-status counts, exact quantiles, the
    journal's time series and the (ρ,σ) {!envelope_checks}. *)

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
  p999 : float;  (** Exact latency quantiles, seconds ({!quantile}). *)
  origin : float array;
  finish : float array;
  status : int array;
      (** One record per request, by id in issue order, sized by
          [config.requests]: latency origin and the instant it was
          answered or lost, in seconds since the run started ([nan] if
          never issued), and the HTTP status ([0]: lost or not issued). *)
}

val run : config -> result
(** Drive the configured workload to completion (or [run_timeout]) and
    summarize.  Requests lost to a dead connection are counted as
    errors, never silently re-issued — re-issuing would inflate the
    admitted rate that {!envelope_checks} compares against the server's
    (ρ,σ) envelope.  @raise Invalid_argument on a bad config. *)

val quantile : float array -> float -> float
(** [quantile sorted q]: linear interpolation between closest ranks
    (numpy's default) over ascending [sorted]; 0 when it is empty. *)

val result_json : result -> Aqt_util.Jsonx.t
val result_csv : result -> string
(** ["metric,value"] lines — the CI artifact format. *)

val write_journal : every:float -> path:string -> result -> unit
(** Append the latency series as {!Aqt_harness.Journal.Snapshot} events
    labelled ["loadgen"], one per [every] seconds of the run, the last
    at [duration] (one only when [every <= 0]).  Each holds
    ["elapsed_s"] and the exact ["loadgen_request_seconds_p50"],
    ["_p99"] and ["_p999"] of the requests answered by then. *)

type check = { name : string; passed : bool; detail : string }

val complete : requests:int -> result -> check
(** Every one of [requests] answered or lost, at most 2% lost: the
    exit status of a plain [aqt_sim loadgen] run. *)

val envelope_checks :
  rho:float -> sigma:int -> requests:int -> result -> check list
(** The five checks of [aqt_sim loadgen --selftest], for a closed loop
    driven well past a server's (ρ,σ) budget: {!complete}, ["answered"]
    (some 200s; only 200, 429 and 503), ["sheds"] (some 429s),
    ["envelope"] (the 200s fit [ρ·T + σ] with jitter slack) and
    ["tail"] (p999 under 2.5 s). *)
