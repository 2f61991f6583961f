(** The rate-admission simulation service.

    A long-running HTTP/1.1 daemon that serves the simulator over
    loopback/LAN: sweeps, registered experiments, report figures,
    Prometheus metrics and health.  The serving discipline is the
    theory it simulates:

    - {b Connections} are multiplexed by a single poll(2) event-loop
      domain ({!Evpoll}): persistent keep-alive connections with
      HTTP/1.1 pipelining, nonblocking incremental parsing
      ({!Http.Parser}), and one deadline per connection, checked on
      every loop wake-up.  Pipelined responses leave in
      request order; read interest is dropped once [max_pipeline]
      requests are outstanding, which is TCP backpressure on the peer.
    - {b Admission} is layered (ρ,σ)-token buckets ({!Bucket}): a
      per-client bucket (keyed by peer address, or by a configured
      header, with LRU eviction of idle keys) bounds any single peer,
      then a per-endpoint bucket bounds the aggregate — [/sweep] has
      its own smaller bucket so grid computations cannot starve cheap
      endpoints.  The admitted stream is rate-bounded exactly like the
      paper's (w,r) adversary; everything beyond the budget is shed
      immediately with [429] — never queued.
    - {b Queueing} is bounded: admitted requests enter a queue of
      capacity σ feeding a fixed pool of worker domains (one greedy
      "link" each, in the paper's one-packet-per-step discipline);
      a full queue answers [503].  Queue depth can therefore never
      exceed σ — the serving layer is stable by construction, the
      same argument as Theorem 4.1's dwell bound.
    - {b Results} are content-addressed: sweep and experiment
      responses are keyed by {!Aqt_harness.Spec.hash} into
      {!Aqt_harness.Cache}, shared with the campaign harness; a cache
      hit refreshes the entry ({!Aqt_harness.Cache.touch}) so trim
      evicts least-recently-used results.  A [/sweep] grid runs its
      cells one after another on the worker that admitted it, so the
      daemon's domains are the workers and the event loop, fixed at
      {!start}.
    - {b Observability}: a {!Metrics} registry exported at
      [/metrics] (request latency quantiles up to p999), periodically
      journalled as {!Aqt_harness.Journal.Snapshot} events, and an
      optional {!Aqt_harness.Cache.trim} sweep keeping the cache
      bounded.

    Endpoints: [/healthz], [/metrics], [/sweep] (GET query or POST
    JSON body), [/experiment/<name>], [/figure/<id>] (SVG),
    [/simulate] (live seeded run; uses the worker's own
    {!Aqt_util.Prng.stream}), [/].

    Graceful shutdown ({!stop}, or {!request_stop} from a signal
    handler): close the listener, stop reading, let in-flight work
    finish and its responses flush (bounded by a grace period), write
    a final metrics snapshot, flush and close the journal. *)

type config = {
  host : string;  (** Bind address, default ["127.0.0.1"]. *)
  port : int;  (** 0 picks an ephemeral port (see {!port}). *)
  workers : int;  (** Worker domains. *)
  rho : float;  (** Default endpoint admission rate, requests/second. *)
  sigma : int;  (** Burst budget = bucket depth = queue capacity. *)
  read_timeout : float;  (** Mid-request read deadline, seconds. *)
  write_timeout : float;  (** Response write-progress deadline, seconds. *)
  campaign_dir : string;
      (** Cache + journal root, shared with campaigns; cache keys carry
          the campaign's salt, the build's code digest, so either side's
          results are hits for the other. *)
  snapshot_every : float;  (** Metrics journal period; [<= 0] disables. *)
  journal : bool;  (** Write a serve journal under [campaign_dir]. *)
  cache_max_bytes : int option;
      (** When set ([>= 0]), {!Aqt_harness.Cache.trim} runs on every
          snapshot tick so the daemon's cache cannot grow unboundedly. *)
  quiet : bool;
  sweep_rho : float;  (** [/sweep] endpoint rate; [<= 0] means [rho / 10]. *)
  sweep_sigma : int;  (** [/sweep] burst; [<= 0] means [max 4 (sigma / 4)]. *)
  client_rho : float;  (** Per-client rate; [<= 0] means [rho]. *)
  client_sigma : int;
      (** Per-client burst; [<= 0] means [sigma].  At most 1024
          per-client buckets live at once; the least-recently-used idle
          bucket is evicted beyond that. *)
  client_key_header : string;
      (** Header naming the client key (e.g. ["x-client-id"]);
          [""] keys on the peer address. *)
  max_conns : int;  (** Connection cap; excess accepts get [503]. *)
  max_pipeline : int;
      (** Outstanding pipelined requests per connection before the
          event loop stops reading from it. *)
  idle_timeout : float;  (** Idle keep-alive connection expiry, seconds. *)
}

val default_config : config
(** Loopback:8080, workers = cores-2 (min 2), ρ = 50 req/s, σ = 32,
    5 s read/write deadlines, 30 s idle timeout, 4096 connections,
    pipeline depth 8, [_campaign] state dir, 10 s snapshots, derived
    sweep/client buckets (see the field docs). *)

type t

val start :
  ?registry:Aqt_harness.Registry.t ->
  ?figures:Aqt_report.Report.figure list ->
  config ->
  t
(** Bind, spawn the worker pool (worker [i] gets PRNG stream
    [Prng.stream base i]) and the event-loop domain, and return
    immediately.  [registry] backs [/experiment/]; [figures] backs
    [/figure/].
    @raise Invalid_argument on a bad config;
    @raise Unix.Unix_error if the port cannot be bound. *)

val port : t -> int
(** The actually bound port (useful with [port = 0]). *)

val metrics : t -> Metrics.t

val request_stop : t -> unit
(** Trigger graceful shutdown and return immediately; safe to call
    from a signal handler or any domain, and idempotent. *)

val wait : t -> unit
(** Block until shutdown completes (polling, so signal handlers keep
    running in the calling thread), then join the event-loop domain.
    A failed write of the farewell line to stdout does not hold the
    drain up.
    @raise e the exception that ended the event loop, if one did, once
    the port is closed, the workers are joined and the connections, the
    journal and the wake pipe are closed. *)

val stop : t -> unit
(** [request_stop] then [wait]. *)

val stopped : t -> bool
