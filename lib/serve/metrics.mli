(** Domain-safe metrics registry with Prometheus text exposition.

    Counters, gauges and histograms for the serve daemon: registration
    is get-or-create by full series name (labels spelled inline, e.g.
    ["serve_responses_total{status=\"200\"}"]), so handlers can mint
    per-status series lazily from any worker domain.  Hot-path updates
    are single atomic operations; the registry mutex is only taken at
    registration and render time.

    {!render} emits Prometheus text format (version 0.0.4): one
    [# HELP]/[# TYPE] pair per metric family (the name up to the label
    brace), series in registration order.  {!snapshot} flattens the
    same state into labelled floats for {!Aqt_harness.Journal.Snapshot}
    events. *)

type t

val create : unit -> t

(** {2 Counters} — monotonically increasing integers. *)

type counter

val counter : t -> ?help:string -> string -> counter
(** Get or create.  @raise Invalid_argument if the name exists with a
    different metric kind. *)

val inc : ?by:int -> counter -> unit
val counter_value : counter -> int

(** {2 Gauges} — floats that go both ways, with a high watermark. *)

type gauge

val gauge : t -> ?help:string -> string -> gauge
val set_gauge : gauge -> float -> unit
val add_gauge : gauge -> float -> unit
val gauge_value : gauge -> float

val gauge_peak : gauge -> float
(** Largest value ever passed to [set_gauge]/reached by [add_gauge];
    how the tests check "queue depth never exceeded σ" without sampling
    races. *)

(** {2 Histograms} — cumulative buckets, Prometheus-style. *)

type histogram

val histogram : t -> ?help:string -> ?buckets:float list -> string -> histogram
(** [buckets] are ascending finite upper bounds; a [+Inf] bucket is
    implicit.  The default suits request latencies in seconds
    (0.5 ms – 10 s). *)

val observe : histogram -> float -> unit

val quantile : histogram -> float -> float
(** [quantile h q] with [q] in [0,1]: linear interpolation inside the
    containing bucket, an upper bound beyond the last finite bound.
    0 when empty. *)

val histogram_count : histogram -> int

(** {2 Export} *)

val render : t -> string
(** Prometheus text format, trailing newline included. *)

val snapshot : t -> (string * float) list
(** Counters and gauges by name (gauges also as [<name>_peak]);
    histograms as [<name>_count], [<name>_sum], [<name>_p50],
    [<name>_p95], [<name>_p99], [<name>_p999]. *)
