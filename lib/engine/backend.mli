(** Engine selection: the record engine or the struct-of-arrays core behind
    one stepping/observation surface.

    [create ~backend:(`Soa n)] gives the cache-linear {!Soa} engine with [n]
    edge partitions (domains); [`Record] (the default) gives {!Network}.
    Both produce identical trajectories — {!Aqt_check.Diff} asserts it —
    so callers choose purely on performance.  Engine-specific machinery
    (tracers, per-packet reroutes, spacetime capture) stays on the concrete
    engines: build a {!Network.t} or {!Soa.t} directly, or match on {!t}. *)

type injection = Network.injection = { route : int array; tag : string }

type t = Record of Network.t | Soa of Soa.t

val create :
  ?log_injections:bool ->
  ?tie_order:Network.tie_order ->
  ?capacity:Aqt_capacity.Model.t ->
  ?backend:[ `Record | `Soa of int ] ->
  graph:Aqt_graph.Digraph.t ->
  policy:Policy_type.t ->
  unit ->
  t

val kind : t -> string
(** ["record"], ["soa"], or ["soa-d<n>"] — for labelling result rows. *)

val step : t -> injection list -> unit

val run_steps : t -> injections_at:(int -> injection list) -> int -> unit
(** [run_steps t ~injections_at n] executes [n] steps, calling
    [injections_at] with each step number about to execute.
    @raise Invalid_argument if [n] is negative. *)

val shutdown : t -> unit
(** Joins any pooled worker domains; no-op for [`Record] and single-domain
    [`Soa].  Required before dropping a parallel instance — the runtime
    caps live domains. *)

(** {1 Observation} *)

val now : t -> int
val in_flight : t -> int
val absorbed : t -> int
val injected_count : t -> int
val dropped : t -> int
val peak_occupancy : t -> int
val max_queue_ever : t -> int
val max_dwell : t -> int
val delivered_latency_mean : t -> float

val injection_log : t -> (int * int array) array
(** As {!Network.injection_log}; needs [~log_injections:true] at {!create}. *)
