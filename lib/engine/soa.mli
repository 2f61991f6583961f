(** Struct-of-arrays engine core with domain-partitioned parallel stepping.

    Same observable semantics as {!Network} — two-substep steps, the same
    policies, tie orders and capacity models — but packet fields live in
    flat [int] arrays indexed by packet slot, routes in a shared flat arena,
    and per-edge buffers are index slices into partition-owned arenas, so a
    step is cache-linear and allocation-free in steady state.

    With [~domains:n > 1] edges are partitioned into [n] contiguous blocks,
    each owned by one OCaml 5 domain of a persistent pool, and a step runs
    as two deterministic phases: parallel forwarding into position-indexed
    pending slots, then a position-ordered exchange in which each domain
    enqueues exactly the packets destined for its own edges.  Positions
    encode the sequential processing order, so trajectories are
    byte-identical to the sequential engine for every domain count — the
    property [Aqt_check.Diff] asserts buffer-by-buffer each step.

    Differences from {!Network}: no tracer, no exogenous injections, and no
    per-packet [reroute] handle (use {!reroute_where}); a [Shared]
    (Dynamic-Threshold) capacity model runs the delivery substep
    sequentially because its admission test reads global occupancy. *)

type injection = Network.injection = { route : int array; tag : string }

type t

val create :
  ?log_injections:bool ->
  ?tie_order:Network.tie_order ->
  ?capacity:Aqt_capacity.Model.t ->
  ?domains:int ->
  graph:Aqt_graph.Digraph.t ->
  policy:Policy_type.t ->
  unit ->
  t
(** Options as in {!Network.create}.  [domains] (default 1) is the number of
    edge partitions; [domains - 1] worker domains are spawned immediately
    and parked on a condition variable between steps — call {!shutdown}
    when done (the OCaml runtime caps live domains).  The count is clamped
    to the number of edges.  [By_key] policy key functions must be pure:
    they run against a reusable scratch packet, possibly on a worker
    domain. *)

val shutdown : t -> unit
(** Joins the worker domains.  Idempotent; a no-op when [domains = 1].  The
    instance must not be stepped afterwards. *)

(** {1 Driving the system} *)

val place_initial : ?tag:string -> t -> int array -> int
(** As {!Network.place_initial}; returns the packet id.
    @raise Invalid_argument after the first step or on an invalid route. *)

val step : t -> injection list -> unit
(** One global time step with the given injections in its second substep. *)

val reroute_where :
  t -> (id:int -> edge:int -> remaining:int -> bool) -> int array -> unit
(** [reroute_where t pred suffix] rewrites the route of every buffered
    packet selected by [pred] to its traversed prefix (including the current
    edge) followed by [suffix] — the Lemma 3.3 rewrite of
    {!Network.reroute}, as a bulk operation because packet slots are not
    stable handles.  [pred] sees the packet id, the edge it is currently
    buffered on (so queue-driven feedback rules can select by local
    congestion) and its remaining hop count.  Route validation applies when
    enabled.  Selection order is unspecified; [pred] must not depend on
    it. *)

(** {1 Observation}

    Accessors mirror {!Network}'s and agree with it value-for-value on
    identical runs. *)

val graph : t -> Aqt_graph.Digraph.t
val policy : t -> Policy_type.t
val now : t -> int

val domains : t -> int
(** The partition count this instance was created with (after clamping). *)

val buffer_len : t -> int -> int

val buffer_packets : t -> int -> Packet.view list
(** Contents of the buffer of edge [e] in service order (head first), as
    {!Network.buffer_packets}. *)

val in_flight : t -> int
val absorbed : t -> int
val injected_count : t -> int
val initial_count : t -> int
val dropped : t -> int
val displaced : t -> int
val dropped_on_edge : t -> int -> int
val occupancy : t -> int
val peak_occupancy : t -> int
val max_queue_ever : t -> int
val max_queue_of_edge : t -> int -> int
val sent_on_edge : t -> int -> int
val max_dwell : t -> int
val max_pending_dwell : t -> int
val delivered_latency_max : t -> int
val delivered_latency_mean : t -> float
val reroute_count : t -> int
val last_injection_on : t -> int -> int
val capacity : t -> Aqt_capacity.Model.t
val speedup : t -> int

val injection_log : t -> (int * int array) array
(** As {!Network.injection_log}.
    @raise Invalid_argument without [log_injections]. *)

val initial_final_routes : t -> int array array
(** As {!Network.initial_final_routes}.
    @raise Invalid_argument without [log_injections]. *)

(** {1 Introspection for tests} *)

val pooled : t -> int
(** Recycled packet slots currently on the free stack. *)

val slab_slots : t -> int
(** Slots ever allocated (the slab high-water mark); recycling keeps this
    near the peak live population rather than the injection count. *)

val arena_words : t -> int * int
(** [(used, capacity)] in words across the route arena and every partition's
    buffer arena — growth tests assert geometric bounds on the ratio. *)
