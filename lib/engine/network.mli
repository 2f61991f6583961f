(** The store-and-forward network of the adversarial queuing model (§2).

    State machine semantics, exactly as in the paper:

    - The system state is observed "at time [t]" after the second substep of
      step [t]; the initial configuration is the state at time 0.
    - [step] executes the next global time step: in the first substep every
      nonempty buffer forwards the packet its policy selects (simultaneously,
      based on the start-of-step state); in the second substep forwarded
      packets are absorbed at their destination or enter the next buffer on
      their route, and then the step's injections are placed in the buffers of
      the first edges of their routes.

    The network also keeps the instrumentation the experiments need: dwell
    times (how long each packet stayed in one buffer — the quantity bounded by
    Theorems 4.1/4.3), per-edge maximum queue sizes, delivery latencies, and
    an optional injection log of [(injection time, final effective route)]
    pairs used to validate adversaries against their rate constraint after
    rerouting (Lemma 3.3). *)

type injection = { route : int array; tag : string }

type tie_order = Transit_first | Injection_first
(** Within the second substep, whether packets arriving from upstream links
    enqueue before or after the step's fresh injections.  The model leaves
    this to the adversary; the paper's fluid analysis is insensitive to it
    (ablation A5 in the benchmark harness), and [Transit_first] is the
    default. *)

type t

val create :
  ?log_injections:bool ->
  ?validate_routes:bool ->
  ?tie_order:tie_order ->
  ?tracer:(Trace.event -> unit) ->
  ?route_table:Route_intern.t ->
  ?recycle:bool ->
  ?capacity:Aqt_capacity.Model.t ->
  graph:Aqt_graph.Digraph.t ->
  policy:Policy_type.t ->
  unit ->
  t
(** [log_injections] (default false) retains [(time, final route)] for every
    adversary-injected packet, including absorbed ones — needed by the rate
    checker, costs memory proportional to the injection count.
    [validate_routes] (default true) checks that every injected route is a
    simple directed path; with interning the check runs once per {e
    distinct} route, not once per injection.
    [tracer] receives every packet event (see {!Trace}); omit it for zero
    tracing overhead — with no tracer the step loop builds no event values
    at all.
    [route_table] supplies a shared {!Route_intern} table (e.g. one table
    for every cell of a rate sweep over the same graph); by default each
    network gets a private table.  Only share across networks with the same
    graph — interned routes are validated once, against the graph of the
    network that first saw them.
    [recycle] (default false) pools absorbed packet records on a free-list
    and reuses them for later injections, making steady-state stepping
    allocation-free.  Enable it only when no code retains [Packet.t] values
    past absorption (holding buffered packets between steps is fine).  With
    a finite [capacity] model, dropped packets are pooled too.
    [capacity] (default {!Aqt_capacity.Model.unbounded}) selects the
    finite-buffer / link-speedup regime of arXiv:1707.03856 and
    arXiv:1902.08069: arrivals to full buffers are dropped under the
    model's discipline and every edge forwards up to [speedup] packets per
    step.  The default is byte-identical to the pre-capacity engine — no
    admission test runs on the unbounded path. *)

val graph : t -> Aqt_graph.Digraph.t
val policy : t -> Policy_type.t
val now : t -> int

val route_table : t -> Route_intern.t
(** The intern table this network resolves injected routes through. *)

val pooled : t -> int
(** Packet records currently parked on the recycling free-list (0 unless the
    network was created with [recycle:true]). *)

(** {1 Driving the system} *)

val place_initial : t -> ?tag:string -> int array -> Packet.t
(** Adds a packet to the initial configuration (state at time 0); it sits in
    the buffer of the first edge of its route with [buffered_at = 0].
    @raise Invalid_argument if called after the first [step], or if the route
    is invalid and validation is on. *)

val step : t -> ?exogenous:injection list -> injection list -> unit
(** Executes one global time step with the given injections arriving in its
    second substep.  [exogenous] packets (robustness experiments) enter the
    same buffers but are excluded from the adversary's rate accounting: they
    do not mark edge use for Def 3.2 and never appear in the injection
    log. *)

val reroute : t -> Packet.t -> int array -> unit
(** [reroute net p suffix] rewrites [p]'s remaining route beyond its current
    next edge [e_p] to [suffix] (which may be [[||]] to make [e_p] the last
    hop), as in Lemma 3.3.  Mechanical validity is enforced here (the packet
    is buffered, the new route is a simple path); the adversary-side
    preconditions of the lemma — shared edge, new edges — are checked by
    [Aqt.Reroute].  Rerouted routes are interned like injected ones: packets
    rewritten to equal contents share one array, and the simple-path check
    runs only the first time the table sees those contents.
    @raise Invalid_argument if the packet is absorbed or the route invalid. *)

(** {1 Observation} *)

val buffer_len : t -> int -> int
val buffer_packets : t -> int -> Packet.t list
(** Contents of the buffer of edge [e], head of queue first. *)

val in_flight : t -> int
val absorbed : t -> int
val injected_count : t -> int
(** Adversary injections so far (initial-configuration packets excluded).
    Injections dropped on arrival still count — the adversary spent them. *)

val initial_count : t -> int

(** {1 Capacity and drops}

    With the default unbounded model, [dropped] and [displaced] stay 0 and
    [occupancy] equals {!in_flight} between steps.  Conservation holds as
    [initial_count + injected_count = absorbed + in_flight + dropped]. *)

val capacity : t -> Aqt_capacity.Model.t
val speedup : t -> int

val dropped : t -> int
(** Packets lost to the capacity model so far (overflow + displaced). *)

val displaced : t -> int
(** The drop-head subset of {!dropped}: buffered packets evicted by an
    arrival. *)

val dropped_on_edge : t -> int -> int
(** Packets lost at the buffer of edge [e]. *)

val occupancy : t -> int
(** Total buffered population right now (the quantity the
    Dynamic-Threshold admission test reads). *)

val peak_occupancy : t -> int
(** Largest total buffered population ever reached. *)

val iter_buffered : (Packet.t -> unit) -> t -> unit
(** Every packet currently in some buffer. *)

val count_requiring : t -> int -> int
(** Packets currently in the network whose remaining route uses edge [e]. *)

val s_initial : t -> int
(** The S of an S-initial-configuration: max over edges of packets requiring
    that edge, evaluated on the current state (meant to be called at time 0). *)

val current_max_queue : t -> int
val max_queue_ever : t -> int
val max_queue_of_edge : t -> int -> int
val sent_on_edge : t -> int -> int
(** Packets forwarded over edge [e] so far. *)

val max_dwell : t -> int
(** Maximum completed dwell: a packet that entered a buffer at time [t] and
    was forwarded at step [t'] dwelled [t' - t]. *)

val max_pending_dwell : t -> int
(** Maximum [now - buffered_at] over packets still waiting in buffers. *)

val delivered_latency_max : t -> int
val delivered_latency_mean : t -> float

val delivered_latency_percentile : t -> float -> int
(** Upper-bound estimate of a delivery-latency quantile (power-of-two
    histogram buckets; exact at the maximum). *)

val injection_log : t -> (int * int array) array
(** [(injection time, final effective route)] for every adversary-injected
    packet so far (absorbed or in flight), in injection order.
    @raise Invalid_argument if the network was created without
    [log_injections]. *)

val initial_final_routes : t -> int array array
(** The final effective routes of the initial-configuration packets, in
    placement order — together with {!injection_log} this is everything the
    static adversary A' of Lemma 3.3 needs to replay a run that rerouted.
    @raise Invalid_argument without [log_injections]. *)

val reroute_count : t -> int
(** Total reroute operations performed. *)

val last_injection_on : t -> int -> int
(** The latest time at which an adversary injection (or an initial-
    configuration packet, at time 0) had edge [e] on its route as injected;
    [min_int] if never.  Route extensions via [reroute] do not count — this
    is the quantity Definition 3.2's "new edge" condition inspects. *)

val min_injection_time_in_flight : t -> int
(** The t* of Definition 3.2: the earliest injection time over packets
    currently in the network.  [max_int] when the network is empty. *)
