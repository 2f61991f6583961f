(** Executable reference model of the AQT step semantics (§2).

    This is the conformance oracle for [Aqt_engine.Network]: the same
    observable state machine, written for obviousness instead of speed.
    Buffers are plain lists of [(key, seq, packet)] triples; the forwarded
    packet is found by sorting; membership tests are linear scans; every
    injection allocates a fresh packet record and a fresh route array.  No
    free-lists, no interning, no deque/heap specialisations — every
    mechanism the fast engine uses to go fast is absent here, so a
    divergence between the two is evidence about the engine, not about the
    oracle.

    Semantics replicated exactly (all of it observable through the public
    engine API and therefore checked by [Diff]):

    - two-substep steps: every nonempty buffer forwards the packet with the
      lexicographically least [(key, seq)] (key fixed at enqueue), then
      forwarded packets are absorbed or re-enqueued in forwarding order,
      then the step's injections enter in list order ([tie_order] decides
      whether transit beats injections);
    - forwarding order follows the engine's active-edge list: edges that
      stay nonempty keep their relative order, edges activated during the
      second substep append in activation order.  The order is observable —
      it determines the per-buffer arrival [seq] of same-step arrivals;
    - instrumentation: dwell, per-edge queue maxima and send counts,
      delivery latencies, the [(time, final route)] injection log, and the
      Definition 3.2 [last_use] tracking. *)

type t

val create :
  ?tie_order:Aqt_engine.Network.tie_order ->
  ?capacity:Aqt_capacity.Model.t ->
  graph:Aqt_graph.Digraph.t ->
  policy:Aqt_engine.Policy_type.t ->
  unit ->
  t
(** [capacity] (default unbounded) mirrors the engine's finite-buffer and
    link-speedup semantics naively: static caps compare against a
    [List.length], the Dynamic-Threshold test recomputes the occupancy by
    summing every buffer, the drop-head victim is found by sorting. *)

(** {1 Driving} *)

val place_initial : t -> ?tag:string -> int array -> Aqt_engine.Packet.t
(** Mirrors [Network.place_initial].
    @raise Invalid_argument after the first step or on an invalid route. *)

val step : t -> Aqt_engine.Network.injection list -> (int * int) list
(** One global step.  Returns the substep-1 forwards as [(edge, packet id)]
    pairs in forwarding order — the reference answer for the trace-level
    invariants (at most [speedup] packets per link per step, greedy
    non-idling).  With speedup s > 1 an edge may appear up to s times. *)

val reroute : t -> Aqt_engine.Packet.t -> int array -> unit
(** Mirrors [Network.reroute]: rewrite the route suffix beyond the current
    next edge (fresh array, Lemma 3.3 mechanics). *)

(** {1 Observation — same surface as [Network]} *)

val now : t -> int
val buffer_len : t -> int -> int

val buffer_packets : t -> int -> Aqt_engine.Packet.t list
(** Policy order, head of queue first (ties by arrival [seq]). *)

val iter_buffered : (Aqt_engine.Packet.t -> unit) -> t -> unit
val in_flight : t -> int
val absorbed : t -> int
val injected_count : t -> int
val initial_count : t -> int
val max_queue_ever : t -> int
val max_queue_of_edge : t -> int -> int
val sent_on_edge : t -> int -> int
val max_dwell : t -> int
val max_pending_dwell : t -> int
val delivered_latency_max : t -> int
val delivered_latency_mean : t -> float
val reroute_count : t -> int
val last_injection_on : t -> int -> int
val dropped : t -> int
val displaced : t -> int
val dropped_on_edge : t -> int -> int
val peak_occupancy : t -> int

val injection_log : t -> (int * int array) array
(** [(injection time, final effective route)] of every adversary-injected
    packet, sorted by (time, id) like the engine's. *)
