(** Datacenter-fabric scenarios: a topology, a flow-level workload, a
    queueing policy and a buffer model, driven through either engine
    backend and checked for admissibility on the way out.

    This is the top of the fabric stack: {!Aqt_graph.Build.spine_leaf} /
    {!Aqt_graph.Build.fat_tree} supply the topology and ECMP route sets,
    {!Aqt_workload.Traffic} compiles the flow-level workload into an
    admissible per-step schedule, and [run] replays that schedule through
    {!Aqt_engine.Backend}: the record engine or the struct-of-arrays
    engine.  The two backends produce identical
    trajectories; the fabric conformance family ([aqt_sim check --family
    fabric]) holds them to that. *)

type topo =
  | Spine_leaf of { spines : int; leaves : int; hosts_per_leaf : int }
  | Fat_tree of { k : int }

val topo_name : topo -> string
val build_topo : topo -> Aqt_graph.Build.fabric

type t = {
  name : string;
  topo : topo;
  pattern : Aqt_workload.Traffic.pattern;
  conns_per_pair : int;
  utilisation : Aqt_util.Ratio.t;
  flow_cdf : (int * int) list;
  policy : Aqt_engine.Policy_type.t;
  capacity : Aqt_capacity.Model.t;
  horizon : int;  (** Steps of injection. *)
  drain : int;  (** Extra injection-free steps before reading counters. *)
  seed : int;
}

val make :
  ?name:string ->
  ?conns_per_pair:int ->
  ?flow_cdf:(int * int) list ->
  ?policy:Aqt_engine.Policy_type.t ->
  ?capacity:Aqt_capacity.Model.t ->
  ?drain:int ->
  ?seed:int ->
  topo:topo ->
  pattern:Aqt_workload.Traffic.pattern ->
  utilisation:Aqt_util.Ratio.t ->
  horizon:int ->
  unit ->
  t
(** Defaults: FIFO, unbounded buffers, one connection per pair, the
    heavy-tailed {!Aqt_workload.Traffic.default_cdf}, 200 drain steps,
    seed 1, [name] derived from the topology. *)

val compile : t -> Aqt_graph.Build.fabric * Aqt_workload.Traffic.compiled
(** Build the topology and compile the workload, without running. *)

type outcome = {
  scenario : t;
  backend : [ `Record | `Soa of int ];
  nodes : int;
  edges : int;
  n_hosts : int;
  n_pairs : int;
  n_flows : int;
  injected : int;
  absorbed : int;
  dropped : int;
  in_flight : int;  (** Still queued after the drain. *)
  max_queue : int;  (** Peak single-queue length over the run. *)
  peak_occupancy : int;  (** Peak total buffered packets (shared-buffer). *)
  max_dwell : int;
  latency_mean : float;
  legal : bool;
      (** The injection log passed
          {!Aqt_adversary.Rate_check.check_local} against the compiled
          [(rate, sigmas)] budget. *)
}

val run : ?backend:[ `Record | `Soa of int ] -> t -> outcome
(** Replay the compiled schedule for [horizon] steps plus [drain]
    injection-free steps through {!Aqt_engine.Backend}: [`Record] (the
    default) or [`Soa d] on [d] domains.  Deterministic: same scenario,
    same backend (and any domain count), same outcome. *)

val catalog : unit -> t list
(** Canned scenarios for [aqt_sim fabric --list]. *)

val find_catalog : string -> t option
