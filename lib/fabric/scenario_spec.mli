(** The scenario vocabulary, parsed once.

    Every string that names part of a run has one parser and one printer
    here, shared by the command line ([aqt_sim]) and the daemon
    ([aqt_sim serve]): a rate, a queueing policy, a line or ring network, a
    fabric topology, a traffic pattern, a buffer model and an engine.
    Each [of_string] trims its input and fails with an exact message; each
    [to_string] prints the same syntax back, so
    [of_string (to_string x) = Ok x].

    The ranges checked here are the model's own: what
    {!Aqt_graph.Build} can build and what {!Aqt_workload.Traffic} can
    compile.  A front end's own bounds (the daemon's size caps, a
    command's positivity rule) stay with that front end.

    The module also owns the two runs both front ends execute on a line
    or a ring: {!simulate} and a policy × rate sweep, {!sweep}. *)

module type TOKEN = sig
  type t

  val of_string : string -> (t, string) result
  val to_string : t -> string
end

module Rate : TOKEN with type t = Aqt_util.Ratio.t
(** [P/Q] with integers [P] and [Q <> 0], or a finite decimal, which
    {!Aqt_util.Ratio.of_float_approx} turns into a fraction.  Any sign is
    accepted.  Errors: [bad rational "…"] and [bad rate "…"], quoting the
    trimmed input. *)

module Policy : TOKEN with type t = Aqt_engine.Policy_type.t
(** A {!Aqt_policy.Policies.by_name} name, matched case-insensitively;
    [sis] is an alias.  Error: [unknown policy "…"], quoting the trimmed
    input. *)

module Network : sig
  type t = Line of int | Ring of int

  include TOKEN with type t := t
  (** [line:K] or [ring:K] for any integer [K]; see {!buildable}.
      Errors: [network "…": bad size] and
      [unknown network "…" (line:K | ring:K)], quoting the input as
      given. *)

  val size : t -> int

  val buildable : t -> (t, string) result
  (** Whether {!Aqt_graph.Build} builds it: a line needs one edge, a ring
      two nodes.  Error: [network "…": size must be at least N]. *)
end

module Topology : TOKEN with type t = Scenario.topo
(** [spine-leaf:S,L,H] with each of [S], [L] and [H] at least 1 and at
    least two hosts ([L x H >= 2]), or [fat-tree:K] with [K] even and at
    least 2.  {!Scenario.topo_name} is the table label, not this
    syntax. *)

module Pattern : TOKEN with type t = Aqt_workload.Traffic.pattern
(** [permutation], [incast:N] with [N] at least 1, [all-to-all], or
    [hotspot:N/D] with [0 <= N <= D] and [D] at least 1. *)

module Capacity : TOKEN with type t = Aqt_capacity.Model.t
(** [unbounded], [uniform:K] (drop-tail), [shared:TOTAL], or
    [shared:TOTAL:A/B] (Dynamic-Threshold with alpha = A/B).  A model this
    syntax cannot spell (drop-head, per-edge caps, speedup) prints as
    {!Aqt_capacity.Model.describe}. *)

module Backend : sig
  type t = [ `Record | `Soa of int ]

  include TOKEN with type t := t
  (** [record], or [soa] / [soa:N] for the struct-of-arrays engine on [N]
      domains (one by default).  Prints [record] or [soa:N]. *)

  val engine : string -> ([ `Record | `Soa ], string) result
  (** The engine name alone, [record] or [soa], as the command line's
      [--backend] takes it.  Error: [unknown backend "…" (record|soa)],
      quoting the input as given. *)

  val with_domains : int -> [ `Record | `Soa ] -> (t, string) result
  (** Attach a domain count: ignored by [`Record], at least 1 for [`Soa].
      Error: [domain count N must be at least 1]. *)
end

(** {1 Routes} *)

val workload : d:int -> Network.t -> Aqt_workload.Workloads.t
(** Every route of [d] hops, with [d] clamped to what the network holds:
    {!Aqt_workload.Workloads.line_windows} with [min d K] on a line,
    {!Aqt_workload.Workloads.ring_wrap} with [min d (K-1)] on a ring.
    @raise Invalid_argument when [d < 1] or the network is not
    {!Network.buildable}. *)

val route_count : d:int -> Network.t -> int
(** [List.length (workload ~d n).routes], without building anything. *)

(** {1 The two runs} *)

type simulation = {
  workload : Aqt_workload.Workloads.t;
  adversary : string;  (** The stock adversary's name. *)
  net : Aqt_engine.Network.t;
  steps : int;  (** Steps run. *)
}

val simulate :
  capacity:Aqt_capacity.Model.t ->
  network:Network.t ->
  d:int ->
  policy:Aqt_engine.Policy_type.t ->
  rate:Aqt_util.Ratio.t ->
  horizon:int ->
  stochastic:bool ->
  seed:int ->
  simulation
(** Run {!workload}[ ~d network] for [horizon] steps, each route at
    [rate / max 1 (min d routes)], under a windowed burst (w = 40) or,
    when [stochastic], a Bernoulli adversary seeded with [seed].  The CLI
    and the daemon refuse a rate that {!simulate_rate} rejects before
    calling this. *)

val simulate_rate :
  network:Network.t -> d:int -> Aqt_util.Ratio.t -> (unit, string) result
(** {!simulate} runs each route at [rate / max 1 (min d routes)], which
    must be in (0, 1]: at most one packet per route per step.  A rate
    outside that range fails with the messages of {!sweep_rates}, for
    N = [max 1 (min d routes)]. *)

val sweep_rates : routes:int -> Aqt_util.Ratio.t list -> (unit, string) result
(** A sweep cell runs each of [routes] routes at [rate / routes], which
    must be in (0, 1]: at most one packet per route per step.  The first
    rate outside that range fails with [rate R must be positive] or
    [rate R over N routes exceeds one packet per route per step]. *)

val sweep_headers : string list

val sweep :
  Aqt_workload.Workloads.t ->
  policies:Aqt_engine.Policy_type.t list ->
  rates:Aqt_util.Ratio.t list ->
  horizon:int ->
  string list list
(** Classify every (policy, rate) cell with {!Aqt.Sweep.classify}, policy
    by policy and, within a policy, rate by rate, on one route table in the
    calling domain.  In each cell every route runs at [rate / routes] from
    one shared token bucket, labelled with the aggregate [rate].  Each row
    is under {!sweep_headers}: policy, rate, verdict, max queue, final
    backlog.
    @raise Invalid_argument on a rate that {!sweep_rates} rejects. *)
