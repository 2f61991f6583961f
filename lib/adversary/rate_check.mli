(** Exact validation of injection sequences against adversary definitions.

    Two adversary classes appear in the paper:

    - a {e rate-r adversary} (used for the instability results) may inject, in
      every time interval [[t1, t2]] and for every edge [e], at most
      [ceil (r * (t2 - t1 + 1))] packets whose routes require [e];
    - a {e (w,r) adversary} (Def 2.1, used for the stability results) may
      inject, in every window of [w] consecutive steps and for every edge,
      at most [floor (r * w)] packets requiring that edge.

    Both checks are exact (integer arithmetic on [r = p/q], no floats).  The
    all-intervals rate-r condition is checked in O(1) amortized per injection
    via the potential [D_t = q*S_t - p*t], where [S_t] is the per-edge
    injection prefix count: the condition holds iff
    [D_t2 - min_(u < t2) D_u <= q - 1] for all [t2].

    Checking the {e final effective routes} of a run that used rerouting
    against the plain rate-r condition is exactly the content of Lemma 3.3:
    the dynamic adversary is equivalent to a static rate-r adversary. *)

type violation = {
  edge : int;
  t1 : int;
  t2 : int;
  count : int;  (** Packets requiring [edge] injected during [[t1, t2]]. *)
  allowed : int;
}

val pp_violation : Format.formatter -> violation -> unit

val check_rate :
  m:int -> rate:Aqt_util.Ratio.t -> (int * int array) array ->
  (unit, violation) result
(** [check_rate ~m ~rate log] validates a log of [(injection time, route)]
    pairs, sorted by time, on a graph with [m] edges, against the rate-r
    all-intervals condition.  Routes must be simple (each edge at most once
    per route).  On the first edge (smallest id) with a violation, returns
    its worst interval: the largest excess [q*count - p*len] for [r = p/q],
    the earliest [t2] among ties, then the earliest [t1].  Every checker
    reports its violation the same way, except {!check_windowed}. *)

val check_rate_brute :
  m:int -> rate:Aqt_util.Ratio.t -> (int * int array) array ->
  (unit, violation) result
(** Reference implementation enumerating all intervals; O(T^2) per edge.
    Reports the same violation as {!check_rate}.  For cross-validation in
    tests only. *)

val check_windowed :
  m:int -> w:int -> rate:Aqt_util.Ratio.t -> (int * int array) array ->
  (unit, violation) result
(** Validates the log against the (w,r) windowed condition of Def 2.1:
    at most [floor (r * w)] packets requiring any edge per window of [w]
    consecutive steps.  Reports the first overfull window: smallest edge
    id, then earliest [t2]. *)

val check_leaky :
  m:int -> b:int -> rate:Aqt_util.Ratio.t -> (int * int array) array ->
  (unit, violation) result
(** Validates against the original Borodin et al. leaky-bucket condition: at
    most [r * len + b] packets requiring any edge over every interval of
    [len] steps ([b >= 0] is the burst allowance).  [b = 0] is the strictest
    form; the rate-r condition of this paper sits between [b = 0] and
    [b = 1]. *)

val check_local :
  rate:Aqt_util.Ratio.t ->
  sigmas:int array ->
  (int * int array) array ->
  (unit, violation) result
(** Validates against the {e locally bursty} condition of Rosenbaum
    (arXiv:2208.09522): one global rate [rho] but a per-edge burst budget,
    [count <= rho * len + sigmas.(e)] for every edge [e] and every interval
    of [len] steps.  The edge count is [Array.length sigmas]; per edge this
    is the leaky-bucket scan of {!check_leaky} with [b = sigmas.(e)]
    (exact integer arithmetic, same potential as {!scan_edge}).
    [check_leaky ~b] is the special case of a constant sigma vector.
    @raise Invalid_argument on a negative sigma. *)

val check_local_brute :
  rate:Aqt_util.Ratio.t ->
  sigmas:int array ->
  (int * int array) array ->
  (unit, violation) result
(** Reference implementation of {!check_local} enumerating all intervals;
    O(T^2) per edge.  Reports the same violation as {!check_local}.  For
    cross-validation in tests only. *)

val burstiness :
  m:int -> rate:Aqt_util.Ratio.t -> (int * int array) array -> int
(** The smallest [b >= 0] such that every interval and edge satisfy
    [count <= ceil (r * len) + b]; 0 iff [check_rate] accepts. *)

val scan_edge :
  rate:Aqt_util.Ratio.t ->
  (int * int) array ->
  int * (int * int * int) option
(** The potential-function scan underlying [check_rate], [check_leaky] and
    [burstiness], exposed over one edge's event list for direct testing.
    Input: [(time, multiplicity)] pairs with strictly increasing times
    [>= 1] and positive multiplicities (one edge's share of a log, as the
    checkers bucket it).  With [r = p/q], returns the maximum over event times [t2]
    of [D_t2 - min_(u < t2) D_u] where [D_t = q*S_t - p*t] and [S_t] is
    the prefix count, plus a witness [(t1, t2, count)] attaining it.

    The sentinel for an empty event list is [(min_int, None)] — strictly
    below every achievable excess (the checks compare the excess against
    thresholds [>= 0], so the sentinel makes an idle edge trivially
    admissible rather than a special case).  The rate-r condition holds on
    the edge iff the excess is [<= q - 1]; the leaky-bucket [(b, r)]
    condition iff it is [<= q * b].
    @raise Invalid_argument on unsorted, pre-step-1 or zero-multiplicity
    events. *)
