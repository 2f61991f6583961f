(** The parameter calculus of Lemma 3.6 and the Appendix.

    For an instability target rate [r = 1/2 + eps] the construction picks a
    gadget path length [n] and a seed threshold [S0]:

    {ul
    {- [Ri = (1 - r) / (1 - r^i)], the rate at which old packets arrive at
       the tail of the i-th primed edge (Claim 3.9); satisfies
       [Ri / (r + Ri) = R(i+1)] (equation 3.1);}
    {- [n > max ((log eps - 2) / log r, 1 - 1 / log r)] (logs base 2);}
    {- [S0 > max (2n, n / (2 (Rn - R(n+1))))];}
    {- [ti = 2S / (r + Ri)], the short-flow duration for edge i;}
    {- [S' = 2S (1 - Rn)], the pumped queue size, with [S' >= S (1 + eps)];}
    {- [X = S' - rS + n], the part-(4) injection count, [0 < X <= rS].}}

    Rates are exact rationals (they parameterize injection flows); the derived
    quantities [Ri], [ti], [S0], [S'] are evaluated in floating point and
    rounded — the paper's own analysis drops floors and ceilings and absorbs
    the error into a larger [S0], and all experiment assertions compare
    measured values, not formulas. *)

type t = {
  eps : Aqt_util.Ratio.t;  (** The ε of Theorem 3.17; must be in (0, 1/2). *)
  rate : Aqt_util.Ratio.t;  (** r = 1/2 + ε, exact. *)
  r : float;  (** Float image of [rate]. *)
  n : int;  (** Gadget path length. *)
  s0 : int;  (** Minimum seed queue size. *)
}

val make : ?n:int -> ?s0:int -> eps:Aqt_util.Ratio.t -> unit -> t
(** Derives [n] and [s0] from the Appendix formulas unless overridden.
    @raise Invalid_argument if [eps] is outside (0, 1/2), or an override is
    inconsistent (n < 1, s0 < 2n). *)

val ri : r:float -> int -> float
(** [ri ~r i] is [R_i]; [R_1 = 1]. *)

val n_formula : r:float -> eps:float -> int
(** Smallest admissible [n] (the Appendix bound, rounded up and at least 1). *)

val s0_formula : r:float -> n:int -> int
(** Smallest admissible [S0] for a given [n]. *)

val ti : r:float -> n:int -> total_old:int -> i:int -> int
(** [ti ~r ~n ~total_old ~i] is the short-flow duration for edge i of the
    pump adversary, [2S / (r + R_i)] with [2S = total_old], rounded down. *)

val s' : r:float -> n:int -> total_old:int -> int
(** The pumped queue size [2S (1 - R_n)] with [2S = total_old], rounded
    down. *)

val x_param : r:float -> n:int -> total_old:int -> s_ingress:int -> int
(** The part-(4) count [X = S' - r*S + n] where [S = s_ingress] is the
    ingress-buffer population; clamped to [0, floor (r * s_ingress)] (Claim
    3.7 guarantees the clamp is vacuous for admissible parameters). *)

val chain_length : eps:float -> int
(** The M of Theorem 3.17: gadgets needed so a full cycle multiplies the seed
    queue by more than 1.25, i.e. the least M with
    [r^3 (1+eps)^M / 4 > 1.25]. *)

val growth_per_cycle : eps:float -> m:int -> float
(** The theorem's lower bound [r^3 (1+eps)^M / 4] on per-cycle seed growth. *)

(** {1 Exact (non-worst-case) growth model}

    The theorem's per-gadget factor (1+ε) and per-cycle loss 1/4 are loose
    bounds; the construction actually multiplies a gadget's queue by
    [2 (1 - R_n)] per pump, loses only ~n packets in the drain, and keeps an
    r^3 fraction in the stitch.  Experiments size M with this model so cycle
    lengths stay tractable; the theorem formula is reported alongside. *)

val pump_factor : r:float -> n:int -> float
(** [2 (1 - R_n)] — the exact S'/S of one pump. *)

val cycle_growth_actual : r:float -> n:int -> m:int -> float
(** Predicted seed ratio of one full cycle:
    [(1 - R_n) * (2 (1 - R_n))^(m-1) * r^3] (startup halves the seed count
    before its pump factor; the drain loss of ~n is ignored). *)

val chain_length_actual : r:float -> n:int -> int
(** Least M whose {!cycle_growth_actual} exceeds 1.5. *)
