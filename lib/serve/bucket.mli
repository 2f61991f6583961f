(** (ρ,σ) token-bucket admission control.

    The serving layer's admission rule is the same constraint the paper
    places on its adversary: over any interval of length [t] at most
    [ρ·t + σ] requests enter the system — Rosenbaum's (ρ,σ)-token-bucket
    formulation of the (w,r) rate-bounded adversary, applied to
    ourselves.  The bucket holds at most [σ] tokens, refills
    continuously at [ρ] tokens/second, and {!try_take} admits exactly
    when a whole token is available, so the admitted request stream is
    (ρ,σ)-bounded by construction and everything past it is shed at the
    door instead of queueing unboundedly.

    The server layers two of these: a per-endpoint bucket bounds the
    aggregate rate into each handler class, and a {!Keyed} per-client
    family bounds any single peer, so one greedy client exhausts its own
    envelope instead of the endpoint's.

    Domain-safe: a single mutex guards the refill-and-take, which is a
    handful of float operations. *)

type t

val create : ?now:(unit -> float) -> rho:float -> sigma:int -> unit -> t
(** [create ~rho ~sigma ()] starts full ([σ] tokens).  [now] defaults to
    {!Aqt_util.Clock.monotonic} so refill is immune to wall-clock steps; tests
    inject a fake clock to drive refill deterministically.
    @raise Invalid_argument unless [rho > 0] and [sigma >= 1]. *)

val try_take : t -> bool
(** Admit one request if a token is available; never blocks. *)

val refund : t -> unit
(** Return one token taken by {!try_take}, capped at [σ].  Used when a
    later admission layer sheds a request this bucket already admitted,
    so passing one gate but not the other costs nothing. *)

val level : t -> float
(** Current token count (after refill); for metrics export. *)

val rho : t -> float
val sigma : t -> int

(** A family of identical buckets keyed by string — per-client admission
    keyed by peer address (or a trusted client-id header).  Keys
    materialise lazily on first use; when the table is full the
    least-recently-{e used} key is evicted, so only idle clients lose
    their bucket.  A re-materialised key starts full, which errs toward
    admitting — acceptable because eviction only reaches keys that have
    been quiet longest. *)
module Keyed : sig
  type t

  val create :
    ?now:(unit -> float) ->
    ?max_entries:int ->
    rho:float ->
    sigma:int ->
    unit ->
    t
  (** Every key gets its own [(rho, sigma)] bucket.  [max_entries]
      (default 1024) caps live keys; [now] defaults to
      {!Aqt_util.Clock.monotonic}.
      @raise Invalid_argument unless [rho > 0], [sigma >= 1] and
      [max_entries >= 1]. *)

  val try_take : t -> string -> bool
  (** Admit one request for [key], creating (possibly evicting) as
      needed; never blocks. *)

  val refund : t -> string -> unit
  (** Return one token to [key]'s bucket, capped at [σ]; a no-op when
      the key is not live (evicted between take and refund). *)

  val keys : t -> int
  (** Live keys; for metrics export. *)

  val level : t -> string -> float option
  (** Token count for [key], if it is live. *)
end
