(** Deterministic pseudo-random numbers (splitmix64).

    Every randomized component of the simulator takes an explicit [Prng.t] so
    that experiments are reproducible bit-for-bit across runs and platforms.
    Splitmix64 passes BigCrush, needs 64 bits of state, and is trivially
    splittable, which keeps independent experiment arms decorrelated. *)

type t

val create : int -> t
(** [create seed] is a fresh generator. *)

val split : t -> t
(** A statistically independent generator derived from (and advancing) [t]. *)

val stream : t -> int -> t
(** [stream t i] is the [i]-th of a family of statistically independent
    generators derived from [t] {e without} advancing it: a jump, not a
    draw.  Unlike repeated {!split}, the result depends only on [t]'s
    current state and [i], so a worker pool can hand worker [i] its own
    decorrelated stream regardless of the order workers start in, and a
    re-run reproduces every per-worker sequence bit-for-bit.
    @raise Invalid_argument if [i < 0]. *)

val copy : t -> t

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound); [bound > 0] required.
    @raise Invalid_argument if [bound <= 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [0, bound). *)

val bool : t -> bool

val bernoulli : t -> num:int -> den:int -> bool
(** [bernoulli t ~num ~den] is true with probability exactly [num/den].
    @raise Invalid_argument ["Prng.bernoulli"] unless [0 <= num <= den]
    and [den > 0]. *)

val bernoulli_fill : t -> num:int -> den:int -> bool array -> unit
(** [bernoulli_fill t ~num ~den a] sets [a.(0)], [a.(1)], ... in turn to
    [bernoulli t ~num ~den]: the same draws, in the same order, with the
    same rejections, so the booleans and the generator's next state are
    those of [Array.length a] single draws.  It allocates nothing.
    @raise Invalid_argument ["Prng.bernoulli"] on a bad [num]/[den], but
    only when [a] is non-empty: an empty fill draws nothing and checks
    nothing. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)
