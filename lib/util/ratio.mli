(** Exact rational arithmetic on machine integers.

    Rates in the adversarial queuing model are rationals [p/q]; all
    capacity-constraint checks in this repository are performed exactly with
    this module, never with floats.  Values are kept normalized: [q > 0] and
    [gcd |p| q = 1].  Overflow is the caller's concern; the magnitudes used by
    the simulator (packet counts times denominators) stay far below 2^62. *)

type t = private { p : int; q : int }

val make : int -> int -> t
(** [make p q] is the normalized rational [p/q].  @raise Invalid_argument if
    [q = 0]. *)

val of_int : int -> t

val zero : t
val one : t
val half : t

val num : t -> int
val den : t -> int

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
(** @raise Division_by_zero if the divisor is zero. *)

val neg : t -> t
val inv : t -> t
(** @raise Division_by_zero on [zero]. *)

val mul_int : t -> int -> t

val compare : t -> t -> int
val equal : t -> t -> bool
val ( < ) : t -> t -> bool
val ( <= ) : t -> t -> bool
val ( > ) : t -> t -> bool
val ( >= ) : t -> t -> bool

val min : t -> t -> t
val max : t -> t -> t

val floor : t -> int
(** Largest integer [<= p/q]; correct for negative values too. *)

val ceil : t -> int
(** Smallest integer [>= p/q]. *)

val floor_mul : t -> int -> int
(** [floor_mul r k] is [floor (r * k)] computed without normalization. *)

val ceil_mul : t -> int -> int
(** [ceil_mul r k] is [ceil (r * k)]. *)

val to_float : t -> float

val of_float_approx : float -> t
(** Best rational approximation with denominator [<= 10_000],
    by continued fractions.  Used only to parse rates typed as decimals.
    @raise Invalid_argument on an infinity or a NaN. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
