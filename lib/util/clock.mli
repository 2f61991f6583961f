(** Monotonic time for the harness and the serve plane.

    Wall-clock time ([Unix.gettimeofday]) steps when NTP adjusts it,
    which corrupts durations, deadlines, latency measurements and
    token-bucket refill.  Every such computation in lib/harness and
    lib/serve therefore reads [CLOCK_MONOTONIC] through {!monotonic}.
    Wall time is kept only where an absolute timestamp is the point:
    journal event [at] fields, cache [saved_at] stamps and file names. *)

val monotonic : unit -> float
(** Seconds from an arbitrary fixed origin, strictly unaffected by
    wall-clock steps. *)

val wall : unit -> float
(** [Unix.gettimeofday] — absolute timestamps only. *)
