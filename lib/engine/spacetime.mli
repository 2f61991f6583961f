(** Space-time diagrams of queue occupancy.

    Samples every edge's buffer length each time it is observed and renders
    the result as a text heat map — time on the horizontal axis, one row per
    edge.  Intended for small networks (every edge gets a row) and short
    horizons; the examples use it to show the paper's constructions moving
    queues through gadget chains. *)

type t

val make : ?every:int -> Network.t -> t
(** Samples when [now mod every = 0] (default 1). *)

val observe : t -> unit
(** Record the current buffer lengths (respecting [every]). *)

val driver_wrap : t -> Sim.driver -> Sim.driver
(** A driver that behaves like the argument but records a sample before
    every step. *)

(** {2 Raw access}

    For renderers that draw the samples themselves (the SVG report uses
    these to build a real heatmap out of the same observations the text
    view shows). *)

val n_samples : t -> int
(** Observations recorded so far. *)

val every : t -> int
(** The sampling stride this recorder was created with; sample [i] was
    taken at simulator time [i * every] when driven by {!driver_wrap}
    from time 0. *)

val labels : t -> string array
(** Edge labels in edge-id order — row headers for {!matrix}. *)

val matrix : t -> float array array
(** [matrix t].(e).(s) is the buffer length of edge [e] at sample [s]
    (as a float, ready for plotting).  One row per edge of the network,
    one column per observation; rows are empty when nothing was
    observed. *)

val render : t -> string
(** Heat map with one row per edge (edge label as the row header), glyphs
    scaled to the maximum observed queue: ['.' ':' '-' '=' '+' '*' '#' '@'].
    Columns are down-sampled to at most 100 sample points, and rows to the
    64 busiest edges. *)

val print : t -> unit
