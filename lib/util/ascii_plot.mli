(** Minimal ASCII line/scatter plots for terminal experiment output.

    Used by examples and the benchmark harness to show queue-size trajectories
    (the paper's "figures" are graphs and growth curves).  Not a plotting
    library: fixed-size character raster, linear or log-y scaling, one or two
    series. *)

type t

val create : ?logy:bool -> title:string -> unit -> t
(** The raster is 72x20 characters. [logy] plots log10(max 1 y). *)

val add_series : t -> glyph:char -> (float * float) array -> unit

val render : t -> string
val print : t -> unit
