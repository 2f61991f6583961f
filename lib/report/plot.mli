(** Line / step plots and bar charts as deterministic SVG.

    The inputs are plain [(x, y)] arrays — typically
    [Aqt_engine.Recorder.points]-shaped trajectories or columns parsed out
    of experiment tables — and the output is a complete SVG document
    (string).  Degenerate inputs are first-class: an empty series list, a
    series with no points, a constant series or a single point all render
    a valid figure instead of raising, because the report generator feeds
    this module with whatever a campaign journal happens to contain. *)

type series = {
  label : string;
  points : (float * float) array;
  step : bool;
      (** Render as a step (staircase) line — for counters sampled at
          intervals; [false] joins points directly. *)
}

val series : ?step:bool -> string -> (float * float) array -> series
(** [series label points] — [step] defaults to [false]. *)

val render :
  ?w:float ->
  ?h:float ->
  ?x_label:string ->
  ?y_label:string ->
  ?y_from_zero:bool ->
  title:string ->
  series list ->
  string
(** A complete SVG document: title, axes with nice ticks, a recessive
    grid, one polyline per series in fixed palette order, point markers
    when a series has few points, and a legend when there are at least
    two series.  Non-finite points are dropped; if nothing remains the
    frame renders with a "no data" note.  [y_from_zero] (default [true])
    anchors the y-axis at 0 when all values are non-negative. *)

val hbars :
  ?w:float ->
  ?log_x:bool ->
  ?x_label:string ->
  title:string ->
  (string * float) list ->
  string
(** Horizontal bars, one per labelled value, in input order; bar length
    on a linear or log10 axis ([log_x] default [false]; non-positive
    values clamp to the axis minimum).  Height grows with the number of
    bars.  Values are direct-labelled at the bar end, to three
    significant digits. *)

val ticks : lo:float -> hi:float -> max_ticks:int -> float list
(** Nice tick positions (1-2-5 progression) covering [[lo, hi]]; exposed
    for tests.  Returns a single tick when the interval is empty. *)
