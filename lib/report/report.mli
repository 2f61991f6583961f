(** The self-regenerating experiment report.

    [generate] renders a set of {!figure}s into an output directory as
    SVG files plus a Markdown [index.md], pulling data from three
    sources:

    - the campaign layer: the experiments a figure declares are run
      through {!Aqt_harness.Campaign.run} (cache hits resolve instantly,
      so a warm [_campaign/] directory makes regeneration cheap), and
      their {!Aqt_harness.Registry.result} tables and sampled
      trajectories become plot inputs;
    - direct simulation: structural figures (the Figure 3.1/3.2 gadget
      renders, the spacetime heatmap, the stability sweep) run small
      seeded simulations inline;
    - committed artifacts: the benchmark figure reads the calibration
      runs under [bench/e2e/runs/].

    Everything is deterministic — seeded runs, fixed number formatting
    ({!Svg.f}), no timestamps — so regenerating over an unchanged tree
    reproduces the committed [docs/report/] byte for byte; CI relies on
    this to fail on drift. *)

type ctx = {
  results : (string * Aqt_harness.Registry.result) list;
      (** Experiment name -> campaign result, for every experiment some
          requested figure declared. *)
  bench : (string * float) list;
      (** One [label -> median] bar per workload and end-to-end metric of
          the committed benchmark calibration runs, over the untraced runs
          with correct answers; the label names the unit and the
          interquartile range (quartiles as [bench/e2e/calibrate.py]
          computes them) as a share of the median.  [[]] when the runs
          directory is absent. *)
}

type figure = {
  id : string;  (** Output basename: [<id>.svg]. *)
  title : string;
  caption : string;  (** Markdown, shown under the figure in the index. *)
  experiments : string list;
      (** Campaign experiment names this figure consumes; the union over
          all requested figures is run once before rendering. *)
  render : ctx -> string;  (** Must return a complete SVG document. *)
}

val default_figures : unit -> figure list
(** The report shipped in [docs/report/]: gadget renders of Figures
    3.1/3.2, the E1 seed-growth curves, the E2 pump measured-vs-predicted
    plot and trajectory, the E7 stable-workload trajectory, the fluid
    pump profile, the policy x rate sweep heatmap, the startup+pump
    spacetime heatmap, and the end-to-end benchmark chart. *)

(** {2 Data access helpers}

    Exposed for figure definitions and tests. *)

val find_table :
  ctx -> experiment:string -> id:string -> Aqt_harness.Registry.table option

val column : Aqt_harness.Registry.table -> string -> float array
(** The named column as floats.  Cells are parsed leniently: plain
    numbers, ["a/b"] ratios, a trailing [x] (growth factors) and
    [true]/[false] all convert; anything else becomes [nan] (and is
    dropped by the plot layer).  @raise Not_found on an unknown header. *)

val trajectory_points :
  (string * float) list list -> x:string -> y:string -> (float * float) array
(** Extract [(x, y)] pairs from labelled trajectory rows (the
    {!Aqt_harness.Registry.result} exchange format); rows missing either
    key are skipped. *)

val build_ctx :
  ?bench_runs:string ->
  registry:Aqt_harness.Registry.t ->
  options:Aqt_harness.Campaign.options ->
  figure list ->
  ctx
(** Assemble the data context for a set of figures without rendering
    anything: run the union of their declared experiments through the
    campaign (cache hits instant) and read the benchmark runs in directory [bench_runs] (default
    [bench/e2e/runs]; tests pass their own).  [generate] is [build_ctx] plus rendering to
    disk; the serve daemon uses [build_ctx] directly to render single
    figures in memory. *)

val generate :
  ?figures:figure list ->
  ?only:string list ->
  ?bench_runs:string ->
  registry:Aqt_harness.Registry.t ->
  options:Aqt_harness.Campaign.options ->
  out:string ->
  unit ->
  string list
(** Render [figures] (default {!default_figures}; [only] filters by
    figure id) into directory [out] (created as needed) and write
    [index.md].  [options] selects the campaign directory/salt — its
    [only]/[quiet] fields are overridden internally.  [bench_runs] is
    as for {!build_ctx}.  Returns the paths
    written, index first.
    @raise Failure if [only] names an unknown figure. *)
