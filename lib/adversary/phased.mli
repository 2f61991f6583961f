(** Sequencing adaptive adversary phases.

    The paper's instability adversary (Theorem 3.17) is built by running
    parameterized sub-adversaries one after another, each constructed from
    the network state at the moment its phase starts (the measured queue size
    S determines the phase's flows and duration).  A {!phase} is therefore a
    constructor: given the network and the phase's start step, it returns the
    driver to run and the phase length in steps. *)

type phase = Aqt_engine.Network.t -> int -> Aqt_engine.Sim.driver * int
(** [phase net start] — [start] is the first step of the phase; the returned
    duration must be positive. *)

val idle : int -> phase
(** No injections for the given number of steps. *)

val sequence : ?on_phase:(int -> int -> unit) -> phase list -> Aqt_engine.Sim.driver
(** Runs the phases in order; after the last one, injects nothing.
    [on_phase i start] is called when phase [i] (0-based) begins. *)

val run :
  ?recorder:Aqt_engine.Recorder.t ->
  ?wrap:(Aqt_engine.Sim.driver -> Aqt_engine.Sim.driver) ->
  Aqt_engine.Network.t ->
  phase ->
  int
(** [run net phase] runs one phase to completion from the network's
    current step and returns its duration.  [wrap] decorates the phase's
    driver (e.g. {!Aqt_engine.Spacetime.driver_wrap}); [recorder] goes to
    {!Aqt_engine.Sim.run}. *)

val cycle :
  ?on_cycle:(int -> int -> unit) ->
  ?on_phase:(int -> int -> unit) ->
  phase list ->
  Aqt_engine.Sim.driver
(** Like {!sequence} but restarts the phase list forever.  [on_cycle k start]
    fires when cycle [k] (0-based) begins. *)
