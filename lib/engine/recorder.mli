(** Periodic sampling of network state during a run.

    A recorder samples global metrics every [every] steps; the samples feed
    the growth-slope stability classifier and the ASCII trajectory plots. *)

type sample = {
  t : int;
  in_flight : int;
  cur_max_queue : int;
  absorbed : int;
  dropped : int;  (** cumulative capacity-model drops (0 when unbounded) *)
  max_dwell : int;
  gc_minor_words : float;
      (** Cumulative minor-heap words allocated by this process at sampling
          time ([Gc.quick_stat]); diff two samples for allocation per step. *)
  gc_major_words : float;
      (** Cumulative major-heap words (direct allocation + promotion).  Flat
          across samples = the zero-allocation steady state. *)
}

type t

val make : ?every:int -> unit -> t
(** Default samples every step. *)

val observe : t -> Network.t -> unit
(** Call after each [Network.step]; samples when [now mod every = 0]. *)

val samples : t -> sample array
val length : t -> int

val to_rows : t -> (string * float) list list
(** One labelled row per sample, in time order — the keys are [t],
    [in_flight], [max_queue], [absorbed], [dropped], [max_dwell],
    [gc_minor_words], [gc_major_words].  This is the exchange format for
    embedding sampled trajectories in campaign journals and cached results
    without ad-hoc formatting at the call site. *)

val points : t -> (sample -> float) -> (float * float) array
(** [(t, f sample)] pairs, for plotting. *)

val last : t -> sample option

val major_words_per_step : t -> float
(** Major-heap growth per simulated step between the first and last sample
    (0 with fewer than two samples).  The engine's zero-allocation
    acceptance metric: a warmed-up fast-path run should report ~0. *)
