(** The scenario registry: named experiments with deterministic specs.

    Every experiment of the bench suite registers itself here as an
    {!entry}: a stable name (the [f1..e15, a1.., bench] ids), a one-line
    title, a {!Spec.t} parameter record, and a run function returning a
    typed {!result}.  The campaign layer ({!Cache}, {!Scheduler},
    {!Journal}) is written entirely against this interface, so new
    experiments become campaign-able by registering — nothing else.

    A {!result} is an ordered list of items (tables interleaved with
    prose notes, preserving the presentation order of the original
    experiment), scalar metrics for the journal (e.g. peak queue), and an
    optional sampled trajectory (rows of labelled floats, typically from
    [Engine.Recorder.to_rows]). *)

type table = {
  id : string;  (** CSV basename, e.g. ["e1_thm_3_17"] *)
  headers : string list;
  rows : string list list;
}

type item = Table of table | Note of string

type result = {
  items : item list;
  metrics : (string * float) list;
  trajectory : (string * float) list list;
}

(** {2 Result builder}

    Experiments accumulate their output through a builder instead of
    printing: the same run function then serves the direct bench driver
    (which prints), the cache (which serializes) and the journal (which
    embeds metrics and trajectories). *)

module Rb : sig
  type t

  val create : unit -> t
  val table : t -> id:string -> headers:string list -> string list list -> unit

  val note : t -> string -> unit
  (** Trailing newlines are trimmed; embedded newlines are kept. *)

  val metric : t -> string -> float -> unit
  val trajectory : t -> (string * float) list list -> unit
  val result : t -> result
end

(** {2 Entries} *)

type entry = {
  name : string;
  title : string;
  spec : Spec.t;
  run : unit -> result;
}

type t

val create : unit -> t

val register : t -> entry -> unit
(** @raise Invalid_argument on a duplicate name. *)

val find : t -> string -> entry option

val all : t -> entry list
(** In registration order. *)

val names : t -> string list

(** {2 Rendering and serialization} *)

val print_result : ?csv_dir:string -> result -> unit
(** Print tables ({!Aqt_util.Tbl}) and notes in order; when [csv_dir] is
    given, mirror each table to [csv_dir/<id>.csv] (directory created on
    demand, write failures ignored as in the original bench harness). *)

val result_to_json : result -> Aqt_util.Jsonx.t
val result_of_json : Aqt_util.Jsonx.t -> result  (** @raise Failure on mismatch. *)
