(** Deterministic scenario specifications.

    A spec is the complete parameter record of an experiment and the one
    place its parameters are written: the run reads every value through
    {!read}, which fails a run that reads a field the spec lacks or leaves
    a field unread, so the spec is exactly what the run used.  Specs have
    a canonical encoding that is independent of field order, and a content
    hash over [name + salt + canonical spec] that keys the result cache.
    The campaign's salt is a digest of the sources, so a change to the
    spec or to the code gives a new key and nothing needs bumping. *)

type value =
  | Bool of bool
  | Int of int
  | Float of float
  | Ratio of int * int  (** kept exact, not collapsed to float *)
  | Str of string
  | List of value list

type t = (string * value) list

val canonical : t -> string
(** Stable text encoding: fields sorted by key, values length-prefixed so
    no two distinct specs share an encoding.
    @raise Invalid_argument on duplicate keys. *)

val hash : ?salt:string -> name:string -> t -> string
(** Hex digest of the scenario identity ([salt] defaults to [""]).  This is
    the cache key: any change to the name, the salt, or any field value
    produces a different key. *)

val to_json : t -> Aqt_util.Jsonx.t
(** For embedding in cache files / journal events (informational; the
    canonical encoding, not this JSON, is what gets hashed). *)

(** {2 Reading a spec} *)

type reader
(** One spec's fields, and which of them have been read. *)

type 'a shape
(** How one value is read. *)

val int : int shape
val ratio : Aqt_util.Ratio.t shape
val list : 'a shape -> 'a list shape

val pair : 'a shape -> 'b shape -> ('a * 'b) shape
(** A two-element [List]. *)

val get : reader -> 'a shape -> string -> 'a
(** [get r shape key] is field [key], read as [shape].
    @raise Invalid_argument naming [key] if the spec has no such field or
    its value, or an element of it, has another shape. *)

val read : t -> (reader -> 'a) -> 'a
(** [read spec f] is [f r] for a fresh reader [r] over [spec]; once [f]
    returns, every field of [spec] must have been read.
    @raise Invalid_argument naming the first field [f] never read, and
    whatever [f] raises. *)
