(** Growable arrays.

    OCaml 5.1 predates [Stdlib.Dynarray]; this is the small subset the
    simulator needs, with amortized O(1) [push] and O(1) random access.
    Growing never forces a minor collection, whatever the element. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

val get : 'a t -> int -> 'a
(** @raise Invalid_argument on out-of-bounds access. *)

val set : 'a t -> int -> 'a -> unit
val push : 'a t -> 'a -> unit

val pop : 'a t -> 'a
(** Removes and returns the last element.  @raise Invalid_argument if empty. *)

val last : 'a t -> 'a
val clear : 'a t -> unit
val iter : ('a -> unit) -> 'a t -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit
val fold_left : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val exists : ('a -> bool) -> 'a t -> bool
val for_all : ('a -> bool) -> 'a t -> bool
val to_list : 'a t -> 'a list
val to_array : 'a t -> 'a array
val of_list : 'a list -> 'a t
val swap_remove : 'a t -> int -> 'a
(** [swap_remove d i] removes index [i] in O(1) by moving the last element into
    its place; returns the removed element.  Order is not preserved. *)
