(** Arrays of blocks, built without a forced minor collection.

    In OCaml 5.1, [Array.make n x] with [n] above [Max_young_wosize] (256
    words) allocates on the major heap, and when [x] is a block still in
    the minor heap it first runs a minor collection, which stops every
    domain, so that the new array holds no young pointer.  [Array.init],
    [Array.map] and [Array.of_list] start from [Array.make] with their
    first element, which is usually fresh.  These build the same arrays
    from chunks of at most 256 elements joined by [Array.concat], which
    writes a young element with [caml_initialize] and collects nothing.
    Arrays of immediates ([int], [bool], constant constructors) and float
    arrays need none of this.  A growing buffer doubles with
    [Array.append a a] for the same reason. *)

val init : int -> (int -> 'a) -> 'a array
(** [Array.init]: [f] is applied to [0], [1], ..., [n - 1] in that order. *)

val map : ('a -> 'b) -> 'a array -> 'b array
(** [Array.map], applied in index order. *)

val of_list : 'a list -> 'a array
(** [Array.of_list]. *)
