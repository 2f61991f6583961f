(** Hash-consing of route arrays (the engine's zero-allocation fast path).

    Interning maps route {e contents} to one canonical array: every packet
    injected with the same route shares a single immutable array instead of
    carrying its own copy, and route validation runs once per distinct route
    rather than once per injection.

    The table is open addressing over a power-of-two slot array, at most
    half full, with each route's hash stored beside it.  A lookup hashes
    the route (its length, its first eight and its last two edges), then
    probes consecutive slots, comparing contents only where the stored
    hash agrees; it allocates nothing, and a hit returns an option built
    once when the route was added.  The canonical array is always the
    table's own copy, so a caller's array, a flow's route included, is
    never physically canonical and every lookup compares contents.

    Canonical arrays are shared — they must never be mutated in place.
    Rerouted routes are interned as well: [Network.reroute] interns the
    rewritten route, so packets rewritten to equal contents share one
    array and the rewrite is validated once per distinct route.

    A table may be shared between several networks over the {e same} graph
    (e.g. every cell of a rate sweep) so the route set is validated and
    allocated once for the whole grid.  Do not share a table across networks
    with different graphs: validation performed for one graph does not carry
    over to another. *)

type t

val create : unit -> t

val find : t -> int array -> int array option
(** The canonical array for these contents, if already interned.  Counts as
    a hit when found. *)

val add : t -> int array -> int array
(** Interns a copy of the route and returns it, the new canonical array;
    if the contents were already interned, the copy replaces the old
    canonical array.  Counts as a miss.  The caller is responsible for
    having validated the route and for checking [find] first ([Network]
    does, so it can validate exactly once per distinct route).  Right after
    a [find] of the same array that missed, with the array unchanged and
    the table untouched in between, [add] inserts at the slot where that
    probe stopped instead of probing again. *)

val intern : t -> int array -> int array
(** [find] then [add]: the canonical array for the given contents. *)

val distinct : t -> int
(** Number of distinct routes interned. *)

val hits : t -> int

val misses : t -> int
(** Routes interned: [intern]s that found nothing, and every [add] (=
    [distinct] unless [add] was given contents already interned). *)

val stats : t -> string
(** One-line human-readable summary. *)
