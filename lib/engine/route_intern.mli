(** Hash-consing of route arrays (the engine's zero-allocation fast path).

    Interning maps route {e contents} to one canonical array: every packet
    injected with the same route shares a single immutable array instead of
    carrying its own copy, and route validation runs once per distinct route
    rather than once per injection.  Lookups take a physical-equality fast
    path, so adversaries that keep reusing the same route value pay one hash
    per injection and nothing else.

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
(** Unconditionally interns a copy of the route and returns the canonical
    array.  The caller is responsible for having validated the route and for
    checking [find] first ([Network] does, so it can validate exactly once
    per distinct route). *)

val intern : t -> int array -> int array
(** [find] then [add]: the canonical array for the given contents. *)

val distinct : t -> int
(** Number of distinct routes interned. *)

val hits : t -> int

val misses : t -> int
(** Lookups that had to intern a new route (= [distinct] unless the caller
    used [add] directly). *)

val stats : t -> string
(** One-line human-readable summary. *)
