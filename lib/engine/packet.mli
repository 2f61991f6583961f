(** Packets in the adversarial queuing model.

    A packet carries a full route (array of edge ids) and the index [hop] of
    the next edge it must traverse.  The route array may be rewritten while
    the packet is in flight (the rerouting technique of Lemma 3.3); only the
    suffix strictly beyond the current next edge may change.

    Time fields follow the model of Section 2: a packet enters a buffer in the
    second substep of step [t] ([buffered_at = t]) and can be forwarded in the
    first substep of step [t+1] at the earliest.

    Sharing rules of the fast path: [route] may be an interned canonical
    array shared with other packets ({!Route_intern}) — never mutate its
    elements; route rewrites go through [Network.reroute], which installs
    the interned array for the rewritten contents.  When the owning network
    recycles packets ([Network.create ~recycle:true]), a record may be
    reinitialised for a new packet after absorption, so do not hold on to
    absorbed packets — every field is mutable only to make that in-place
    reinitialisation possible. *)

type t = {
  mutable id : int;
  mutable injected_at : int;
  mutable initial : bool;
      (** True for packets placed by an initial configuration rather than
          injected by the adversary (Section 4's S-initial-configurations). *)
  mutable exogenous : bool;
      (** True for background cross-traffic injected outside the adversary's
          budget (robustness experiments): excluded from rate accounting,
          Def 3.2 edge-use tracking and the injection log. *)
  mutable tag : string;
      (** Adversary annotation ("old", "short", ...); traces only. *)
  mutable route : int array;
  mutable hop : int;  (** Index into [route] of the next edge; [= length route]
                          once absorbed. *)
  mutable buffered_at : int;
  mutable reroutes : int;  (** Number of times the route suffix was rewritten. *)
}

val next_edge : t -> int option
(** The edge the packet is waiting for, or [None] if absorbed. *)

val current_edge : t -> int
(** Like [next_edge] but raises.  @raise Invalid_argument if absorbed. *)

val remaining : t -> int
(** Edges still to traverse, including the next one; 0 once absorbed. *)

val remaining_equals : t -> int array -> bool
(** Whether the remaining route (next edge onward) equals the array,
    compared in place without copying. *)

val traversed : t -> int
(** Edges already crossed (= distance from source). *)

val is_absorbed : t -> bool

val pp : Format.formatter -> t -> unit
