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
    the interned array for the rewritten contents.  The owning network
    recycles records: once a packet is absorbed or dropped, its record may
    be reinitialised for a new packet, so a handle is valid only until its
    packet is absorbed or dropped.  Every field is mutable only to make
    that in-place reinitialisation possible. *)

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

val current_edge : t -> int
(** The edge the packet is waiting for.
    @raise Invalid_argument if absorbed. *)

val remaining : t -> int
(** Edges still to traverse, including the next one; 0 once absorbed. *)

val remaining_equals : t -> int array -> bool
(** Whether the remaining route (next edge onward) equals the array,
    compared in place without copying. *)

val traversed : t -> int
(** Edges already crossed (= distance from source). *)

val is_absorbed : t -> bool

type view = {
  v_id : int;
  v_injected_at : int;
  v_hop : int;
  v_buffered_at : int;
  v_route : int array;  (** a fresh copy; safe to retain *)
}
(** Everything observable about a buffered packet, copied out: the
    fields on which the engines must agree, packet for packet, on
    identical runs.  {!Soa.buffer_packets} returns these. *)

val view : t -> view
(** The record's view. *)
