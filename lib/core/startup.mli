(** The startup adversary of Lemma 3.15: establish C(S', F(1)) from a buffer
    of seed packets.

    Precondition: all packets in the network are 2S packets in the ingress
    buffer of gadget 1, each with remaining route of length 1 (the ingress
    edge only), and the other edges of the gadget are new (Def 3.2).  Over
    [2S + n] steps the phase

    + extends the seeds' routes to [a, e_1..e_n, a'] (rerouting);
    + injects rate-r single-edge flows on each [e_i] during [[i, t_i]];
    + injects a rate-r stream of [S' + n] packets from step 1, the first [n]
      with route [[a]] and the rest with route [a, f_1..f_n, a'].

    Postcondition: C(S', F(1)) with [S' = 2S (1 - R_n) >= S (1 + eps)]. *)

val seeded :
  ?policy:Aqt_engine.Policy_type.t ->
  ?tie_order:Aqt_engine.Network.tie_order ->
  ?log_injections:bool ->
  ?f_len:int ->
  n:int ->
  m:int ->
  int ->
  Aqt_engine.Network.t * Gadget.t
(** [seeded ~n ~m seeds] is the state every run of the construction starts
    from, and this phase's precondition: the cyclic chain of [m] gadgets
    F(n) ({!Gadget.cyclic}, f-paths of length [f_len]) under [policy]
    (default FIFO), with [seeds] packets tagged ["seed"] queued at the
    ingress of F(1) on the one-edge {!Gadget.seed_route}.  [tie_order] and
    [log_injections] are passed to {!Aqt_engine.Network.create}. *)

type plan = {
  total_seed : int;  (** The measured 2S. *)
  duration : int;  (** 2S + n. *)
  s_target : int;  (** The predicted S'. *)
  short_flows : Aqt_adversary.Flow.t list;
  stream_counter : Aqt_adversary.Flow.t;
      (** Pacing of the part-(3) stream; the first [n] released packets take
          the one-edge route, the rest the long route. *)
}

val plan : params:Params.t -> gadget:Gadget.t -> start:int -> total_seed:int -> plan

val phase : params:Params.t -> gadget:Gadget.t -> Aqt_adversary.Phased.phase
(** Measures the seed buffer, reroutes, runs the flows.
    @raise Failure if there are no seed packets or rerouting fails. *)
