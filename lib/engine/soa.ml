(* Struct-of-arrays engine core with domain-partitioned parallel stepping.

   The record engine ([Network]) chases a heap-allocated [Packet.t] per
   packet through per-edge deques: every forward is at least three dependent
   pointer loads, so a step over a large graph is cache-miss-bound and
   strictly single-core.  This module keeps the same observable semantics —
   verified packet-for-packet against [Aqt_check.Ref_model] by the lockstep
   differ — but stores every packet field in a flat [int] array indexed by a
   packet *slot*, and every per-edge buffer as an index slice into a shared
   arena, so one simulation step is a cache-linear sweep with zero per-step
   allocation in steady state.

   Layout
   ------
   - Packet slab: parallel arrays [pid]/[inj_at]/[pkey]/[pseq]/[pflag] of
     identity fields, all indexed by slot; the positional fields (hop,
     route slice, buffered-at) live inline in the buffer records — see
     [stride] below.  Slots of absorbed or dropped packets go on a free
     stack and are reinitialised in place — recycling is structural here,
     not opt-in.
   - Route arena: one flat [int array] of edge ids; a packet's route is the
     slice [r_off, r_off + r_len).  Routes are content-interned (the same
     mixing discipline as [Route_intern]) so validation runs once per
     distinct route; reroutes append a fresh slice (copy-on-reroute), never
     mutate one in place.
   - Buffers: per edge an [off/cap/len/head] quadruple describing a slice
     of [stride]-word packet records in a partition-owned arena.
     Arrival-ordered policies use the slice as a ring deque; [By_key]
     policies as a binary heap on (key, seq) — the same service orders as
     [Network.Buffer_q].  A full slice relocates to the end of its arena with
     doubled capacity (bump allocation; the abandoned slice is garbage
     until the run ends, bounded by the doubling).

   Parallel stepping
   -----------------
   Edges are partitioned into [domains] contiguous blocks, each owned by one
   OCaml 5 domain (a persistent pool; workers block on a condition variable
   between phases).  A step is two deterministic phases:

   1. Forward: every domain scans the shared active list and pops up to
      [speedup] packets from the edges it owns into position-indexed slots
      of a shared pending buffer.  Positions encode the sequential order, so
      no synchronisation order can leak into the trajectory.
   2. Exchange/deliver: every domain scans the pending buffer *in position
      order* and handles exactly the packets whose destination edge (or, for
      absorptions, last-traversed edge) it owns.  Per-destination enqueue
      order therefore equals the sequential order.  Newly activated edges
      are recorded as (position, edge) pairs per domain and merged by
      position at the barrier — the exact activation order of the
      sequential engine.  Stats are accumulated per domain and folded at
      the barrier (sums and maxima, both order-free).

   Injections always run on the main domain at a barrier, and a shared
   (Dynamic-Threshold) capacity model forces the delivery phase sequential,
   because its admission test reads global occupancy mid-substep.  The
   result: trajectories are identical to the sequential engine for every
   domain count, which [Aqt_check.Diff] asserts per step. *)

module Dyn = Aqt_util.Dynarray_compat
module Digraph = Aqt_graph.Digraph
module Capacity = Aqt_capacity.Model

type injection = Network.injection = { route : int array; tag : string }

(* ------------------------------------------------------------------ *)
(* Route interning: contents -> arena offset                           *)
(* ------------------------------------------------------------------ *)

let rec arrays_equal_from (a : int array) b la i =
  i >= la
  || (Array.unsafe_get a i = Array.unsafe_get b i
     && arrays_equal_from a b la (i + 1))

module RH = Hashtbl.Make (struct
  type t = int array

  let equal a b =
    a == b
    ||
    let la = Array.length a in
    la = Array.length b && arrays_equal_from a b la 0

  (* Same mixing discipline as [Route_intern]: multiplicative-xor over the
     length, the first few and the last two elements, with a final
     avalanche shift (see that module for why h*31+x collapses ring
     routes). *)
  let hash r =
    let n = Array.length r in
    let h = ref (n * 0x9e3779b1) in
    let upto = if n > 8 then 8 else n in
    for i = 0 to upto - 1 do
      h := (!h lxor Array.unsafe_get r i) * 0x9e3779b1
    done;
    if n > 8 then begin
      h := (!h lxor Array.unsafe_get r (n - 1)) * 0x9e3779b1;
      h := (!h lxor Array.unsafe_get r (n - 2)) * 0x9e3779b1
    end;
    let h = !h in
    (h lxor (h lsr 29)) land max_int
end)

(* ------------------------------------------------------------------ *)
(* Persistent domain pool                                              *)
(* ------------------------------------------------------------------ *)

type pool = {
  size : int; (* partitions, including the main domain *)
  mutable workers : unit Domain.t array;
  lock : Mutex.t;
  start : Condition.t;
  finished : Condition.t;
  mutable job : (int -> unit) option;
  mutable epoch : int;
  mutable busy : int;
  mutable stopping : bool;
  mutable failure : (exn * Printexc.raw_backtrace) option;
}

let pool_worker pool idx () =
  let continue = ref true in
  let seen = ref 0 in
  while !continue do
    Mutex.lock pool.lock;
    while (not pool.stopping) && pool.epoch = !seen do
      Condition.wait pool.start pool.lock
    done;
    if pool.stopping then begin
      Mutex.unlock pool.lock;
      continue := false
    end
    else begin
      seen := pool.epoch;
      let job = Option.get pool.job in
      Mutex.unlock pool.lock;
      let failed =
        try
          job idx;
          None
        with e -> Some (e, Printexc.get_raw_backtrace ())
      in
      Mutex.lock pool.lock;
      (match failed with
      | Some _ when pool.failure = None -> pool.failure <- failed
      | _ -> ());
      pool.busy <- pool.busy - 1;
      if pool.busy = 0 then Condition.broadcast pool.finished;
      Mutex.unlock pool.lock
    end
  done

let pool_create size =
  let pool =
    {
      size;
      workers = [||];
      lock = Mutex.create ();
      start = Condition.create ();
      finished = Condition.create ();
      job = None;
      epoch = 0;
      busy = 0;
      stopping = false;
      failure = None;
    }
  in
  pool.workers <-
    Array.init (size - 1) (fun i -> Domain.spawn (pool_worker pool (i + 1)));
  pool

(* Run [f 0..size-1] across the pool; the main domain takes partition 0.
   Worker exceptions are re-raised here with their original backtrace. *)
let pool_run pool f =
  Mutex.lock pool.lock;
  pool.job <- Some f;
  pool.busy <- pool.size - 1;
  pool.epoch <- pool.epoch + 1;
  Condition.broadcast pool.start;
  Mutex.unlock pool.lock;
  f 0;
  Mutex.lock pool.lock;
  while pool.busy > 0 do
    Condition.wait pool.finished pool.lock
  done;
  let failure = pool.failure in
  pool.failure <- None;
  Mutex.unlock pool.lock;
  match failure with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

let pool_shutdown pool =
  Mutex.lock pool.lock;
  pool.stopping <- true;
  Condition.broadcast pool.start;
  Mutex.unlock pool.lock;
  Array.iter Domain.join pool.workers;
  pool.workers <- [||]

(* ------------------------------------------------------------------ *)
(* The engine                                                          *)
(* ------------------------------------------------------------------ *)

let flag_initial = 1

(* A buffered (or in-transit) packet is a [stride]-word record living
   inline in a buffer slice or the pending array:

     [slot; hop; r_off; r_len; buffered_at]

   Hot positional state travels WITH the packet through sequential memory —
   forwarding is a 5-word copy between slices that the hardware prefetcher
   streams — while the identity fields nobody touches per forward (logical
   id, injection time, flags, policy key/seq) stay in slot-indexed slab
   arrays, paid for only at absorb/drop/enqueue-key time.  An earlier
   all-slab layout cost ~4 dependent cache misses per delivered packet at
   10⁶ edges (uncorrelated recycled slot ids); inlining took the 10⁶-edge
   ring from ~178 to well under 40 ns/edge-step. *)
let stride = 5

let o_slot = 0
let o_hop = 1
let o_off = 2
let o_len = 3
let o_buf = 4

(* All hot per-edge state packs into one [estride]-word record — exactly a
   64-byte cache line — so a forward touches one line for the source edge
   and one for the destination instead of eight scattered arrays.  Slice
   capacities are powers of two ([grow_buffer] doubles from 4) so the ring
   positions use a mask, not a hardware division.  Cold per-edge arrays
   ([caps], [dropped_edge], [last_use]) stay separate. *)
let estride = 8

let eo_off = 0 (* slice offset in the partition arena, record units *)
let eo_cap = 1 (* slice capacity, record units; 0 or a power of two *)
let eo_len = 2
let eo_head = 3 (* ring head (deque disciplines only) *)
let eo_seq = 4 (* arrival counter *)
let eo_sent = 5 (* packets forwarded, ever *)
let eo_maxq = 6 (* max queue length, ever *)
let eo_flag = 7 (* 1 while on the active list *)

type t = {
  graph : Digraph.t;
  policy : Policy_type.t;
  keyed : bool; (* discipline = By_key: buffers are heaps *)
  lifo : bool; (* Reverse_arrival: serve the back of the deque *)
  fast : bool; (* FIFO + unbounded: fused pop/enqueue fast paths apply *)
  tie_order : Network.tie_order;
  m : int;
  (* Compiled capacity model, as in [Network]. *)
  capacity : Capacity.t;
  bounded : bool;
  speedup : int;
  caps : int array;
  drop_head : bool;
  shared_total : int;
  dt_num : int;
  dt_den : int;
  (* Packet slab: identity fields only, one slot per live packet.  The
     positional fields are the inline records (see [stride] above). *)
  mutable slots : int; (* capacity of every slab array *)
  mutable pid : int array;
  mutable inj_at : int array;
  mutable pkey : int array; (* policy key, fixed at enqueue (By_key) *)
  mutable pseq : int array; (* per-edge arrival seq, fixed at enqueue *)
  mutable pflag : int array;
  mutable free : int array; (* stack of recycled slots *)
  mutable n_free : int;
  mutable hi_slot : int; (* slots [0, hi_slot) have ever been used *)
  (* Route arena + intern table. *)
  mutable rarena : int array;
  mutable rtop : int;
  rtable : int RH.t; (* contents -> offset (length = key length) *)
  (* Per-edge buffer slices of [stride]-word records; [barena.(owner e)]
     holds them.  Growth by relocation-with-doubling, owner-local so the
     exchange phase never contends on a bump pointer.  [b_off]/[b_cap]/
     [b_head] are in record units; word index = stride * element. *)
  barena : int array array; (* one record arena per partition *)
  btop : int array; (* per-partition bump pointer, record units *)
  emeta : int array; (* [estride] words per edge — see [eo_*] above *)
  (* Active-edge list, activation order, double-buffered across steps. *)
  mutable active : int array;
  mutable n_active : int;
  mutable active_old : int array;
  (* Pending (forwarded this step).  Sequential mode fills [0, pend_n)
     densely; parallel mode uses stride [speedup] per active position with
     per-position counts so writers never share an index. *)
  mutable pending : int array;
  mutable pend_n : int;
  mutable pend_cnt : int array;
  (* Parallel mode: the destination of each pending packet, written by the
     source-edge owner in phase 1 where nobody mutates [hop].  Edge id for
     an enqueue, [-1 - last_edge] for an absorption.  Ownership decisions
     in the delivery phase MUST read this, not recompute from [hop]: the
     destination owner increments [hop] mid-phase, and a non-owner
     recomputing from the incremented value would adopt the packet too —
     the classic double-delivery race. *)
  mutable pend_dest : int array;
  (* Counters and instrumentation — names match [Network]. *)
  mutable now : int;
  mutable next_id : int;
  mutable in_flight : int;
  mutable absorbed : int;
  mutable injected : int;
  mutable initials : int;
  mutable reroutes : int;
  mutable occupancy : int;
  mutable peak_occupancy : int;
  mutable dropped : int;
  mutable displaced : int;
  dropped_edge : int array;
  mutable max_queue : int;
  mutable max_dwell : int;
  mutable latency_sum : int;
  mutable latency_max : int;
  last_use : int array;
  (* (injected_at, id, initial?, r_off, r_len) of closed packets.  Offsets
     are stable snapshots: the route arena is append-only. *)
  log : (int * int * bool * int * int) Dyn.t option;
  (* Parallelism. *)
  ndom : int;
  pool : pool option;
  block : int; (* edges per partition *)
  (* Per-domain accumulators, folded at barriers. *)
  d_occ : int array;
  d_deq : int array;
  d_absorbed : int array;
  d_dropped : int array;
  d_displaced : int array;
  d_max_dwell : int array;
  d_max_queue : int array;
  d_lat_sum : int array;
  d_lat_max : int array;
  d_free : int Dyn.t array;
  d_log : (int * int * bool * int * int) Dyn.t array;
  (* (position, edge) streams, position-sorted by construction. *)
  d_still_pos : int Dyn.t array;
  d_still_edge : int Dyn.t array;
  d_act_pos : int Dyn.t array;
  d_act_edge : int Dyn.t array;
  (* Key computation for [By_key] policies goes through a per-domain scratch
     [Packet.t] (and per-length scratch route arrays) so arbitrary key
     functions see a faithful packet without per-enqueue allocation.  Key
     functions must be pure — the deterministic stock policies are. *)
  scratch_pkt : Packet.t array;
  scratch_routes : (int, int array) Hashtbl.t array;
  (* Per-domain staging records: words [0, stride) hold a drop-head victim
     popped mid-admission; [stride, 2*stride) a freshly injected packet
     (main domain only) — disjoint so an injection that displaces a victim
     uses both at once. *)
  scratch_rec : int array array;
  (* Lookahead accumulator: the stepping loops touch state a few
     iterations ahead to overlap the strided cache misses; the touched
     words are xor-folded here so the loads cannot be dead-code. *)
  mutable sink : int;
}

let create ?(log_injections = false) ?(tie_order = Network.Transit_first)
    ?(capacity = Capacity.unbounded) ?(domains = 1) ~graph
    ~(policy : Policy_type.t) () =
  if domains < 1 then invalid_arg "Soa.create: domains must be >= 1";
  let m = Digraph.n_edges graph in
  let ndom = max 1 (min domains (max 1 m)) in
  let scratch_pkt () : Packet.t =
    {
      id = 0;
      injected_at = 0;
      initial = false;
      exogenous = false;
      tag = "";
      route = [||];
      hop = 0;
      buffered_at = 0;
      reroutes = 0;
    }
  in
  {
    graph;
    policy;
    keyed = policy.discipline = Policy_type.By_key;
    lifo = policy.discipline = Policy_type.Reverse_arrival;
    fast =
      policy.discipline = Policy_type.Arrival_order
      && Capacity.is_unbounded capacity;
    tie_order;
    m;
    capacity;
    bounded = not (Capacity.is_unbounded capacity);
    speedup = Capacity.speedup capacity;
    caps = Capacity.caps capacity ~m;
    drop_head = Capacity.drop_head capacity;
    shared_total = Capacity.shared_total capacity;
    dt_num = fst (Capacity.alpha capacity);
    dt_den = snd (Capacity.alpha capacity);
    slots = 0;
    pid = [||];
    inj_at = [||];
    pkey = [||];
    pseq = [||];
    pflag = [||];
    free = [||];
    n_free = 0;
    hi_slot = 0;
    rarena = [||];
    rtop = 0;
    rtable = RH.create 64;
    barena = Array.init ndom (fun _ -> [||]);
    btop = Array.make ndom 0;
    emeta = Array.make (estride * m) 0;
    active = Array.make 8 0;
    n_active = 0;
    active_old = Array.make 8 0;
    pending = [||];
    pend_n = 0;
    pend_cnt = [||];
    pend_dest = [||];
    now = 0;
    next_id = 0;
    in_flight = 0;
    absorbed = 0;
    injected = 0;
    initials = 0;
    reroutes = 0;
    occupancy = 0;
    peak_occupancy = 0;
    dropped = 0;
    displaced = 0;
    dropped_edge = Array.make m 0;
    max_queue = 0;
    max_dwell = 0;
    latency_sum = 0;
    latency_max = 0;
    last_use = Array.make m min_int;
    log = (if log_injections then Some (Dyn.create ()) else None);
    ndom;
    pool = (if ndom > 1 then Some (pool_create ndom) else None);
    block = (m + ndom - 1) / ndom;
    d_occ = Array.make ndom 0;
    d_deq = Array.make ndom 0;
    d_absorbed = Array.make ndom 0;
    d_dropped = Array.make ndom 0;
    d_displaced = Array.make ndom 0;
    d_max_dwell = Array.make ndom 0;
    d_max_queue = Array.make ndom 0;
    d_lat_sum = Array.make ndom 0;
    d_lat_max = Array.make ndom 0;
    d_free = Array.init ndom (fun _ -> Dyn.create ());
    d_log = Array.init ndom (fun _ -> Dyn.create ());
    d_still_pos = Array.init ndom (fun _ -> Dyn.create ());
    d_still_edge = Array.init ndom (fun _ -> Dyn.create ());
    d_act_pos = Array.init ndom (fun _ -> Dyn.create ());
    d_act_edge = Array.init ndom (fun _ -> Dyn.create ());
    scratch_pkt = Array.init ndom (fun _ -> scratch_pkt ());
    scratch_routes = Array.init ndom (fun _ -> Hashtbl.create 8);
    scratch_rec = Array.init ndom (fun _ -> Array.make (2 * stride) 0);
    sink = 0;
  }

let shutdown t = match t.pool with Some p -> pool_shutdown p | None -> ()
let owner t e = if t.ndom = 1 then 0 else min (t.ndom - 1) (e / t.block)

(* ---------------- slab ---------------- *)

let grow_int_array a n = Array.append a (Array.make (max n (Array.length a)) 0)

let ensure_slab t =
  if t.hi_slot = t.slots then begin
    let n = if t.slots = 0 then 256 else t.slots in
    t.pid <- grow_int_array t.pid n;
    t.inj_at <- grow_int_array t.inj_at n;
    t.pkey <- grow_int_array t.pkey n;
    t.pseq <- grow_int_array t.pseq n;
    t.pflag <- grow_int_array t.pflag n;
    t.slots <- Array.length t.pid
  end

let alloc_slot t =
  if t.n_free > 0 then begin
    t.n_free <- t.n_free - 1;
    Array.unsafe_get t.free t.n_free
  end
  else begin
    ensure_slab t;
    let s = t.hi_slot in
    t.hi_slot <- s + 1;
    s
  end

let free_slot t s =
  if t.n_free = Array.length t.free then
    t.free <- grow_int_array t.free (max 256 t.n_free);
  Array.unsafe_set t.free t.n_free s;
  t.n_free <- t.n_free + 1

(* ---------------- route arena ---------------- *)

let ensure_rarena t n =
  if t.rtop + n > Array.length t.rarena then begin
    let cap = max (2 * Array.length t.rarena) (t.rtop + n) in
    let cap = max cap 64 in
    let a = Array.make cap 0 in
    Array.blit t.rarena 0 a 0 t.rtop;
    t.rarena <- a
  end

let append_route t (route : int array) =
  let n = Array.length route in
  ensure_rarena t n;
  Array.blit route 0 t.rarena t.rtop n;
  let off = t.rtop in
  t.rtop <- off + n;
  off

let check_route t route =
  if not (Digraph.route_is_simple t.graph route) then
    invalid_arg
      (Format.asprintf "Soa: route %a is not a simple path"
         (Digraph.pp_route t.graph) route)

let intern_route t route =
  match RH.find_opt t.rtable route with
  | Some off -> off
  | None ->
      check_route t route;
      let off = append_route t route in
      RH.add t.rtable (Array.copy route) off;
      off

(* ---------------- per-edge buffers ---------------- *)

(* Unrolled [stride]-word copy: [Array.blit] is a C call whose fixed cost
   (tag and bounds checks, memmove dispatch) dwarfs a 5-word move and shows
   up as ~2x on the whole step.  Word order makes overlapping forward
   copies safe for our only overlapping caller ([heap_pop], dst < src). *)
let[@inline] blit_rec src spos dst dpos =
  Array.unsafe_set dst (dpos + 0) (Array.unsafe_get src (spos + 0));
  Array.unsafe_set dst (dpos + 1) (Array.unsafe_get src (spos + 1));
  Array.unsafe_set dst (dpos + 2) (Array.unsafe_get src (spos + 2));
  Array.unsafe_set dst (dpos + 3) (Array.unsafe_get src (spos + 3));
  Array.unsafe_set dst (dpos + 4) (Array.unsafe_get src (spos + 4))

(* Relocate the slice at [emeta.(eb ..)] to the end of its partition arena
   with at least double the capacity, normalising the ring head to 0.  All
   offsets are in record units; the arena itself is a word array. *)
let grow_buffer t d eb =
  let em = t.emeta in
  let cap = Array.unsafe_get em (eb + eo_cap) in
  let ncap = if cap = 0 then 4 else 2 * cap in
  let arena = t.barena.(d) in
  let need = stride * (t.btop.(d) + ncap) in
  let arena =
    if need > Array.length arena then begin
      let c = max (2 * Array.length arena) need in
      let c = max c (stride * 64) in
      let a = Array.make c 0 in
      Array.blit arena 0 a 0 (stride * t.btop.(d));
      t.barena.(d) <- a;
      a
    end
    else arena
  in
  let noff = t.btop.(d) in
  t.btop.(d) <- noff + ncap;
  let off = Array.unsafe_get em (eb + eo_off)
  and head = Array.unsafe_get em (eb + eo_head)
  and len = Array.unsafe_get em (eb + eo_len) in
  (* Ring copy for deques; heaps have head = 0 so this is a straight blit
     for them.  Source and destination never overlap: [noff] starts past
     the old bump pointer. *)
  let mask = cap - 1 in
  for i = 0 to len - 1 do
    blit_rec arena
      (stride * (off + ((head + i) land mask)))
      arena
      (stride * (noff + i))
  done;
  Array.unsafe_set em (eb + eo_off) noff;
  Array.unsafe_set em (eb + eo_cap) ncap;
  Array.unsafe_set em (eb + eo_head) 0

(* Heap order: least (key, seq) first — the service order of
   [Network.Buffer_q]'s [Keyed] implementation.  [wa]/[wb] are word indices of records; the key
   and seq live in the slab, so keyed policies pay the slot dereference
   the deque disciplines avoid. *)
let heap_less t arena wa wb =
  let sa = Array.unsafe_get arena (wa + o_slot)
  and sb = Array.unsafe_get arena (wb + o_slot) in
  let ka = Array.unsafe_get t.pkey sa and kb = Array.unsafe_get t.pkey sb in
  ka < kb
  || (ka = kb && Array.unsafe_get t.pseq sa < Array.unsafe_get t.pseq sb)

let swap_rec arena wa wb =
  for k = 0 to stride - 1 do
    let tmp = Array.unsafe_get arena (wa + k) in
    Array.unsafe_set arena (wa + k) (Array.unsafe_get arena (wb + k));
    Array.unsafe_set arena (wb + k) tmp
  done

(* Enqueue/dequeue move whole records: sources are the pending array or a
   scratch record, never the arena itself, so a [grow_buffer] relocation
   cannot invalidate [src]. *)
let heap_push t d eb src spos =
  let em = t.emeta in
  if em.(eb + eo_len) = em.(eb + eo_cap) then grow_buffer t d eb;
  let arena = t.barena.(d) in
  let off = Array.unsafe_get em (eb + eo_off) in
  let i = ref (Array.unsafe_get em (eb + eo_len)) in
  Array.unsafe_set em (eb + eo_len) (!i + 1);
  blit_rec src spos arena (stride * (off + !i));
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    let wi = stride * (off + !i) and wp = stride * (off + parent) in
    if heap_less t arena wi wp then begin
      swap_rec arena wi wp;
      i := parent
    end
    else continue := false
  done

let heap_pop t d eb dst dpos =
  let em = t.emeta in
  let arena = t.barena.(d) in
  let off = Array.unsafe_get em (eb + eo_off) in
  blit_rec arena (stride * off) dst dpos;
  let len = Array.unsafe_get em (eb + eo_len) - 1 in
  Array.unsafe_set em (eb + eo_len) len;
  if len > 0 then begin
    blit_rec arena (stride * (off + len)) arena (stride * off);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= len then continue := false
      else begin
        let r = l + 1 in
        let c =
          if
            r < len
            && heap_less t arena (stride * (off + r)) (stride * (off + l))
          then r
          else l
        in
        let wc = stride * (off + c) and wi = stride * (off + !i) in
        if heap_less t arena wc wi then begin
          swap_rec arena wi wc;
          i := c
        end
        else continue := false
      end
    done
  end

let deque_push t d eb src spos =
  let em = t.emeta in
  if em.(eb + eo_len) = em.(eb + eo_cap) then grow_buffer t d eb;
  let arena = t.barena.(d) in
  let len = Array.unsafe_get em (eb + eo_len) in
  blit_rec src spos arena
    (stride
    * (Array.unsafe_get em (eb + eo_off)
      + ((Array.unsafe_get em (eb + eo_head) + len)
        land (Array.unsafe_get em (eb + eo_cap) - 1))));
  Array.unsafe_set em (eb + eo_len) (len + 1)

let deque_pop_front t d eb dst dpos =
  let em = t.emeta in
  let arena = t.barena.(d) in
  let head = Array.unsafe_get em (eb + eo_head) in
  blit_rec arena (stride * (Array.unsafe_get em (eb + eo_off) + head)) dst dpos;
  Array.unsafe_set em (eb + eo_head)
    ((head + 1) land (Array.unsafe_get em (eb + eo_cap) - 1));
  Array.unsafe_set em (eb + eo_len) (Array.unsafe_get em (eb + eo_len) - 1)

let deque_pop_back t d eb dst dpos =
  let em = t.emeta in
  let len = Array.unsafe_get em (eb + eo_len) - 1 in
  Array.unsafe_set em (eb + eo_len) len;
  blit_rec t.barena.(d)
    (stride
    * (Array.unsafe_get em (eb + eo_off)
      + ((Array.unsafe_get em (eb + eo_head) + len)
        land (Array.unsafe_get em (eb + eo_cap) - 1))))
    dst dpos

(* Pop the record the policy forwards next ([Network.Buffer_q.take]) into
   [dst.(dpos, dpos + stride)]. *)
let take t d eb dst dpos =
  if t.keyed then heap_pop t d eb dst dpos
  else if t.lifo then deque_pop_back t d eb dst dpos
  else deque_pop_front t d eb dst dpos

(* Enqueue the record at [src.(spos ..)] on the edge whose meta is at
   [emeta.(eb ..)]: stamp the buffering time, assign the arrival seq,
   compute the policy key through the scratch packet when the discipline
   needs one, insert. *)
let push t d eb src spos =
  let seq = Array.unsafe_get t.emeta (eb + eo_seq) in
  Array.unsafe_set t.emeta (eb + eo_seq) (seq + 1);
  Array.unsafe_set src (spos + o_buf) t.now;
  if t.keyed then begin
    let s = Array.unsafe_get src (spos + o_slot) in
    Array.unsafe_set t.pseq s seq;
    let p = t.scratch_pkt.(d) in
    let len = Array.unsafe_get src (spos + o_len) in
    let route =
      match Hashtbl.find_opt t.scratch_routes.(d) len with
      | Some a -> a
      | None ->
          let a = Array.make (max len 1) 0 in
          Hashtbl.add t.scratch_routes.(d) len a;
          a
    in
    Array.blit t.rarena (Array.unsafe_get src (spos + o_off)) route 0 len;
    p.Packet.id <- Array.unsafe_get t.pid s;
    p.Packet.injected_at <- Array.unsafe_get t.inj_at s;
    p.Packet.initial <- Array.unsafe_get t.pflag s land flag_initial <> 0;
    p.Packet.route <- route;
    p.Packet.hop <- Array.unsafe_get src (spos + o_hop);
    p.Packet.buffered_at <- t.now;
    Array.unsafe_set t.pkey s (t.policy.key p ~now:t.now ~seq);
    heap_push t d eb src spos
  end
  else deque_push t d eb src spos

(* ------------------------------------------------------------------ *)
(* Admission (arrival at a buffer under the capacity model)            *)
(* ------------------------------------------------------------------ *)

(* Sequential bookkeeping after a successful enqueue — mirrors
   [Network.post_enqueue], including the per-enqueue peak update. *)
let post_enqueue_seq t e eb =
  let em = t.emeta in
  if Array.unsafe_get em (eb + eo_flag) = 0 then begin
    Array.unsafe_set em (eb + eo_flag) 1;
    if t.n_active = Array.length t.active then
      t.active <- grow_int_array t.active (max 8 t.n_active);
    Array.unsafe_set t.active t.n_active e;
    t.n_active <- t.n_active + 1
  end;
  t.occupancy <- t.occupancy + 1;
  if t.occupancy > t.peak_occupancy then t.peak_occupancy <- t.occupancy;
  let len = Array.unsafe_get em (eb + eo_len) in
  if len > t.max_queue then t.max_queue <- len;
  if len > Array.unsafe_get em (eb + eo_maxq) then
    Array.unsafe_set em (eb + eo_maxq) len

(* The route slice of a closed packet comes from its record ([off]/[len]);
   identity fields still live in the slab. *)
let log_closed t d (s : int) off len =
  match t.log with
  | Some _ when Array.unsafe_get t.pflag s land 2 = 0 ->
      (* bit 1 = exogenous; [Soa.step] has no exogenous injections, so the
         bit is never set — kept for slab-layout parity with [Packet]. *)
      Dyn.push t.d_log.(d)
        ( Array.unsafe_get t.inj_at s,
          Array.unsafe_get t.pid s,
          Array.unsafe_get t.pflag s land flag_initial <> 0,
          off,
          len )
  | _ -> ()

let drop_packet_d t d src spos e ~displaced =
  let s = Array.unsafe_get src (spos + o_slot) in
  t.d_dropped.(d) <- t.d_dropped.(d) + 1;
  t.dropped_edge.(e) <- t.dropped_edge.(e) + 1;
  if displaced then t.d_displaced.(d) <- t.d_displaced.(d) + 1;
  log_closed t d s
    (Array.unsafe_get src (spos + o_off))
    (Array.unsafe_get src (spos + o_len));
  Dyn.push t.d_free.(d) s

(* Domain-local admission of the record at [src.(spos ..)]: every branch
   that is legal in the parallel delivery phase (a shared capacity model
   forces the sequential path).  Length-based per-enqueue maxima are
   tracked in the domain accumulators and folded at the barrier. *)
let admit_d t d src spos e =
  let em = t.emeta in
  let eb = estride * e in
  let admitted =
    if not t.bounded then begin
      push t d eb src spos;
      true
    end
    else if Array.unsafe_get em (eb + eo_len) < t.caps.(e) then begin
      push t d eb src spos;
      true
    end
    else if t.drop_head && Array.unsafe_get em (eb + eo_len) > 0 then begin
      let vic = t.scratch_rec.(d) in
      take t d eb vic 0;
      t.d_occ.(d) <- t.d_occ.(d) - 1;
      drop_packet_d t d vic 0 e ~displaced:true;
      push t d eb src spos;
      true
    end
    else begin
      drop_packet_d t d src spos e ~displaced:false;
      false
    end
  in
  if admitted then begin
    t.d_occ.(d) <- t.d_occ.(d) + 1;
    let len = Array.unsafe_get em (eb + eo_len) in
    if len > t.d_max_queue.(d) then t.d_max_queue.(d) <- len;
    if len > Array.unsafe_get em (eb + eo_maxq) then
      Array.unsafe_set em (eb + eo_maxq) len;
    if Array.unsafe_get em (eb + eo_flag) = 0 then
      Array.unsafe_set em (eb + eo_flag) 1
      (* Activation recorded as (position, edge); merged by position at the
         barrier.  The caller stores the position just before us. *)
  end;
  admitted

(* Sequential admission — used for injections, initial placements and the
   whole delivery substep when the capacity model is shared. *)
let admit_seq t src spos e =
  let d = owner t e in
  let eb = estride * e in
  if not t.bounded then begin
    push t d eb src spos;
    post_enqueue_seq t e eb
  end
  else begin
  let s = Array.unsafe_get src (spos + o_slot) in
  let r_off = Array.unsafe_get src (spos + o_off)
  and r_len = Array.unsafe_get src (spos + o_len) in
  if t.shared_total <> max_int then begin
    let len = t.emeta.(eb + eo_len) in
    if
      Capacity.dt_admits ~alpha_num:t.dt_num ~alpha_den:t.dt_den
        ~total:t.shared_total ~occupancy:t.occupancy ~len
    then begin
      push t d eb src spos;
      post_enqueue_seq t e eb
    end
    else begin
      t.dropped <- t.dropped + 1;
      t.dropped_edge.(e) <- t.dropped_edge.(e) + 1;
      t.in_flight <- t.in_flight - 1;
      log_closed t 0 s r_off r_len;
      free_slot t s
    end
  end
  else if t.emeta.(eb + eo_len) < t.caps.(e) then begin
    push t d eb src spos;
    post_enqueue_seq t e eb
  end
  else if t.drop_head && t.emeta.(eb + eo_len) > 0 then begin
    let vic = t.scratch_rec.(0) in
    take t d eb vic 0;
    let vs = Array.unsafe_get vic o_slot in
    t.occupancy <- t.occupancy - 1;
    t.dropped <- t.dropped + 1;
    t.dropped_edge.(e) <- t.dropped_edge.(e) + 1;
    t.displaced <- t.displaced + 1;
    t.in_flight <- t.in_flight - 1;
    log_closed t 0 vs
      (Array.unsafe_get vic o_off)
      (Array.unsafe_get vic o_len);
    free_slot t vs;
    push t d eb src spos;
    post_enqueue_seq t e eb
  end
  else begin
    t.dropped <- t.dropped + 1;
    t.dropped_edge.(e) <- t.dropped_edge.(e) + 1;
    t.in_flight <- t.in_flight - 1;
    log_closed t 0 s r_off r_len;
    free_slot t s
  end
  end

(* Sequential absorption of the record at [src.(spos ..)]. *)
let absorb_seq t src spos =
  let s = Array.unsafe_get src (spos + o_slot) in
  t.absorbed <- t.absorbed + 1;
  t.in_flight <- t.in_flight - 1;
  let latency = t.now - Array.unsafe_get t.inj_at s in
  t.latency_sum <- t.latency_sum + latency;
  if latency > t.latency_max then t.latency_max <- latency;
  log_closed t 0 s
    (Array.unsafe_get src (spos + o_off))
    (Array.unsafe_get src (spos + o_len));
  free_slot t s

(* The per-domain log/free streams written through domain 0 in the
   sequential paths above are folded into the global structures here, so
   sequential and parallel steps share one commit point. *)
let commit_domain_streams t =
  for d = 0 to t.ndom - 1 do
    Dyn.iter (fun s -> free_slot t s) t.d_free.(d);
    Dyn.clear t.d_free.(d);
    (match t.log with
    | Some log -> Dyn.iter (fun entry -> Dyn.push log entry) t.d_log.(d)
    | None -> ());
    Dyn.clear t.d_log.(d)
  done

(* ------------------------------------------------------------------ *)
(* Injection                                                           *)
(* ------------------------------------------------------------------ *)

(* Allocate a slot for a new packet and write its record into
   [dst.(dpos ..)]. *)
let fresh_rec t ~initial off len dst dpos =
  let s = alloc_slot t in
  Array.unsafe_set t.pid s t.next_id;
  t.next_id <- t.next_id + 1;
  Array.unsafe_set t.inj_at s t.now;
  Array.unsafe_set t.pflag s (if initial then flag_initial else 0);
  Array.unsafe_set dst (dpos + o_slot) s;
  Array.unsafe_set dst (dpos + o_hop) 0;
  Array.unsafe_set dst (dpos + o_off) off;
  Array.unsafe_set dst (dpos + o_len) len;
  Array.unsafe_set dst (dpos + o_buf) t.now;
  s

let mark_route_use t off len =
  for i = off to off + len - 1 do
    t.last_use.(Array.unsafe_get t.rarena i) <- t.now
  done

let place_initial ?tag:_ t route =
  if t.now <> 0 then
    invalid_arg "Soa.place_initial: the system already started";
  let len = Array.length route in
  if len = 0 then invalid_arg "Soa.place_initial: empty route";
  let off = intern_route t route in
  let fresh = t.scratch_rec.(0) in
  let s = fresh_rec t ~initial:true off len fresh stride in
  t.initials <- t.initials + 1;
  t.in_flight <- t.in_flight + 1;
  mark_route_use t off len;
  let id = Array.unsafe_get t.pid s in
  admit_seq t fresh stride (Array.unsafe_get t.rarena off);
  commit_domain_streams t;
  id

let inject t (inj : injection) =
  let len = Array.length inj.route in
  if len = 0 then invalid_arg "Soa.inject: empty route";
  let off = intern_route t inj.route in
  let fresh = t.scratch_rec.(0) in
  ignore (fresh_rec t ~initial:false off len fresh stride);
  t.injected <- t.injected + 1;
  t.in_flight <- t.in_flight + 1;
  mark_route_use t off len;
  admit_seq t fresh stride (Array.unsafe_get t.rarena off)

let rec inject_all t = function
  | [] -> ()
  | inj :: rest ->
      inject t inj;
      inject_all t rest

(* ------------------------------------------------------------------ *)
(* Stepping                                                            *)
(* ------------------------------------------------------------------ *)

(* [n] is in records; [t.pending] stores [stride]-word records. *)
let ensure_pending t n =
  if Array.length t.pending < stride * n then
    t.pending <- Array.make (max (stride * n) (2 * Array.length t.pending)) 0

let ensure_pend_cnt t n =
  if Array.length t.pend_cnt < n then
    t.pend_cnt <- Array.make (max n (2 * Array.length t.pend_cnt)) 0

let ensure_pend_dest t n =
  if Array.length t.pend_dest < n then
    t.pend_dest <- Array.make (max n (2 * Array.length t.pend_dest)) 0

(* Swap the double-buffered active lists; the old list is returned through
   [t.active_old] with its length. *)
let rotate_active t =
  let old = t.active and n = t.n_active in
  t.active <- t.active_old;
  t.active_old <- old;
  t.n_active <- 0;
  n

(* -------- sequential phases -------- *)

(* Lookahead distance for the software-prefetch touches below.  Active
   edges arrive in activation order, which real workloads stride across
   the arrays (each DRAM/TLB miss costs several records' worth of work at
   10^6 edges), so the fast-path loops touch state [lookahead] iterations
   ahead: far enough to cover a miss, near enough to still be cached at
   use time. *)
let lookahead = 12

let phase1_seq t n_old =
  let old = t.active_old in
  ensure_pending t (n_old * t.speedup);
  t.pend_n <- 0;
  let em = t.emeta in
  if (not t.keyed) && (not t.lifo) && t.speedup = 1 then begin
    (* FIFO at speedup 1 — the common case.  One front pop per active
       edge with the emeta line read once, plus two-level lookahead:
       touch the edge metadata 2*[lookahead] ahead, then (once that line
       is warm) the head record of the edge [lookahead] ahead.  An edge
       appears at most once in the active list, so the looked-ahead
       off/head words are phase-stable. *)
    let sink = ref 0 in
    for i = 0 to n_old - 1 do
      if i + (2 * lookahead) < n_old then
        sink :=
          !sink
          lxor Array.unsafe_get em
                 ((estride * Array.unsafe_get old (i + (2 * lookahead)))
                 + eo_off);
      if i + lookahead < n_old then begin
        let ea = Array.unsafe_get old (i + lookahead) in
        let eba = estride * ea in
        sink :=
          !sink
          lxor Array.unsafe_get
                 t.barena.(owner t ea)
                 (stride
                 * (Array.unsafe_get em (eba + eo_off)
                   + Array.unsafe_get em (eba + eo_head)))
      end;
      let e = Array.unsafe_get old i in
      let eb = estride * e in
      let arena = t.barena.(owner t e) in
      let off = Array.unsafe_get em (eb + eo_off)
      and head = Array.unsafe_get em (eb + eo_head)
      and len = Array.unsafe_get em (eb + eo_len)
      and cap = Array.unsafe_get em (eb + eo_cap) in
      let w = stride * t.pend_n in
      blit_rec arena (stride * (off + head)) t.pending w;
      Array.unsafe_set em (eb + eo_head) ((head + 1) land (cap - 1));
      Array.unsafe_set em (eb + eo_len) (len - 1);
      Array.unsafe_set em (eb + eo_sent)
        (Array.unsafe_get em (eb + eo_sent) + 1);
      let dwell = t.now - Array.unsafe_get t.pending (w + o_buf) in
      if dwell > t.max_dwell then t.max_dwell <- dwell;
      t.pend_n <- t.pend_n + 1;
      t.occupancy <- t.occupancy - 1;
      if len = 1 then Array.unsafe_set em (eb + eo_flag) 0
      else begin
        if t.n_active = Array.length t.active then
          t.active <- grow_int_array t.active (max 8 t.n_active);
        Array.unsafe_set t.active t.n_active e;
        t.n_active <- t.n_active + 1
      end
    done;
    t.sink <- t.sink lxor !sink
  end
  else
    for i = 0 to n_old - 1 do
      let e = Array.unsafe_get old i in
      let eb = estride * e in
      let d = owner t e in
      let len = Array.unsafe_get em (eb + eo_len) in
      let k = if len < t.speedup then len else t.speedup in
      for _ = 1 to k do
        let w = stride * t.pend_n in
        take t d eb t.pending w;
        let dwell = t.now - Array.unsafe_get t.pending (w + o_buf) in
        if dwell > t.max_dwell then t.max_dwell <- dwell;
        t.pend_n <- t.pend_n + 1
      done;
      Array.unsafe_set em (eb + eo_sent)
        (Array.unsafe_get em (eb + eo_sent) + k);
      t.occupancy <- t.occupancy - k;
      if Array.unsafe_get em (eb + eo_len) = 0 then
        Array.unsafe_set em (eb + eo_flag) 0
      else begin
        if t.n_active = Array.length t.active then
          t.active <- grow_int_array t.active (max 8 t.n_active);
        Array.unsafe_set t.active t.n_active e;
        t.n_active <- t.n_active + 1
      end
    done

let deliver_one_seq t src spos =
  let h = Array.unsafe_get src (spos + o_hop) + 1 in
  Array.unsafe_set src (spos + o_hop) h;
  if h >= Array.unsafe_get src (spos + o_len) then absorb_seq t src spos
  else
    admit_seq t src spos
      (Array.unsafe_get t.rarena (Array.unsafe_get src (spos + o_off) + h))

let deliver_seq t =
  if t.fast then begin
    (* FIFO + unbounded: fuse hop advance, enqueue and the active/stat
       bookkeeping over a single read of the destination's emeta line,
       with a lookahead touch of the emeta line the record [lookahead]
       positions ahead will enqueue on (its destination only needs the
       pending record and a route word, both near-sequential reads). *)
    let em = t.emeta in
    let pend = t.pending in
    let sink = ref 0 in
    let n = t.pend_n in
    for i = 0 to n - 1 do
      if i + lookahead < n then begin
        let w = stride * (i + lookahead) in
        let h = Array.unsafe_get pend (w + o_hop) + 1 in
        if h < Array.unsafe_get pend (w + o_len) then
          sink :=
            !sink
            lxor Array.unsafe_get em
                   ((estride
                    * Array.unsafe_get t.rarena
                        (Array.unsafe_get pend (w + o_off) + h))
                   + eo_off)
      end;
      let spos = stride * i in
      let h = Array.unsafe_get pend (spos + o_hop) + 1 in
      Array.unsafe_set pend (spos + o_hop) h;
      if h >= Array.unsafe_get pend (spos + o_len) then absorb_seq t pend spos
      else begin
        let e =
          Array.unsafe_get t.rarena (Array.unsafe_get pend (spos + o_off) + h)
        in
        let eb = estride * e in
        let d = owner t e in
        Array.unsafe_set em (eb + eo_seq)
          (Array.unsafe_get em (eb + eo_seq) + 1);
        Array.unsafe_set pend (spos + o_buf) t.now;
        if
          Array.unsafe_get em (eb + eo_len)
          = Array.unsafe_get em (eb + eo_cap)
        then grow_buffer t d eb;
        let arena = t.barena.(d) in
        let off = Array.unsafe_get em (eb + eo_off)
        and head = Array.unsafe_get em (eb + eo_head)
        and cap = Array.unsafe_get em (eb + eo_cap) in
        let len = Array.unsafe_get em (eb + eo_len) in
        blit_rec pend spos arena
          (stride * (off + ((head + len) land (cap - 1))));
        let len = len + 1 in
        Array.unsafe_set em (eb + eo_len) len;
        if Array.unsafe_get em (eb + eo_flag) = 0 then begin
          Array.unsafe_set em (eb + eo_flag) 1;
          if t.n_active = Array.length t.active then
            t.active <- grow_int_array t.active (max 8 t.n_active);
          Array.unsafe_set t.active t.n_active e;
          t.n_active <- t.n_active + 1
        end;
        t.occupancy <- t.occupancy + 1;
        if t.occupancy > t.peak_occupancy then t.peak_occupancy <- t.occupancy;
        if len > t.max_queue then t.max_queue <- len;
        if len > Array.unsafe_get em (eb + eo_maxq) then
          Array.unsafe_set em (eb + eo_maxq) len
      end
    done;
    t.sink <- t.sink lxor !sink
  end
  else
    for i = 0 to t.pend_n - 1 do
      deliver_one_seq t t.pending (stride * i)
    done

(* -------- parallel phases -------- *)

(* Forward, partition-parallel: domain [d] handles exactly the active
   positions whose edge it owns, writing pops into the stride-[speedup]
   pending layout.  All writes are to owner-disjoint locations. *)
let phase1_par t n_old d =
  let old = t.active_old in
  let s_up = t.speedup in
  let lo = d * t.block and hi = (d + 1) * t.block in
  let still_pos = t.d_still_pos.(d) and still_edge = t.d_still_edge.(d) in
  let deq = ref 0 and max_dwell = ref t.d_max_dwell.(d) in
  let em = t.emeta in
  for i = 0 to n_old - 1 do
    let e = Array.unsafe_get old i in
    if e >= lo && (e < hi || d = t.ndom - 1) then begin
      let eb = estride * e in
      let len = Array.unsafe_get em (eb + eo_len) in
      let k = if len < s_up then len else s_up in
      for j = 0 to k - 1 do
        let w = stride * ((i * s_up) + j) in
        take t d eb t.pending w;
        let dwell = t.now - Array.unsafe_get t.pending (w + o_buf) in
        if dwell > !max_dwell then max_dwell := dwell;
        (* Destination, computed while [hop] is still phase-stable. *)
        let h = Array.unsafe_get t.pending (w + o_hop) + 1 in
        let off = Array.unsafe_get t.pending (w + o_off) in
        let len = Array.unsafe_get t.pending (w + o_len) in
        let dest =
          if h >= len then -1 - Array.unsafe_get t.rarena (off + len - 1)
          else Array.unsafe_get t.rarena (off + h)
        in
        Array.unsafe_set t.pend_dest ((i * s_up) + j) dest
      done;
      Array.unsafe_set em (eb + eo_sent)
        (Array.unsafe_get em (eb + eo_sent) + k);
      Array.unsafe_set t.pend_cnt i k;
      deq := !deq + k;
      if Array.unsafe_get em (eb + eo_len) = 0 then
        Array.unsafe_set em (eb + eo_flag) 0
      else begin
        Dyn.push still_pos i;
        Dyn.push still_edge e
      end
    end
  done;
  t.d_deq.(d) <- !deq;
  t.d_max_dwell.(d) <- !max_dwell

(* Deliver, partition-parallel: domain [d] scans every pending position in
   order and handles the packets whose destination it owns (absorptions
   belong to the owner of the last traversed edge, so ownership is total
   and disjoint). *)
let deliver_par t n_old d =
  let s_up = t.speedup in
  let lo = d * t.block and hi = (d + 1) * t.block in
  let last = t.ndom - 1 in
  let act_pos = t.d_act_pos.(d) and act_edge = t.d_act_edge.(d) in
  for i = 0 to n_old - 1 do
    let k = Array.unsafe_get t.pend_cnt i in
    for j = 0 to k - 1 do
      let pos = (i * s_up) + j in
      let dest = Array.unsafe_get t.pend_dest pos in
      let own_edge = if dest >= 0 then dest else -1 - dest in
      if own_edge >= lo && (own_edge < hi || d = last) then begin
        let w = stride * pos in
        Array.unsafe_set t.pending (w + o_hop)
          (Array.unsafe_get t.pending (w + o_hop) + 1);
        if dest < 0 then begin
          (* Absorption. *)
          let s = Array.unsafe_get t.pending (w + o_slot) in
          t.d_absorbed.(d) <- t.d_absorbed.(d) + 1;
          let latency = t.now - Array.unsafe_get t.inj_at s in
          t.d_lat_sum.(d) <- t.d_lat_sum.(d) + latency;
          if latency > t.d_lat_max.(d) then t.d_lat_max.(d) <- latency;
          log_closed t d s
            (Array.unsafe_get t.pending (w + o_off))
            (Array.unsafe_get t.pending (w + o_len));
          Dyn.push t.d_free.(d) s
        end
        else begin
          let was_active =
            Array.unsafe_get t.emeta ((estride * dest) + eo_flag)
          in
          if admit_d t d t.pending w dest && was_active = 0 then begin
            Dyn.push act_pos pos;
            Dyn.push act_edge dest
          end
        end
      end
    done
  done

(* Merge the per-domain (position, edge) streams into the active list in
   position order — each stream is already sorted, so this is a k-way merge
   with k = ndom. *)
let merge_positional t pos_streams edge_streams =
  let idx = Array.make t.ndom 0 in
  let continue = ref true in
  while !continue do
    let best = ref (-1) and best_pos = ref max_int in
    for d = 0 to t.ndom - 1 do
      if idx.(d) < Dyn.length pos_streams.(d) then begin
        let p = Dyn.get pos_streams.(d) idx.(d) in
        if p < !best_pos then begin
          best_pos := p;
          best := d
        end
      end
    done;
    if !best < 0 then continue := false
    else begin
      let d = !best in
      let e = Dyn.get edge_streams.(d) idx.(d) in
      idx.(d) <- idx.(d) + 1;
      if t.n_active = Array.length t.active then
        t.active <- grow_int_array t.active (max 8 t.n_active);
      Array.unsafe_set t.active t.n_active e;
      t.n_active <- t.n_active + 1
    end
  done;
  for d = 0 to t.ndom - 1 do
    Dyn.clear pos_streams.(d);
    Dyn.clear edge_streams.(d)
  done

(* Fold the domain accumulators into the global counters after a parallel
   delivery phase.  Sums and maxima only — order-free, hence deterministic
   regardless of which domain ran what. *)
let fold_deliver_stats t =
  for d = 0 to t.ndom - 1 do
    t.absorbed <- t.absorbed + t.d_absorbed.(d);
    t.in_flight <- t.in_flight - t.d_absorbed.(d) - t.d_dropped.(d);
    t.dropped <- t.dropped + t.d_dropped.(d);
    t.displaced <- t.displaced + t.d_displaced.(d);
    t.occupancy <- t.occupancy + t.d_occ.(d);
    t.latency_sum <- t.latency_sum + t.d_lat_sum.(d);
    if t.d_lat_max.(d) > t.latency_max then t.latency_max <- t.d_lat_max.(d);
    if t.d_max_queue.(d) > t.max_queue then t.max_queue <- t.d_max_queue.(d);
    t.d_absorbed.(d) <- 0;
    t.d_dropped.(d) <- 0;
    t.d_displaced.(d) <- 0;
    t.d_occ.(d) <- 0;
    t.d_lat_sum.(d) <- 0;
    t.d_lat_max.(d) <- 0;
    t.d_max_queue.(d) <- 0
  done;
  if t.occupancy > t.peak_occupancy then t.peak_occupancy <- t.occupancy;
  commit_domain_streams t

let fold_phase1_stats t =
  for d = 0 to t.ndom - 1 do
    t.occupancy <- t.occupancy - t.d_deq.(d);
    t.d_deq.(d) <- 0;
    if t.d_max_dwell.(d) > t.max_dwell then t.max_dwell <- t.d_max_dwell.(d);
    t.d_max_dwell.(d) <- 0
  done

let step t injections =
  t.now <- t.now + 1;
  let n_old = rotate_active t in
  (* A shared (Dynamic-Threshold) model reads global occupancy on every
     admission, mid-substep — delivery must run sequentially.  Everything
     else is safe to partition. *)
  let parallel = t.ndom > 1 && t.shared_total = max_int in
  match t.pool with
  | Some pool when parallel ->
      ensure_pending t (n_old * t.speedup);
      ensure_pend_dest t (n_old * t.speedup);
      ensure_pend_cnt t n_old;
      pool_run pool (phase1_par t n_old);
      fold_phase1_stats t;
      merge_positional t t.d_still_pos t.d_still_edge;
      (match t.tie_order with
      | Network.Transit_first ->
          pool_run pool (deliver_par t n_old);
          fold_deliver_stats t;
          merge_positional t t.d_act_pos t.d_act_edge;
          inject_all t injections
      | Network.Injection_first ->
          inject_all t injections;
          pool_run pool (deliver_par t n_old);
          fold_deliver_stats t;
          merge_positional t t.d_act_pos t.d_act_edge);
      commit_domain_streams t
  | _ ->
      phase1_seq t n_old;
      (match t.tie_order with
      | Network.Transit_first ->
          deliver_seq t;
          inject_all t injections
      | Network.Injection_first ->
          inject_all t injections;
          deliver_seq t);
      if t.occupancy > t.peak_occupancy then
        t.peak_occupancy <- t.occupancy;
      commit_domain_streams t

(* ------------------------------------------------------------------ *)
(* Reroutes                                                            *)
(* ------------------------------------------------------------------ *)

(* Iterate the buffered records: [f arena w] for the record at word index
   [w] of its partition arena.  The callback may mutate record fields but
   must not enqueue or dequeue. *)
let iter_buffered_recs f t =
  for i = 0 to t.n_active - 1 do
    let e = Array.unsafe_get t.active i in
    let eb = estride * e in
    let arena = t.barena.(owner t e) in
    let off = t.emeta.(eb + eo_off)
    and head = t.emeta.(eb + eo_head)
    and len = t.emeta.(eb + eo_len)
    and cap = t.emeta.(eb + eo_cap) in
    if t.keyed then
      for j = 0 to len - 1 do
        f arena (stride * (off + j))
      done
    else
      for j = 0 to len - 1 do
        f arena (stride * (off + ((head + j) land (cap - 1))))
      done
  done

(* Rewrite the routes of every buffered packet selected by [pred] to
   (traversed prefix up to and including the current edge) @ [suffix] —
   the same rewrite as [Network.reroute], as a bulk operation because
   records are not stable handles for callers.  The new route appends to
   the arena and the record's slice is repointed in place; the old slice
   is unreachable garbage. *)
let reroute_where t pred suffix =
  iter_buffered_recs
    (fun arena w ->
      let hop = Array.unsafe_get arena (w + o_hop) in
      let len = Array.unsafe_get arena (w + o_len) in
      let remaining = len - hop in
      let id = t.pid.(Array.unsafe_get arena (w + o_slot)) in
      (* The edge the packet is buffered on is its next route entry. *)
      let edge =
        Array.unsafe_get t.rarena (Array.unsafe_get arena (w + o_off) + hop)
      in
      if pred ~id ~edge ~remaining then begin
        let keep = hop + 1 in
        let nlen = keep + Array.length suffix in
        let route = Array.make nlen 0 in
        Array.blit t.rarena (Array.unsafe_get arena (w + o_off)) route 0 keep;
        Array.blit suffix 0 route keep (Array.length suffix);
        check_route t route;
        let off = append_route t route in
        Array.unsafe_set arena (w + o_off) off;
        Array.unsafe_set arena (w + o_len) nlen;
        t.reroutes <- t.reroutes + 1
      end)
    t

(* ------------------------------------------------------------------ *)
(* Observation                                                         *)
(* ------------------------------------------------------------------ *)

let graph t = t.graph
let policy t = t.policy
let now t = t.now
let domains t = t.ndom
let in_flight t = t.in_flight
let absorbed t = t.absorbed
let injected_count t = t.injected
let initial_count t = t.initials
let dropped t = t.dropped
let displaced t = t.displaced
let dropped_on_edge t e = t.dropped_edge.(e)
let occupancy t = t.occupancy
let peak_occupancy t = t.peak_occupancy
let max_queue_ever t = t.max_queue
let max_queue_of_edge t e = t.emeta.((estride * e) + eo_maxq)
let sent_on_edge t e = t.emeta.((estride * e) + eo_sent)
let max_dwell t = t.max_dwell
let delivered_latency_max t = t.latency_max

let delivered_latency_mean t =
  if t.absorbed = 0 then 0.0
  else float_of_int t.latency_sum /. float_of_int t.absorbed

let reroute_count t = t.reroutes
let last_injection_on t e = t.last_use.(e)
let buffer_len t e = t.emeta.((estride * e) + eo_len)
let capacity t = t.capacity
let speedup t = t.speedup
let pooled t = t.n_free
let slab_slots t = t.hi_slot

let arena_words t =
  let used =
    t.rtop + (stride * Array.fold_left (fun acc top -> acc + top) 0 t.btop)
  in
  ( used,
    Array.length t.rarena
    + Array.fold_left (fun acc a -> acc + Array.length a) 0 t.barena )

let max_pending_dwell t =
  let best = ref 0 in
  iter_buffered_recs
    (fun arena w ->
      let d = t.now - Array.unsafe_get arena (w + o_buf) in
      if d > !best then best := d)
    t;
  !best

let view_of_rec t arena w =
  let s = Array.unsafe_get arena (w + o_slot) in
  {
    Packet.v_id = t.pid.(s);
    v_injected_at = t.inj_at.(s);
    v_hop = Array.unsafe_get arena (w + o_hop);
    v_buffered_at = Array.unsafe_get arena (w + o_buf);
    v_route =
      Array.sub t.rarena
        (Array.unsafe_get arena (w + o_off))
        (Array.unsafe_get arena (w + o_len));
  }

(* Buffered packets of edge [e] in service order — the order
   [Network.buffer_packets] reports: FIFO front-first, LIFO back-first,
   keyed by ascending (key, seq). *)
let buffer_packets t e =
  let d = owner t e in
  let eb = estride * e in
  let arena = t.barena.(d) in
  let off = t.emeta.(eb + eo_off)
  and head = t.emeta.(eb + eo_head)
  and len = t.emeta.(eb + eo_len)
  and cap = t.emeta.(eb + eo_cap) in
  if len = 0 then []
  else if t.keyed then begin
    let idx = Array.init len (fun j -> j) in
    Array.sort
      (fun a b ->
        let sa = arena.((stride * (off + a)) + o_slot)
        and sb = arena.((stride * (off + b)) + o_slot) in
        let c = Int.compare t.pkey.(sa) t.pkey.(sb) in
        if c <> 0 then c else Int.compare t.pseq.(sa) t.pseq.(sb))
      idx;
    List.map
      (fun j -> view_of_rec t arena (stride * (off + j)))
      (Array.to_list idx)
  end
  else begin
    let nth j = stride * (off + ((head + j) mod cap)) in
    if t.lifo then
      List.init len (fun j -> view_of_rec t arena (nth (len - 1 - j)))
    else List.init len (fun j -> view_of_rec t arena (nth j))
  end

(* As [Network.full_log]: ids are issued in creation order and time never
   decreases, so the entries are scattered by id and read back in id order.
   A negative time marks an id that is not selected. *)
let full_log t ~want_initial =
  match t.log with
  | None -> invalid_arg "Soa.injection_log: created without ~log_injections"
  | Some log ->
      let times = Array.make t.next_id (-1) in
      let offs = Array.make t.next_id 0 and lens = Array.make t.next_id 0 in
      let selected = ref 0 in
      let put id time off len =
        times.(id) <- time;
        offs.(id) <- off;
        lens.(id) <- len;
        incr selected
      in
      Dyn.iter
        (fun (time, id, initial, off, len) ->
          if initial = want_initial then put id time off len)
        log;
      iter_buffered_recs
        (fun arena w ->
          let s = Array.unsafe_get arena (w + o_slot) in
          if t.pflag.(s) land flag_initial <> 0 = want_initial then
            put t.pid.(s) t.inj_at.(s)
              (Array.unsafe_get arena (w + o_off))
              (Array.unsafe_get arena (w + o_len)))
        t;
      let out = Array.make !selected (0, [||]) in
      let k = ref 0 in
      Array.iteri
        (fun id time ->
          if time >= 0 then begin
            out.(!k) <- (time, Array.sub t.rarena offs.(id) lens.(id));
            incr k
          end)
        times;
      out

let injection_log t = full_log t ~want_initial:false
let initial_final_routes t =
  Aqt_util.Boxed_array.map snd (full_log t ~want_initial:true)
