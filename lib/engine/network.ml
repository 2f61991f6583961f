module Dyn = Aqt_util.Dynarray_compat
module Boxed_array = Aqt_util.Boxed_array
module Digraph = Aqt_graph.Digraph
module Capacity = Aqt_capacity.Model

(* The step loop's containers are defined in this module.  Dune's dev
   profile compiles every module [-opaque], so no call into another module
   is inlined: through [Dynarray_compat] each [get] is an indirect call via
   [caml_apply2], and a polymorphic [push] of an [int] still runs
   [caml_modify].  Here the compiler knows the element types, calls are
   direct, and the [@inline] primitives below are expanded in place. *)
module Int_stack = struct
  type t = { mutable data : int array; mutable len : int }

  let create () = { data = Array.make 8 0; len = 0 }

  let grow s =
    let bigger = Array.make (2 * Array.length s.data) 0 in
    Array.blit s.data 0 bigger 0 s.len;
    s.data <- bigger

  let[@inline] push s x =
    if s.len = Array.length s.data then grow s;
    Array.unsafe_set s.data s.len x;
    s.len <- s.len + 1

  (* Callers check [len > 0]. *)
  let[@inline] pop s =
    s.len <- s.len - 1;
    Array.unsafe_get s.data s.len
end

(* The packet store: a slab of records, each at a slot number it keeps for
   life.  Buffers, the in-transit stack and the free list hold slots, so
   moving a packet stores an [int] and never runs the write barrier
   ([caml_modify]) that storing a pointer into a heap array costs.  Only a
   new record is written here; a recycled one keeps its slot. *)
module Store = struct
  type t = { mutable pkts : Packet.t array; mutable len : int }

  let create () = { pkts = [||]; len = 0 }
  let[@inline] get s slot = Array.unsafe_get s.pkts slot

  (* Places [p] at the next slot and returns it.  A full slab doubles by
     appending itself: the new half repeats stored records until its slots
     are written, so no dummy record is needed, and there is no
     [Array.make] with the young [p], which past 256 slots forces a minor
     collection (see [Aqt_util.Boxed_array]). *)
  let add s (p : Packet.t) =
    if s.len = Array.length s.pkts then
      s.pkts <-
        (if s.len = 0 then Array.make 8 p else Array.append s.pkts s.pkts);
    let slot = s.len in
    Array.unsafe_set s.pkts slot p;
    s.len <- slot + 1;
    slot
end

(* The buffer at the tail of one link, holding the slots of its packets.

   Arrival-ordered policies keep a ring in [slots].  Capacities are 0 or
   8 * 2^k (see [grow]), so positions wrap with [land (cap - 1)]; FIFO
   serves the front of the ring and LIFO the back.  Every other policy
   keeps a binary min-heap over the parallel arrays [slots], [keys] and
   [ties], ordered by (key, tie) with the tie the arrival sequence number,
   so equal keys leave in arrival order.  Ties are distinct, so the order
   is strict.  The two representations are observationally equivalent for
   their disciplines (tested in test_buffer and test_policy). *)
module Buffer_q = struct
  type kind = Fifo | Lifo | Keyed

  type t = {
    kind : kind;
    store : Store.t; (* where this buffer's slots point *)
    mutable slots : int array;
    mutable keys : int array; (* Keyed only *)
    mutable ties : int array; (* Keyed only *)
    mutable head : int; (* ring index of the front slot; Fifo and Lifo *)
    mutable len : int;
    mutable seq : int;
  }

  let create_in store (policy : Policy_type.t) =
    let kind =
      match policy.discipline with
      | Policy_type.Arrival_order -> Fifo
      | Policy_type.Reverse_arrival -> Lifo
      | Policy_type.By_key -> Keyed
    in
    {
      kind;
      store;
      slots = [||];
      keys = [||];
      ties = [||];
      head = 0;
      len = 0;
      seq = 0;
    }

  let[@inline] length b = b.len
  let[@inline] is_empty b = b.len = 0
  let[@inline] ring_index b i = (b.head + i) land (Array.length b.slots - 1)

  (* Capacity 8, then doubling; a ring is unwrapped to start at 0. *)
  let grow b =
    let cap = Array.length b.slots in
    let ncap = if cap = 0 then 8 else 2 * cap in
    let slots = Array.make ncap 0 in
    (match b.kind with
    | Fifo | Lifo ->
        for i = 0 to b.len - 1 do
          slots.(i) <- b.slots.(ring_index b i)
        done;
        b.head <- 0
    | Keyed ->
        let keys = Array.make ncap 0 and ties = Array.make ncap 0 in
        Array.blit b.slots 0 slots 0 b.len;
        Array.blit b.keys 0 keys 0 b.len;
        Array.blit b.ties 0 ties 0 b.len;
        b.keys <- keys;
        b.ties <- ties);
    b.slots <- slots

  let[@inline] push_back b s =
    if b.len = Array.length b.slots then grow b;
    b.slots.(ring_index b b.len) <- s;
    b.len <- b.len + 1

  (* Callers check [len > 0]. *)
  let[@inline] pop_front b =
    let s = b.slots.(b.head) in
    b.head <- ring_index b 1;
    b.len <- b.len - 1;
    if b.len = 0 then b.head <- 0;
    s

  let[@inline] pop_back b =
    let s = b.slots.(ring_index b (b.len - 1)) in
    b.len <- b.len - 1;
    if b.len = 0 then b.head <- 0;
    s

  (* The heap sifts move a hole instead of swapping: the entry being placed
     is compared against the same neighbours a swap-based sift would compare
     it with, and written once into the final hole, so the array ends up
     exactly as the swapping version leaves it. *)

  (* The hole at [i] rises past every parent greater than (key, tie);
     returns the hole's final index. *)
  let rec sift_up b i key tie =
    if i = 0 then 0
    else begin
      let parent = (i - 1) lsr 1 in
      let pk = b.keys.(parent) in
      if key < pk || (key = pk && tie < b.ties.(parent)) then begin
        b.slots.(i) <- b.slots.(parent);
        b.keys.(i) <- pk;
        b.ties.(i) <- b.ties.(parent);
        sift_up b parent key tie
      end
      else i
    end

  (* The hole at [i] sinks below every smaller child, the smaller of two
     children first (the left one unless the right is strictly smaller). *)
  let rec sift_down b i key tie =
    let l = (2 * i) + 1 in
    if l >= b.len then i
    else begin
      let r = l + 1 in
      let c =
        if
          r < b.len
          && (b.keys.(r) < b.keys.(l)
             || (b.keys.(r) = b.keys.(l) && b.ties.(r) < b.ties.(l)))
        then r
        else l
      in
      let ck = b.keys.(c) in
      if ck < key || (ck = key && b.ties.(c) < tie) then begin
        b.slots.(i) <- b.slots.(c);
        b.keys.(i) <- ck;
        b.ties.(i) <- b.ties.(c);
        sift_down b c key tie
      end
      else i
    end

  let[@inline] heap_add b ~key ~tie s =
    if b.len = Array.length b.slots then grow b;
    let i = sift_up b b.len key tie in
    b.slots.(i) <- s;
    b.keys.(i) <- key;
    b.ties.(i) <- tie;
    b.len <- b.len + 1

  (* Callers check [len > 0].  The last entry fills the root's hole. *)
  let[@inline] pop_min b =
    let top = b.slots.(0) in
    let last = b.len - 1 in
    b.len <- last;
    if last > 0 then begin
      let s = b.slots.(last) and key = b.keys.(last) and tie = b.ties.(last) in
      let i = sift_down b 0 key tie in
      b.slots.(i) <- s;
      b.keys.(i) <- key;
      b.ties.(i) <- tie
    end;
    top

  (* Inserts slot [s], which holds [p]; a keyed policy reads its key from
     the packet. *)
  let[@inline] push b (policy : Policy_type.t) ~now s (p : Packet.t) =
    let seq = b.seq in
    b.seq <- seq + 1;
    match b.kind with
    | Fifo | Lifo -> push_back b s
    | Keyed -> heap_add b ~key:(policy.key p ~now ~seq) ~tie:seq s

  (* The slot the policy forwards next.  The step loop only visits active
     edges, so raising here means the active-list invariant broke — an
     engine bug, not control flow. *)
  let[@inline] take_slot b =
    if b.len = 0 then raise Not_found;
    match b.kind with
    | Fifo -> pop_front b
    | Lifo -> pop_back b
    | Keyed -> pop_min b

  (* Capacity-aware insertion of slot [s].  A full buffer either rejects the
     arrival (drop-tail) or, with [drop_head], evicts the slot the policy
     would forward next — the head of the service order, so FIFO sheds its
     oldest packet and LIFO its newest.  [cap = 0] rejects unconditionally:
     there is no occupant to displace in favour of the arrival.  The arrival
     sequence counter advances only for packets actually admitted.  Returns
     [admitted], [rejected] or the evicted slot. *)
  let admitted = -1
  let rejected = -2

  let offer b policy ~now ~cap ~drop_head s p =
    let len = b.len in
    if len < cap then begin
      push b policy ~now s p;
      admitted
    end
    else if drop_head && len > 0 then begin
      let victim = take_slot b in
      push b policy ~now s p;
      victim
    end
    else rejected

  let iter f b =
    match b.kind with
    | Fifo | Lifo ->
        for i = 0 to b.len - 1 do
          f (Store.get b.store b.slots.(ring_index b i))
        done
    | Keyed ->
        for i = 0 to b.len - 1 do
          f (Store.get b.store b.slots.(i))
        done

  let to_sorted_list b =
    let packet s = Store.get b.store s in
    match b.kind with
    | Fifo -> List.init b.len (fun i -> packet b.slots.(ring_index b i))
    | Lifo ->
        List.init b.len (fun i -> packet b.slots.(ring_index b (b.len - 1 - i)))
    | Keyed ->
        let order = Array.init b.len Fun.id in
        Array.sort
          (fun i j ->
            let c = Int.compare b.keys.(i) b.keys.(j) in
            if c <> 0 then c else Int.compare b.ties.(i) b.ties.(j))
          order;
        List.map (fun i -> packet b.slots.(i)) (Array.to_list order)

  let arrivals b = b.seq

  (* The packet-level interface of a standalone buffer: it owns a private
     store, and every enqueued packet takes a fresh slot there. *)
  let create policy = create_in (Store.create ()) policy

  let enqueue b policy ~now p = push b policy ~now (Store.add b.store p) p
  let take b = Store.get b.store (take_slot b)

  type admit = Admitted | Rejected | Displaced of Packet.t

  let enqueue_capped b policy ~now ~cap ~drop_head p =
    let outcome = offer b policy ~now ~cap ~drop_head (Store.add b.store p) p in
    if outcome = admitted then Admitted
    else if outcome = rejected then Rejected
    else Displaced (Store.get b.store outcome)
end

type injection = { route : int array; tag : string }
type tie_order = Transit_first | Injection_first

type t = {
  graph : Digraph.t;
  policy : Policy_type.t;
  buffers : Buffer_q.t array;
  tie_order : tie_order;
  tracer : (Trace.event -> unit) option;
  (* Hash-consed routes: packets injected with equal routes share one
     canonical array, validated once.  May be shared across networks on the
     same graph (see Route_intern). *)
  routes : Route_intern.t;
  (* Every packet record, at the slot it keeps for life. *)
  store : Store.t;
  (* Slots of absorbed and dropped packets, reused by [fresh_packet] so
     steady-state runs stop churning the heap. *)
  free : Int_stack.t;
  (* The capacity model, compiled: [bounded] gates every drop branch, so the
     unbounded regime runs the original code path; [caps] holds the static
     per-edge limits (max_int where none applies); a Shared model sets
     [shared_total] finite and admits by the Dynamic-Threshold test against
     [occupancy].  [speedup] is the link speed s (packets forwarded per edge
     per step). *)
  capacity : Capacity.t;
  bounded : bool;
  speedup : int;
  caps : int array;
  drop_head : bool;
  shared_total : int;
  dt_num : int;
  dt_den : int;
  mutable now : int;
  mutable next_id : int;
  mutable in_flight : int;
  mutable absorbed : int;
  mutable injected : int;
  mutable initials : int;
  mutable reroutes : int;
  (* Drop accounting.  [occupancy] is the total buffered population — equal
     to [in_flight] between steps, but maintained separately because the
     Dynamic-Threshold admission test reads it mid-substep, while packets in
     transit are in flight without occupying a buffer. *)
  mutable occupancy : int;
  mutable peak_occupancy : int;
  mutable dropped : int;
  mutable displaced : int;
  dropped_edge : int array;
  (* Active-edge bookkeeping: [active] lists exactly the edges with nonempty
     buffers, [active_flag] mirrors membership. *)
  mutable active : Int_stack.t;
  mutable active_scratch : Int_stack.t;
  active_flag : bool array;
  pending : Int_stack.t; (* slots of packets in transit within the step *)
  (* Instrumentation. *)
  mutable max_queue : int;
  max_queue_edge : int array;
  sent_edge : int array;
  mutable max_dwell : int;
  mutable latency_sum : int;
  mutable latency_max : int;
  (* (injected_at, packet id, initial?, final route) of absorbed and dropped
     packets, in the order they left; [full_log] adds the buffered ones and
     puts everything back in id order. *)
  absorbed_log : (int * int * bool * int array) Dyn.t option;
  last_use : int array; (* per edge: latest injection whose route used it *)
}

let create ?(log_injections = false) ?(tie_order = Transit_first) ?tracer
    ?route_table ?(capacity = Capacity.unbounded) ~graph ~policy () =
  let m = Digraph.n_edges graph in
  let store = Store.create () in
  {
    graph;
    policy;
    buffers = Boxed_array.init m (fun _ -> Buffer_q.create_in store policy);
    tie_order;
    tracer;
    routes =
      (match route_table with
      | Some t -> t
      | None -> Route_intern.create ());
    store;
    free = Int_stack.create ();
    capacity;
    bounded = not (Capacity.is_unbounded capacity);
    speedup = Capacity.speedup capacity;
    caps = Capacity.caps capacity ~m;
    drop_head = Capacity.drop_head capacity;
    shared_total = Capacity.shared_total capacity;
    dt_num = fst (Capacity.alpha capacity);
    dt_den = snd (Capacity.alpha capacity);
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
    active = Int_stack.create ();
    active_scratch = Int_stack.create ();
    active_flag = Array.make m false;
    pending = Int_stack.create ();
    max_queue = 0;
    max_queue_edge = Array.make m 0;
    sent_edge = Array.make m 0;
    max_dwell = 0;
    latency_sum = 0;
    latency_max = 0;
    absorbed_log = (if log_injections then Some (Dyn.create ()) else None);
    last_use = Array.make m min_int;
  }

let graph t = t.graph
let policy t = t.policy
let now t = t.now
let route_table t = t.routes
let pooled t = t.free.len

let check_route t route =
  if not (Digraph.route_is_simple t.graph route) then
    invalid_arg
      (Format.asprintf "Network: route %a is not a simple path"
         (Digraph.pp_route t.graph) route)

(* Canonical array for an injected route; validation runs only when the
   contents are seen for the first time.  A hit returns the option the
   table stores, and a miss is added at the slot where [find]'s probe
   stopped, so either way the table is probed once. *)
let intern_route t route =
  match Route_intern.find t.routes route with
  | Some canonical -> canonical
  | None ->
      check_route t route;
      Route_intern.add t.routes route

let post_enqueue t e =
  if not t.active_flag.(e) then begin
    t.active_flag.(e) <- true;
    Int_stack.push t.active e
  end;
  t.occupancy <- t.occupancy + 1;
  if t.occupancy > t.peak_occupancy then t.peak_occupancy <- t.occupancy;
  let len = Buffer_q.length t.buffers.(e) in
  if len > t.max_queue then t.max_queue <- len;
  if len > t.max_queue_edge.(e) then t.max_queue_edge.(e) <- len

let enqueue_at t s (p : Packet.t) e =
  p.buffered_at <- t.now;
  Buffer_q.push t.buffers.(e) t.policy ~now:t.now s p;
  post_enqueue t e

(* The victim [p], at slot [s], is out of the system: it was either never
   buffered (an overflow arrival) or just evicted from its buffer
   (drop-head); the caller has already settled [occupancy].  Like [absorb]
   it closes the packet's life — log entry, tracer event, recycling — but
   books it under [dropped], keeping created = absorbed + in flight +
   dropped. *)
let drop_packet t s (p : Packet.t) e ~displaced =
  t.dropped <- t.dropped + 1;
  t.dropped_edge.(e) <- t.dropped_edge.(e) + 1;
  if displaced then t.displaced <- t.displaced + 1;
  t.in_flight <- t.in_flight - 1;
  (match t.tracer with
  | None -> ()
  | Some f -> f (Trace.Dropped { t = t.now; packet = p.id; edge = e; displaced }));
  (match t.absorbed_log with
  | Some log when not p.exogenous ->
      Dyn.push log (p.injected_at, p.id, p.initial, p.route)
  | _ -> ());
  Int_stack.push t.free s

(* Arrival of [p], at slot [s] and already counted in [in_flight], at the
   buffer of [e] under the capacity model; returns whether the packet
   survived.  The unbounded branch is the original enqueue — no length
   reads, no drop bookkeeping. *)
let admit t s (p : Packet.t) e =
  if not t.bounded then begin
    enqueue_at t s p e;
    true
  end
  else if t.shared_total <> max_int then begin
    (* Dynamic-Threshold shared buffer: rejections are tail drops. *)
    let len = Buffer_q.length t.buffers.(e) in
    if
      Capacity.dt_admits ~alpha_num:t.dt_num ~alpha_den:t.dt_den
        ~total:t.shared_total ~occupancy:t.occupancy ~len
    then begin
      enqueue_at t s p e;
      true
    end
    else begin
      drop_packet t s p e ~displaced:false;
      false
    end
  end
  else begin
    p.buffered_at <- t.now;
    let outcome =
      Buffer_q.offer t.buffers.(e) t.policy ~now:t.now ~cap:t.caps.(e)
        ~drop_head:t.drop_head s p
    in
    if outcome = Buffer_q.admitted then begin
      post_enqueue t e;
      true
    end
    else if outcome = Buffer_q.rejected then begin
      drop_packet t s p e ~displaced:false;
      false
    end
    else begin
      (* [outcome] is the slot of the evicted packet. *)
      t.occupancy <- t.occupancy - 1;
      drop_packet t outcome (Store.get t.store outcome) e ~displaced:true;
      post_enqueue t e;
      true
    end
  end

(* The slot of a new packet.  [route] must already be canonical (interned)
   or freshly allocated; no defensive copy happens here. *)
let fresh_packet t ~initial ~exogenous ~tag route =
  let id = t.next_id in
  t.next_id <- id + 1;
  if t.free.len > 0 then begin
    let s = Int_stack.pop t.free in
    let p = Store.get t.store s in
    p.id <- id;
    p.injected_at <- t.now;
    p.initial <- initial;
    p.exogenous <- exogenous;
    p.tag <- tag;
    p.route <- route;
    p.hop <- 0;
    p.buffered_at <- t.now;
    p.reroutes <- 0;
    s
  end
  else
    Store.add t.store
      {
        id;
        injected_at = t.now;
        initial;
        exogenous;
        tag;
        route;
        hop = 0;
        buffered_at = t.now;
        reroutes = 0;
      }

let mark_route_use t route =
  for i = 0 to Array.length route - 1 do
    t.last_use.(Array.unsafe_get route i) <- t.now
  done

let place_initial t ?(tag = "init") route =
  if t.now <> 0 then
    invalid_arg "Network.place_initial: the system already started";
  let route = intern_route t route in
  let s = fresh_packet t ~initial:true ~exogenous:false ~tag route in
  let p = Store.get t.store s in
  t.initials <- t.initials + 1;
  t.in_flight <- t.in_flight + 1;
  mark_route_use t route;
  (match t.tracer with
  | None -> ()
  | Some f ->
      f
        (Trace.Injected
           {
             t = t.now;
             packet = p.id;
             edge = route.(0);
             route_len = Array.length route;
             initial = true;
           }));
  ignore (admit t s p route.(0));
  p

let absorb t s (p : Packet.t) =
  t.absorbed <- t.absorbed + 1;
  t.in_flight <- t.in_flight - 1;
  let latency = t.now - p.injected_at in
  t.latency_sum <- t.latency_sum + latency;
  if latency > t.latency_max then t.latency_max <- latency;
  (match t.tracer with
  | None -> ()
  | Some f -> f (Trace.Absorbed { t = t.now; packet = p.id; latency }));
  (match t.absorbed_log with
  | Some log when not p.exogenous ->
      Dyn.push log (p.injected_at, p.id, p.initial, p.route)
  | _ -> ());
  Int_stack.push t.free s

let inject t ~exogenous (inj : injection) =
  let route = intern_route t inj.route in
  let s = fresh_packet t ~initial:false ~exogenous ~tag:inj.tag route in
  let p = Store.get t.store s in
  t.injected <- t.injected + 1;
  t.in_flight <- t.in_flight + 1;
  if not exogenous then mark_route_use t route;
  (match t.tracer with
  | None -> ()
  | Some f ->
      f
        (Trace.Injected
           {
             t = t.now;
             packet = p.id;
             edge = route.(0);
             route_len = Array.length route;
             initial = false;
           }));
  ignore (admit t s p route.(0))

(* Top-level helpers rather than local closures: [step] is the hot loop and
   must not allocate a closure per call. *)
let deliver t =
  let pending = t.pending in
  for i = 0 to pending.len - 1 do
    let s = Array.unsafe_get pending.data i in
    let p = Store.get t.store s in
    p.hop <- p.hop + 1;
    if p.hop >= Array.length p.route then absorb t s p
    else ignore (admit t s p (Array.unsafe_get p.route p.hop))
  done

let rec inject_all t ~exogenous = function
  | [] -> ()
  | inj :: rest ->
      inject t ~exogenous inj;
      inject_all t ~exogenous rest

let step t ?(exogenous = []) injections =
  t.now <- t.now + 1;
  (* Substep 1: one send per nonempty buffer, simultaneous.  Dequeues happen
     before any enqueue of this step, so simultaneity is exact. *)
  t.pending.len <- 0;
  let old_active = t.active in
  t.active <- t.active_scratch;
  t.active_scratch <- old_active;
  t.active.len <- 0;
  let n_active = old_active.len in
  if t.speedup = 1 then
    for i = 0 to n_active - 1 do
      let e = Array.unsafe_get old_active.data i in
      let buf = t.buffers.(e) in
      (* The active list never holds empty buffers, so [take_slot] cannot
         fail. *)
      let s = Buffer_q.take_slot buf in
      let p = Store.get t.store s in
      t.occupancy <- t.occupancy - 1;
      let dwell = t.now - p.buffered_at in
      if dwell > t.max_dwell then t.max_dwell <- dwell;
      t.sent_edge.(e) <- t.sent_edge.(e) + 1;
      (match t.tracer with
      | None -> ()
      | Some f ->
          f (Trace.Forwarded { t = t.now; packet = p.id; edge = e; dwell }));
      Int_stack.push t.pending s;
      if Buffer_q.is_empty buf then t.active_flag.(e) <- false
      else Int_stack.push t.active e
    done
  else
    for i = 0 to n_active - 1 do
      let e = Array.unsafe_get old_active.data i in
      let buf = t.buffers.(e) in
      (* Link speedup s: up to s sends per edge, still simultaneous — every
         dequeue of the substep happens before any enqueue. *)
      let len = Buffer_q.length buf in
      let k = if len < t.speedup then len else t.speedup in
      for _ = 1 to k do
        let s = Buffer_q.take_slot buf in
        let p = Store.get t.store s in
        t.occupancy <- t.occupancy - 1;
        let dwell = t.now - p.buffered_at in
        if dwell > t.max_dwell then t.max_dwell <- dwell;
        t.sent_edge.(e) <- t.sent_edge.(e) + 1;
        (match t.tracer with
        | None -> ()
        | Some f ->
            f (Trace.Forwarded { t = t.now; packet = p.id; edge = e; dwell }));
        Int_stack.push t.pending s
      done;
      if Buffer_q.is_empty buf then t.active_flag.(e) <- false
      else Int_stack.push t.active e
    done;
  (* Substep 2: deliveries and injections, in the configured tie order. *)
  (match t.tie_order with
  | Transit_first ->
      deliver t;
      inject_all t ~exogenous:false injections
  | Injection_first ->
      inject_all t ~exogenous:false injections;
      deliver t);
  match exogenous with
  | [] -> ()
  | l -> inject_all t ~exogenous:true l

let reroute t (p : Packet.t) suffix =
  if Packet.is_absorbed p then
    invalid_arg "Network.reroute: packet already absorbed";
  (* The current route may be a shared interned array, so the rewrite is
     assembled in a scratch array and interned like an injected route: a
     batch of packets rewritten to the same contents shares one canonical
     array, validated the first time those contents are seen. *)
  let keep = p.hop + 1 in
  let rewritten = Array.make (keep + Array.length suffix) 0 in
  Array.blit p.route 0 rewritten 0 keep;
  Array.blit suffix 0 rewritten keep (Array.length suffix);
  let new_route = intern_route t rewritten in
  p.route <- new_route;
  p.reroutes <- p.reroutes + 1;
  t.reroutes <- t.reroutes + 1;
  match t.tracer with
  | None -> ()
  | Some f ->
      f
        (Trace.Rerouted
           { t = t.now; packet = p.id; route_len = Array.length new_route })

let buffer_len t e = Buffer_q.length t.buffers.(e)
let buffer_packets t e = Buffer_q.to_sorted_list t.buffers.(e)
let in_flight t = t.in_flight
let absorbed t = t.absorbed
let injected_count t = t.injected
let initial_count t = t.initials
let capacity t = t.capacity
let speedup t = t.speedup
let dropped t = t.dropped
let displaced t = t.displaced
let dropped_on_edge t e = t.dropped_edge.(e)
let occupancy t = t.occupancy
let peak_occupancy t = t.peak_occupancy

let iter_buffered f t =
  for i = 0 to t.active.len - 1 do
    Buffer_q.iter f t.buffers.(t.active.data.(i))
  done

let count_requiring t e =
  let count = ref 0 in
  iter_buffered
    (fun p ->
      let rec uses i =
        i < Array.length p.route && (p.route.(i) = e || uses (i + 1))
      in
      if uses p.hop then incr count)
    t;
  !count

let s_initial t =
  let best = ref 0 in
  for e = 0 to Digraph.n_edges t.graph - 1 do
    best := max !best (count_requiring t e)
  done;
  !best

let current_max_queue t =
  let best = ref 0 in
  for i = 0 to t.active.len - 1 do
    let len = Buffer_q.length t.buffers.(t.active.data.(i)) in
    if len > !best then best := len
  done;
  !best

let max_queue_ever t = t.max_queue
let max_queue_of_edge t e = t.max_queue_edge.(e)
let sent_on_edge t e = t.sent_edge.(e)
let max_dwell t = t.max_dwell

let max_pending_dwell t =
  let best = ref 0 in
  iter_buffered (fun p -> best := max !best (t.now - p.buffered_at)) t;
  !best

let delivered_latency_max t = t.latency_max

let delivered_latency_mean t =
  if t.absorbed = 0 then 0.0
  else float_of_int t.latency_sum /. float_of_int t.absorbed

(* Ids are issued in creation order and time never decreases, so (injection
   time, id) order is id order: the entries are scattered into id-indexed
   arrays and read back in id order, no sort.  A negative time marks an id
   that is not selected (exogenous, or the other kind). *)
let full_log t ~want_initial =
  match t.absorbed_log with
  | None ->
      invalid_arg "Network.injection_log: created without ~log_injections"
  | Some log ->
      let times = Array.make t.next_id (-1) in
      let routes = Array.make t.next_id [||] in
      let selected = ref 0 in
      let put id time route =
        times.(id) <- time;
        routes.(id) <- route;
        incr selected
      in
      Dyn.iter
        (fun (time, id, initial, route) ->
          if initial = want_initial then put id time route)
        log;
      iter_buffered
        (fun p ->
          if p.initial = want_initial && not p.exogenous then
            put p.id p.injected_at p.route)
        t;
      let out = Array.make !selected (0, [||]) in
      let k = ref 0 in
      Array.iteri
        (fun id time ->
          if time >= 0 then begin
            out.(!k) <- (time, routes.(id));
            incr k
          end)
        times;
      out

let injection_log t = full_log t ~want_initial:false
let initial_final_routes t =
  Boxed_array.map snd (full_log t ~want_initial:true)

let reroute_count t = t.reroutes
let last_injection_on t e = t.last_use.(e)

let min_injection_time_in_flight t =
  let best = ref max_int in
  iter_buffered (fun p -> if p.injected_at < !best then best := p.injected_at) t;
  !best
