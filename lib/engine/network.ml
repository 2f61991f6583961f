module Dyn = Aqt_util.Dynarray_compat
module Digraph = Aqt_graph.Digraph
module Capacity = Aqt_capacity.Model

type injection = { route : int array; tag : string }
type tie_order = Transit_first | Injection_first

type t = {
  graph : Digraph.t;
  policy : Policy_type.t;
  buffers : Buffer_q.t array;
  validate_routes : bool;
  tie_order : tie_order;
  tracer : (Trace.event -> unit) option;
  (* Hash-consed routes: packets injected with equal routes share one
     canonical array, validated once.  May be shared across networks on the
     same graph (see Route_intern). *)
  routes : Route_intern.t;
  (* Free-list of absorbed packet records, reused by [fresh_packet] when
     [recycle] is on so steady-state runs stop churning the heap. *)
  recycle : bool;
  pool : Packet.t Dyn.t;
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
  mutable active : int Dyn.t;
  mutable active_scratch : int Dyn.t;
  active_flag : bool array;
  pending : Packet.t Dyn.t; (* packets in transit within the current step *)
  (* Instrumentation. *)
  mutable max_queue : int;
  max_queue_edge : int array;
  sent_edge : int array;
  mutable max_dwell : int;
  mutable latency_sum : int;
  mutable latency_max : int;
  latency_histo : Aqt_util.Histo.t;
  (* (injected_at, packet id, initial?, final route) of absorbed packets, in
     absorption order; live packets are appended on demand by
     [injection_log]/[initial_final_routes], which sort by (time, id) so
     same-step injections keep their original order. *)
  absorbed_log : (int * int * bool * int array) Dyn.t option;
  last_use : int array; (* per edge: latest injection whose route used it *)
}

let create ?(log_injections = false) ?(validate_routes = true)
    ?(tie_order = Transit_first) ?tracer ?route_table ?(recycle = false)
    ?(capacity = Capacity.unbounded) ~graph ~policy () =
  let m = Digraph.n_edges graph in
  {
    graph;
    policy;
    buffers = Array.init m (fun _ -> Buffer_q.create policy);
    validate_routes;
    tie_order;
    tracer;
    routes =
      (match route_table with
      | Some t -> t
      | None -> Route_intern.create ());
    recycle;
    pool = Dyn.create ();
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
    active = Dyn.create ();
    active_scratch = Dyn.create ();
    active_flag = Array.make m false;
    pending = Dyn.create ();
    max_queue = 0;
    max_queue_edge = Array.make m 0;
    sent_edge = Array.make m 0;
    max_dwell = 0;
    latency_sum = 0;
    latency_max = 0;
    latency_histo = Aqt_util.Histo.create ();
    absorbed_log = (if log_injections then Some (Dyn.create ()) else None);
    last_use = Array.make m min_int;
  }

let graph t = t.graph
let policy t = t.policy
let now t = t.now
let route_table t = t.routes
let pooled t = Dyn.length t.pool

let check_route t route =
  if t.validate_routes && not (Digraph.route_is_simple t.graph route) then
    invalid_arg
      (Format.asprintf "Network: route %a is not a simple path"
         (Digraph.pp_route t.graph) route)

(* Canonical array for an injected route; validation runs only when the
   contents are seen for the first time. *)
let intern_route t route =
  match Route_intern.find t.routes route with
  | Some canonical -> canonical
  | None ->
      check_route t route;
      Route_intern.add t.routes route

let post_enqueue t e =
  if not t.active_flag.(e) then begin
    t.active_flag.(e) <- true;
    Dyn.push t.active e
  end;
  t.occupancy <- t.occupancy + 1;
  if t.occupancy > t.peak_occupancy then t.peak_occupancy <- t.occupancy;
  let len = Buffer_q.length t.buffers.(e) in
  if len > t.max_queue then t.max_queue <- len;
  if len > t.max_queue_edge.(e) then t.max_queue_edge.(e) <- len

let enqueue_at t (p : Packet.t) e =
  p.buffered_at <- t.now;
  Buffer_q.enqueue t.buffers.(e) t.policy ~now:t.now p;
  post_enqueue t e

(* The victim [p] is out of the system: it was either never buffered (an
   overflow arrival) or just evicted from its buffer (drop-head); the caller
   has already settled [occupancy].  Like [absorb] it closes the packet's
   life — log entry, tracer event, recycling — but books it under [dropped],
   keeping created = absorbed + in flight + dropped. *)
let drop_packet t (p : Packet.t) e ~displaced =
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
  if t.recycle then Dyn.push t.pool p

(* Arrival of [p] (already counted in [in_flight]) at the buffer of [e]
   under the capacity model; returns whether the packet survived.  The
   unbounded branch is the original enqueue — no length reads, no drop
   bookkeeping. *)
let admit t (p : Packet.t) e =
  if not t.bounded then begin
    enqueue_at t p e;
    true
  end
  else if t.shared_total <> max_int then begin
    (* Dynamic-Threshold shared buffer: rejections are tail drops. *)
    let len = Buffer_q.length t.buffers.(e) in
    if
      Capacity.dt_admits ~alpha_num:t.dt_num ~alpha_den:t.dt_den
        ~total:t.shared_total ~occupancy:t.occupancy ~len
    then begin
      enqueue_at t p e;
      true
    end
    else begin
      drop_packet t p e ~displaced:false;
      false
    end
  end
  else begin
    p.buffered_at <- t.now;
    match
      Buffer_q.enqueue_capped t.buffers.(e) t.policy ~now:t.now
        ~cap:t.caps.(e) ~drop_head:t.drop_head p
    with
    | Buffer_q.Admitted ->
        post_enqueue t e;
        true
    | Buffer_q.Rejected ->
        drop_packet t p e ~displaced:false;
        false
    | Buffer_q.Displaced victim ->
        t.occupancy <- t.occupancy - 1;
        drop_packet t victim e ~displaced:true;
        post_enqueue t e;
        true
  end

(* [route] must already be canonical (interned) or freshly allocated; no
   defensive copy happens here. *)
let fresh_packet t ~initial ~exogenous ~tag route : Packet.t =
  let id = t.next_id in
  t.next_id <- id + 1;
  if t.recycle && not (Dyn.is_empty t.pool) then begin
    let p = Dyn.pop t.pool in
    p.id <- id;
    p.injected_at <- t.now;
    p.initial <- initial;
    p.exogenous <- exogenous;
    p.tag <- tag;
    p.route <- route;
    p.hop <- 0;
    p.buffered_at <- t.now;
    p.reroutes <- 0;
    p
  end
  else
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
  let p = fresh_packet t ~initial:true ~exogenous:false ~tag route in
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
  ignore (admit t p route.(0));
  p

let absorb t (p : Packet.t) =
  t.absorbed <- t.absorbed + 1;
  t.in_flight <- t.in_flight - 1;
  let latency = t.now - p.injected_at in
  t.latency_sum <- t.latency_sum + latency;
  if latency > t.latency_max then t.latency_max <- latency;
  Aqt_util.Histo.record t.latency_histo latency;
  (match t.tracer with
  | None -> ()
  | Some f -> f (Trace.Absorbed { t = t.now; packet = p.id; latency }));
  (match t.absorbed_log with
  | Some log when not p.exogenous ->
      Dyn.push log (p.injected_at, p.id, p.initial, p.route)
  | _ -> ());
  if t.recycle then Dyn.push t.pool p

let inject t ~exogenous (inj : injection) =
  let route = intern_route t inj.route in
  let p = fresh_packet t ~initial:false ~exogenous ~tag:inj.tag route in
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
  ignore (admit t p route.(0))

(* Top-level helpers rather than local closures: [step] is the hot loop and
   must not allocate a closure per call. *)
let deliver t =
  let n = Dyn.length t.pending in
  for i = 0 to n - 1 do
    let p : Packet.t = Dyn.get t.pending i in
    p.hop <- p.hop + 1;
    if p.hop >= Array.length p.route then absorb t p
    else ignore (admit t p (Array.unsafe_get p.route p.hop))
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
  Dyn.clear t.pending;
  let old_active = t.active in
  t.active <- t.active_scratch;
  t.active_scratch <- old_active;
  Dyn.clear t.active;
  let n_active = Dyn.length old_active in
  if t.speedup = 1 then
    for i = 0 to n_active - 1 do
      let e = Dyn.get old_active i in
      let buf = t.buffers.(e) in
      (* The active list never holds empty buffers, so [take] cannot fail. *)
      let p = Buffer_q.take buf in
      t.occupancy <- t.occupancy - 1;
      let dwell = t.now - p.buffered_at in
      if dwell > t.max_dwell then t.max_dwell <- dwell;
      t.sent_edge.(e) <- t.sent_edge.(e) + 1;
      (match t.tracer with
      | None -> ()
      | Some f ->
          f (Trace.Forwarded { t = t.now; packet = p.id; edge = e; dwell }));
      Dyn.push t.pending p;
      if Buffer_q.is_empty buf then t.active_flag.(e) <- false
      else Dyn.push t.active e
    done
  else
    for i = 0 to n_active - 1 do
      let e = Dyn.get old_active i in
      let buf = t.buffers.(e) in
      (* Link speedup s: up to s sends per edge, still simultaneous — every
         dequeue of the substep happens before any enqueue. *)
      let len = Buffer_q.length buf in
      let k = if len < t.speedup then len else t.speedup in
      for _ = 1 to k do
        let p = Buffer_q.take buf in
        t.occupancy <- t.occupancy - 1;
        let dwell = t.now - p.buffered_at in
        if dwell > t.max_dwell then t.max_dwell <- dwell;
        t.sent_edge.(e) <- t.sent_edge.(e) + 1;
        (match t.tracer with
        | None -> ()
        | Some f ->
            f (Trace.Forwarded { t = t.now; packet = p.id; edge = e; dwell }));
        Dyn.push t.pending p
      done;
      if Buffer_q.is_empty buf then t.active_flag.(e) <- false
      else Dyn.push t.active e
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
  Dyn.iter (fun e -> Buffer_q.iter f t.buffers.(e)) t.active

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
  Dyn.fold_left (fun acc e -> max acc (Buffer_q.length t.buffers.(e))) 0 t.active

let max_queue_ever t = t.max_queue
let max_queue_of_edge t e = t.max_queue_edge.(e)
let sent_on_edge t e = t.sent_edge.(e)
let max_dwell t = t.max_dwell

let max_pending_dwell t =
  let best = ref 0 in
  iter_buffered (fun p -> best := max !best (t.now - p.buffered_at)) t;
  !best

let delivered_latency_max t = t.latency_max
let delivered_latency_percentile t p = Aqt_util.Histo.percentile t.latency_histo p

let delivered_latency_mean t =
  if t.absorbed = 0 then 0.0
  else float_of_int t.latency_sum /. float_of_int t.absorbed

let full_log t ~want_initial =
  match t.absorbed_log with
  | None ->
      invalid_arg "Network.injection_log: created without ~log_injections"
  | Some log ->
      let selected = Dyn.create () in
      Dyn.iter
        (fun (time, id, initial, route) ->
          if initial = want_initial then Dyn.push selected (time, id, route))
        log;
      iter_buffered
        (fun p ->
          if p.initial = want_initial && not p.exogenous then
            Dyn.push selected (p.injected_at, p.id, p.route))
        t;
      let all = Dyn.to_array selected in
      Array.sort
        (fun (t1, id1, _) (t2, id2, _) ->
          if t1 <> t2 then Int.compare t1 t2 else Int.compare id1 id2)
        all;
      all

let injection_log t =
  Array.map (fun (time, _, route) -> (time, route)) (full_log t ~want_initial:false)

let initial_final_routes t =
  Array.map (fun (_, _, route) -> route) (full_log t ~want_initial:true)

let reroute_count t = t.reroutes
let last_injection_on t e = t.last_use.(e)

let min_injection_time_in_flight t =
  let best = ref max_int in
  iter_buffered (fun p -> if p.injected_at < !best then best := p.injected_at) t;
  !best
