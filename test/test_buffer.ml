(* Tests for the engine's per-edge buffer storage: the FIFO/LIFO ring and
   the keyed binary heap of Network.Buffer_q, checked against a reference
   copy of the buffer as it was built on a polymorphic deque and heap, and
   by the ring and heap cases carried over from those modules. *)

module Packet = Aqt_engine.Packet
module Buffer_q = Aqt_engine.Network.Buffer_q
module Policy_type = Aqt_engine.Policy_type
module Policies = Aqt_policy.Policies

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let pkt ?(injected_at = 0) ?(tag = "t") ?(len = 1) ?(hop = 0) id : Packet.t =
  {
    id;
    injected_at;
    initial = false;
    exogenous = false;
    tag;
    route = Array.make len 0;
    hop;
    buffered_at = 0;
    reroutes = 0;
  }

let ids = List.map (fun (p : Packet.t) -> p.id)

let iter_ids b =
  let seen = ref [] in
  Buffer_q.iter (fun p -> seen := p.Packet.id :: !seen) b;
  List.rev !seen

let take_ids b n = List.init n (fun _ -> (Buffer_q.take b).Packet.id)
let check_ids = Alcotest.(check (list int))

(* The buffer as it was built on the polymorphic ring deque and binary heap
   of the utility library, copied (minus the operations the buffer never
   used) as the reference for Buffer_q's flat storage: the same ring, the
   same swap-based sifts over boxed (key, tie, value) entries, the same
   arrival counter. *)
module Ref_buffer = struct
  module Dq = struct
    type 'a t = {
      mutable data : 'a array;
      mutable head : int;
      mutable len : int;
    }

    let create () = { data = [||]; head = 0; len = 0 }

    let grow d x =
      let cap = Array.length d.data in
      let ncap = if cap = 0 then 8 else 2 * cap in
      let ndata = Array.make ncap x in
      for i = 0 to d.len - 1 do
        ndata.(i) <- d.data.((d.head + i) land (cap - 1))
      done;
      d.data <- ndata;
      d.head <- 0

    let push_back d x =
      if d.len = Array.length d.data then grow d x;
      let cap = Array.length d.data in
      d.data.((d.head + d.len) land (cap - 1)) <- x;
      d.len <- d.len + 1

    let pop_front d =
      if d.len = 0 then raise Not_found;
      let x = d.data.(d.head) in
      d.head <- (d.head + 1) land (Array.length d.data - 1);
      d.len <- d.len - 1;
      if d.len = 0 then d.head <- 0;
      x

    let pop_back d =
      if d.len = 0 then raise Not_found;
      let cap = Array.length d.data in
      let x = d.data.((d.head + d.len - 1) land (cap - 1)) in
      d.len <- d.len - 1;
      if d.len = 0 then d.head <- 0;
      x

    let get d i = d.data.((d.head + i) land (Array.length d.data - 1))
    let to_list d = List.init d.len (get d)
  end

  module H = struct
    type 'a entry = { key : int; tie : int; value : 'a }
    type 'a t = { mutable data : 'a entry array; mutable len : int }

    let create () = { data = [||]; len = 0 }
    let lt a b = a.key < b.key || (a.key = b.key && a.tie < b.tie)

    let grow h e =
      let cap = Array.length h.data in
      let ncap = if cap = 0 then 8 else 2 * cap in
      let ndata = Array.make ncap e in
      Array.blit h.data 0 ndata 0 h.len;
      h.data <- ndata

    let swap h i j =
      let tmp = h.data.(i) in
      h.data.(i) <- h.data.(j);
      h.data.(j) <- tmp

    let rec sift_up h i =
      if i > 0 then begin
        let parent = (i - 1) / 2 in
        if lt h.data.(i) h.data.(parent) then begin
          swap h i parent;
          sift_up h parent
        end
      end

    let rec sift_down h i =
      let l = (2 * i) + 1 and r = (2 * i) + 2 in
      let smallest = ref i in
      if l < h.len && lt h.data.(l) h.data.(!smallest) then smallest := l;
      if r < h.len && lt h.data.(r) h.data.(!smallest) then smallest := r;
      if !smallest <> i then begin
        swap h i !smallest;
        sift_down h !smallest
      end

    let add h ~key ~tie value =
      let e = { key; tie; value } in
      if h.len = Array.length h.data then grow h e;
      h.data.(h.len) <- e;
      h.len <- h.len + 1;
      sift_up h (h.len - 1)

    let pop_min h =
      if h.len = 0 then raise Not_found;
      let top = h.data.(0) in
      h.len <- h.len - 1;
      if h.len > 0 then begin
        h.data.(0) <- h.data.(h.len);
        sift_down h 0
      end;
      top.value

    let to_sorted_list h =
      let entries = Array.sub h.data 0 h.len in
      Array.sort
        (fun a b -> if lt a b then -1 else if lt b a then 1 else 0)
        entries;
      Array.to_list (Array.map (fun e -> e.value) entries)
  end

  type impl =
    | Fifo of Packet.t Dq.t
    | Lifo of Packet.t Dq.t
    | Keyed of Packet.t H.t

  type t = { impl : impl; mutable seq : int }

  let create (policy : Policy_type.t) =
    let impl =
      match policy.discipline with
      | Policy_type.Arrival_order -> Fifo (Dq.create ())
      | Policy_type.Reverse_arrival -> Lifo (Dq.create ())
      | Policy_type.By_key -> Keyed (H.create ())
    in
    { impl; seq = 0 }

  let length b =
    match b.impl with Fifo d | Lifo d -> d.Dq.len | Keyed h -> h.H.len

  let enqueue b (policy : Policy_type.t) ~now p =
    let seq = b.seq in
    b.seq <- seq + 1;
    match b.impl with
    | Fifo d | Lifo d -> Dq.push_back d p
    | Keyed h -> H.add h ~key:(policy.key p ~now ~seq) ~tie:seq p

  let take b =
    match b.impl with
    | Fifo d -> Dq.pop_front d
    | Lifo d -> Dq.pop_back d
    | Keyed h -> H.pop_min h

  let enqueue_capped b policy ~now ~cap ~drop_head p =
    let len = length b in
    if len < cap then begin
      enqueue b policy ~now p;
      Buffer_q.Admitted
    end
    else if drop_head && len > 0 then begin
      let victim = take b in
      enqueue b policy ~now p;
      Buffer_q.Displaced victim
    end
    else Buffer_q.Rejected

  (* Ring order front to back, or the heap array's order: the order
     [Network.iter_buffered] exposes. *)
  let iter_ids b =
    match b.impl with
    | Fifo d | Lifo d -> ids (Dq.to_list d)
    | Keyed h -> List.init h.len (fun i -> h.data.(i).value.Packet.id)

  let to_sorted_list b =
    match b.impl with
    | Fifo d -> Dq.to_list d
    | Lifo d -> List.rev (Dq.to_list d)
    | Keyed h -> H.to_sorted_list h

  let arrivals b = b.seq
end

(* Random enqueue / take / capped-enqueue sequences under every
   deterministic policy and a random one, against the reference.  The
   packets' injection times, route lengths and hops are drawn from small
   ranges so every key function sees many equal keys.  After every
   operation the two buffers must agree on the returned packet (physically
   the same record), the length, the arrival counter, the forwarding order
   and the exact iteration order — the heap layout is observable through
   [Network.iter_buffered]. *)
let prop_buffer_matches_reference =
  let n_policies = List.length Policies.all_deterministic + 1 in
  QCheck.Test.make ~count:400
    ~name:"buffer equals the deque/heap reference"
    QCheck.(
      triple (int_bound (n_policies - 1)) (int_bound 100_000)
        (int_range 1 120))
    (fun (which, seed, n_ops) ->
      let policy, ref_policy =
        if which < n_policies - 1 then
          let p = List.nth Policies.all_deterministic which in
          (p, p)
        else (Policies.random ~seed, Policies.random ~seed)
      in
      let prng = Aqt_util.Prng.create seed in
      let draw n = Aqt_util.Prng.int prng n in
      let b = Buffer_q.create policy and r = Ref_buffer.create ref_policy in
      let next = ref 0 in
      let fresh () =
        let len = 1 + draw 5 in
        incr next;
        pkt ~injected_at:(draw 8) ~len ~hop:(draw len) !next
      in
      let agree () =
        Buffer_q.length b = Ref_buffer.length r
        && Buffer_q.arrivals b = Ref_buffer.arrivals r
        && List.equal ( == ) (Buffer_q.to_sorted_list b)
             (Ref_buffer.to_sorted_list r)
        && iter_ids b = Ref_buffer.iter_ids r
      in
      let step now =
        match draw 4 with
        | 0 | 1 ->
            let p = fresh () in
            Buffer_q.enqueue b policy ~now p;
            Ref_buffer.enqueue r ref_policy ~now p;
            true
        | 2 -> (
            match Buffer_q.take b with
            | p -> p == Ref_buffer.take r
            | exception Not_found -> (
                match Ref_buffer.take r with
                | _ -> false
                | exception Not_found -> true))
        | _ -> (
            let p = fresh () and cap = draw 5 and drop_head = draw 2 = 0 in
            match
              ( Buffer_q.enqueue_capped b policy ~now ~cap ~drop_head p,
                Ref_buffer.enqueue_capped r ref_policy ~now ~cap ~drop_head p )
            with
            | Buffer_q.Admitted, Buffer_q.Admitted
            | Buffer_q.Rejected, Buffer_q.Rejected ->
                true
            | Buffer_q.Displaced v, Buffer_q.Displaced w -> v == w
            | _ -> false)
      in
      let rec go now = now > n_ops || (step now && agree () && go (now + 1)) in
      go 1)

(* FIFO and LIFO keep a ring; the cases below are the ring-deque checks
   carried over to the buffer interface. *)
let deque_basics () =
  List.iter
    (fun (policy, order) ->
      let b = Buffer_q.create policy in
      check_bool "empty" true (Buffer_q.is_empty b);
      List.iter (fun i -> Buffer_q.enqueue b policy ~now:0 (pkt i)) [ 0; 1; 2 ];
      check_int "length" 3 (Buffer_q.length b);
      check_ids "forwarding order" order (ids (Buffer_q.to_sorted_list b));
      check_ids "ring order" [ 0; 1; 2 ] (iter_ids b);
      check_ids "takes" order (take_ids b 3);
      check_bool "empty again" true (Buffer_q.is_empty b);
      Alcotest.check_raises "empty take" Not_found (fun () ->
          ignore (Buffer_q.take b)))
    [ (Policies.fifo, [ 0; 1; 2 ]); (Policies.lifo, [ 2; 1; 0 ]) ]

let deque_wraparound () =
  (* 100 take/enqueue rounds carry the FIFO head around the 8-slot ring
     twelve times; growing with the head mid-ring must unwrap in order. *)
  let b = Buffer_q.create Policies.fifo in
  let next = ref 0 in
  let push () =
    Buffer_q.enqueue b Policies.fifo ~now:0 (pkt !next);
    incr next
  in
  for _ = 1 to 5 do
    push ()
  done;
  for _ = 1 to 100 do
    ignore (Buffer_q.take b);
    push ()
  done;
  check_int "stable size" 5 (Buffer_q.length b);
  check_ids "wrapped ring order" (List.init 5 (( + ) 100)) (iter_ids b);
  for _ = 1 to 20 do
    push ()
  done;
  check_ids "grown ring order" (List.init 25 (( + ) 100)) (iter_ids b);
  check_ids "drain order" (List.init 25 (( + ) 100)) (take_ids b 25);
  (* LIFO across growth: the newest packet always leaves first. *)
  let b = Buffer_q.create Policies.lifo in
  for i = 0 to 19 do
    Buffer_q.enqueue b Policies.lifo ~now:0 (pkt i)
  done;
  check_ids "lifo pops newest" (List.init 10 (fun i -> 19 - i)) (take_ids b 10);
  for i = 20 to 29 do
    Buffer_q.enqueue b Policies.lifo ~now:0 (pkt i)
  done;
  check_ids "lifo order after regrowth"
    (List.init 10 (fun i -> 29 - i) @ List.init 10 (fun i -> 9 - i))
    (ids (Buffer_q.to_sorted_list b))

(* Model check against a list, served from the front (FIFO) or the back
   (LIFO). *)
let prop_deque_model =
  QCheck.Test.make ~name:"deque behaves like a functional sequence" ~count:300
    QCheck.(pair bool (list (pair (int_range 0 3) small_int)))
    (fun (lifo, ops) ->
      let policy = if lifo then Policies.lifo else Policies.fifo in
      let b = Buffer_q.create policy in
      let model = ref [] in
      let serve () =
        match if lifo then List.rev !model else !model with
        | [] -> None
        | x :: rest ->
            model := if lifo then List.rev rest else rest;
            Some x
      in
      let ok = ref true in
      List.iter
        (fun (op, v) ->
          match op with
          | 0 | 1 ->
              Buffer_q.enqueue b policy ~now:0 (pkt v);
              model := !model @ [ v ]
          | 2 -> (
              match serve () with
              | None -> if not (Buffer_q.is_empty b) then ok := false
              | Some x ->
                  if Buffer_q.is_empty b || (Buffer_q.take b).id <> x then
                    ok := false)
          | _ -> (
              match serve () with
              | None -> (
                  try
                    ignore (Buffer_q.take b);
                    ok := false
                  with Not_found -> ())
              | Some x -> if (Buffer_q.take b).id <> x then ok := false))
        ops;
      !ok
      && ids (Buffer_q.to_sorted_list b)
         = if lifo then List.rev !model else !model)

(* Keyed policies keep a binary heap; LIS keys a packet by its injection
   time, so [injected_at] sets the key in the cases below. *)
let keyed k id = pkt ~injected_at:k id

let heap_order () =
  let b = Buffer_q.create Policies.lis in
  List.iter
    (fun (k, tag) ->
      Buffer_q.enqueue b Policies.lis ~now:0 (pkt ~injected_at:k ~tag 0))
    [ (3, "c"); (1, "a"); (2, "b") ];
  check_string "pop1" "a" (Buffer_q.take b).tag;
  check_string "pop2" "b" (Buffer_q.take b).tag;
  check_string "pop3" "c" (Buffer_q.take b).tag;
  Alcotest.check_raises "empty pop" Not_found (fun () ->
      ignore (Buffer_q.take b))

let heap_tie_stability () =
  let b = Buffer_q.create Policies.lis in
  for i = 0 to 9 do
    Buffer_q.enqueue b Policies.lis ~now:0 (keyed 7 i)
  done;
  check_ids "ties pop in arrival order" (List.init 10 Fun.id) (take_ids b 10)

let keyed_buffer ks =
  let b = Buffer_q.create Policies.lis in
  List.iteri (fun i k -> Buffer_q.enqueue b Policies.lis ~now:0 (keyed k i)) ks;
  b

let prop_heap_sorted_view =
  QCheck.Test.make ~name:"to_sorted_list equals drain order" ~count:200
    QCheck.(list small_int)
    (fun ks ->
      let b = keyed_buffer ks in
      let view = ids (Buffer_q.to_sorted_list b) in
      view = take_ids b (List.length ks))

let prop_heap_matches_sort =
  QCheck.Test.make ~name:"heap order equals stable sort by key" ~count:200
    QCheck.(list small_int)
    (fun ks ->
      let b = keyed_buffer ks in
      let expected =
        List.map snd
          (List.stable_sort compare (List.mapi (fun i k -> (k, i)) ks))
      in
      take_ids b (List.length ks) = expected)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "aqt_buffer"
    [
      ("buffer_q", [ q prop_buffer_matches_reference ]);
      ( "deque",
        [
          Alcotest.test_case "basics" `Quick deque_basics;
          Alcotest.test_case "wraparound" `Quick deque_wraparound;
          q prop_deque_model;
        ] );
      ( "binheap",
        [
          Alcotest.test_case "order" `Quick heap_order;
          Alcotest.test_case "tie stability" `Quick heap_tie_stability;
          q prop_heap_sorted_view;
          q prop_heap_matches_sort;
        ] );
    ]
