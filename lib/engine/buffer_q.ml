(* The buffer owns monomorphic storage: an enqueue allocates nothing and
   every access is a direct array read.  (Dune's dev profile compiles every
   module -opaque, so a polymorphic container in another module could
   neither be inlined nor specialise its writes to [Packet.t].)

   Arrival-ordered policies keep a ring in [pkts].  Capacities are 0 or
   8 * 2^k (see [grow]), so positions wrap with [land (cap - 1)]; FIFO
   serves the front of the ring and LIFO the back.  Every other policy
   keeps a binary min-heap over the parallel arrays [pkts], [keys] and
   [ties], ordered by (key, tie) with the tie the arrival sequence number,
   so equal keys leave in arrival order.  Ties are distinct, so the order
   is strict.  The two representations are observationally equivalent for
   their disciplines (tested in test_engine/test_policy). *)
type kind = Fifo | Lifo | Keyed

type t = {
  kind : kind;
  mutable pkts : Packet.t array;
  mutable keys : int array; (* Keyed only *)
  mutable ties : int array; (* Keyed only *)
  mutable head : int; (* ring index of the front packet; Fifo and Lifo *)
  mutable len : int;
  mutable seq : int;
}

let create (policy : Policy_type.t) =
  let kind =
    match policy.discipline with
    | Policy_type.Arrival_order -> Fifo
    | Policy_type.Reverse_arrival -> Lifo
    | Policy_type.By_key -> Keyed
  in
  { kind; pkts = [||]; keys = [||]; ties = [||]; head = 0; len = 0; seq = 0 }

let length b = b.len
let is_empty b = b.len = 0

let ring_slot b i = (b.head + i) land (Array.length b.pkts - 1)

(* Capacity 8, then doubling.  The arriving packet fills the fresh slots,
   so no dummy record is needed; a ring is unwrapped to start at 0. *)
let grow b (p : Packet.t) =
  let cap = Array.length b.pkts in
  let ncap = if cap = 0 then 8 else 2 * cap in
  let pkts = Array.make ncap p in
  (match b.kind with
  | Fifo | Lifo ->
      for i = 0 to b.len - 1 do
        pkts.(i) <- b.pkts.(ring_slot b i)
      done;
      b.head <- 0
  | Keyed ->
      let keys = Array.make ncap 0 and ties = Array.make ncap 0 in
      Array.blit b.pkts 0 pkts 0 b.len;
      Array.blit b.keys 0 keys 0 b.len;
      Array.blit b.ties 0 ties 0 b.len;
      b.keys <- keys;
      b.ties <- ties);
  b.pkts <- pkts

let push_back b p =
  if b.len = Array.length b.pkts then grow b p;
  b.pkts.(ring_slot b b.len) <- p;
  b.len <- b.len + 1

(* Callers check [len > 0]. *)
let pop_front b =
  let p = b.pkts.(b.head) in
  b.head <- ring_slot b 1;
  b.len <- b.len - 1;
  if b.len = 0 then b.head <- 0;
  p

let pop_back b =
  let p = b.pkts.(ring_slot b (b.len - 1)) in
  b.len <- b.len - 1;
  if b.len = 0 then b.head <- 0;
  p

(* The heap sifts move a hole instead of swapping: the entry being placed
   is compared against the same neighbours a swap-based sift would compare
   it with, and written once into the final hole, so the array ends up
   exactly as the swapping version leaves it. *)

(* The hole at [i] rises past every parent greater than (key, tie); returns
   the hole's final index. *)
let rec sift_up b i key tie =
  if i = 0 then 0
  else begin
    let parent = (i - 1) lsr 1 in
    let pk = b.keys.(parent) in
    if key < pk || (key = pk && tie < b.ties.(parent)) then begin
      b.pkts.(i) <- b.pkts.(parent);
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
      b.pkts.(i) <- b.pkts.(c);
      b.keys.(i) <- ck;
      b.ties.(i) <- b.ties.(c);
      sift_down b c key tie
    end
    else i
  end

let heap_add b ~key ~tie p =
  if b.len = Array.length b.pkts then grow b p;
  let i = sift_up b b.len key tie in
  b.pkts.(i) <- p;
  b.keys.(i) <- key;
  b.ties.(i) <- tie;
  b.len <- b.len + 1

(* Callers check [len > 0].  The last entry fills the root's hole. *)
let pop_min b =
  let top = b.pkts.(0) in
  let last = b.len - 1 in
  b.len <- last;
  if last > 0 then begin
    let p = b.pkts.(last) and key = b.keys.(last) and tie = b.ties.(last) in
    let i = sift_down b 0 key tie in
    b.pkts.(i) <- p;
    b.keys.(i) <- key;
    b.ties.(i) <- tie
  end;
  top

let enqueue b (policy : Policy_type.t) ~now (p : Packet.t) =
  let seq = b.seq in
  b.seq <- seq + 1;
  match b.kind with
  | Fifo | Lifo -> push_back b p
  | Keyed -> heap_add b ~key:(policy.key p ~now ~seq) ~tie:seq p

type admit = Admitted | Rejected | Displaced of Packet.t

(* The step loop's branch-free variant: the active-edge list guarantees the
   buffer is nonempty.  Raising here means the active-list invariant broke —
   an engine bug, not control flow. *)
let take b =
  if b.len = 0 then raise Not_found;
  match b.kind with
  | Fifo -> pop_front b
  | Lifo -> pop_back b
  | Keyed -> pop_min b

(* Option-returning, not try/with: no exception is allocated on the empty
   path. *)
let dequeue b = if b.len = 0 then None else Some (take b)

(* Capacity-aware insertion.  A full buffer either rejects the arrival
   (drop-tail) or, with [drop_head], evicts the packet the policy would
   forward next — the head of the service order, so FIFO sheds its oldest
   packet and LIFO its newest.  [cap = 0] rejects unconditionally: there is
   no occupant to displace in favour of the arrival.  The arrival sequence
   counter advances only for packets actually admitted. *)
let enqueue_capped b policy ~now ~cap ~drop_head (p : Packet.t) =
  let len = b.len in
  if len < cap then begin
    enqueue b policy ~now p;
    Admitted
  end
  else if drop_head && len > 0 then begin
    let victim = take b in
    enqueue b policy ~now p;
    Displaced victim
  end
  else Rejected

let peek b =
  if b.len = 0 then None
  else
    match b.kind with
    | Fifo -> Some b.pkts.(b.head)
    | Lifo -> Some b.pkts.(ring_slot b (b.len - 1))
    | Keyed -> Some b.pkts.(0)

let iter f b =
  match b.kind with
  | Fifo | Lifo ->
      for i = 0 to b.len - 1 do
        f b.pkts.(ring_slot b i)
      done
  | Keyed ->
      for i = 0 to b.len - 1 do
        f b.pkts.(i)
      done

let to_sorted_list b =
  match b.kind with
  | Fifo -> List.init b.len (fun i -> b.pkts.(ring_slot b i))
  | Lifo -> List.init b.len (fun i -> b.pkts.(ring_slot b (b.len - 1 - i)))
  | Keyed ->
      let order = Array.init b.len Fun.id in
      Array.sort
        (fun i j ->
          let c = Int.compare b.keys.(i) b.keys.(j) in
          if c <> 0 then c else Int.compare b.ties.(i) b.ties.(j))
        order;
      Array.to_list (Array.map (fun i -> b.pkts.(i)) order)

let arrivals b = b.seq
