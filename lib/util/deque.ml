(* Capacities are 0 or 8 * 2^k (see [grow]), so ring positions wrap with
   [land (cap - 1)] instead of an integer division. *)
type 'a t = {
  mutable data : 'a array;
  mutable head : int; (* index of the front element *)
  mutable len : int;
}

let create () = { data = [||]; head = 0; len = 0 }
let length d = d.len
let is_empty d = d.len = 0

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

let push_front d x =
  if d.len = Array.length d.data then grow d x;
  let cap = Array.length d.data in
  d.head <- (d.head + cap - 1) land (cap - 1);
  d.data.(d.head) <- x;
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

let peek_front d = if d.len = 0 then raise Not_found else d.data.(d.head)

let peek_back d =
  if d.len = 0 then raise Not_found
  else d.data.((d.head + d.len - 1) land (Array.length d.data - 1))

(* Option-returning variants: the engine's hot dequeue path must not use
   exceptions as control flow (raising allocates and defeats flambda). *)

let pop_front_opt d = if d.len = 0 then None else Some (pop_front d)
let pop_back_opt d = if d.len = 0 then None else Some (pop_back d)
let peek_front_opt d = if d.len = 0 then None else Some d.data.(d.head)

let peek_back_opt d =
  if d.len = 0 then None
  else Some d.data.((d.head + d.len - 1) land (Array.length d.data - 1))

let get d i =
  if i < 0 || i >= d.len then invalid_arg "Deque.get";
  d.data.((d.head + i) land (Array.length d.data - 1))

let iter f d =
  for i = 0 to d.len - 1 do
    f (get d i)
  done

let to_list d = List.init d.len (get d)

let clear d =
  d.len <- 0;
  d.head <- 0
