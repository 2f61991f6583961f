(* Hash-consing of route arrays.

   Adversaries in this codebase inject the same handful of routes thousands
   of times (every stock adversary cycles a fixed route list; the paper's
   pump/stitch schedules reuse the gadget's relay routes for whole phases).
   Before interning, [Network.inject] copied the route array per packet and
   re-validated it as a simple path — per-injection allocation and a
   per-injection [Hashtbl] inside [Digraph.route_is_simple].  The intern
   table maps route *contents* to one canonical immutable array, so all
   packets carrying the same route share storage and validation happens once
   per distinct route instead of once per packet.

   The canonical arrays must never be mutated in place.  Rerouted routes are
   interned too: [Network.reroute] assembles the rewritten route in a
   scratch array and interns it, so the packets of a Lemma 3.3 batch that
   end up with equal routes share one array, validated once.

   The table is open addressing with linear probing over a power-of-two
   slot array, at most half full.  A slot holds [Some canonical], built
   once when the route is added, so [find] returns the stored option and a
   lookup allocates nothing; [None] marks a vacant slot (the empty route
   cannot mark one: every [[||]] is one physical value, and it is a route
   like any other here).  Beside each slot the table keeps the route's
   hash, so a probe compares contents only when the hashes agree, and
   doubling the table re-slots every route without hashing it again. *)

(* Top-level so the comparison compiles to a plain recursive call: a local
   [let rec] would capture [a]/[b] in a closure allocated on every probe,
   which the hot lookup path cannot afford (without flambda the closure is
   not eliminated). *)
let rec arrays_equal_from (a : int array) b la i =
  i >= la
  || (Array.unsafe_get a i = Array.unsafe_get b i
     && arrays_equal_from a b la (i + 1))

(* Mix the length, the first few and the last two elements: routes in one
   run mostly differ in their first edge or their length, and capping the
   scan keeps hashing O(1) for the long relay routes of the gadget chains.
   Multiplicative-xor mixing plus a final avalanche: the slot is the hash's
   LOW bits, and additive schemes (h*31+x) collapse the arithmetic-
   progression routes of rings and chains — for routes (i, i+1, .., i+L)
   the 31-mix strides by a multiple of 64, which left a 1000-route table
   with 8 live buckets and ~125-long chains. *)
let hash (r : int array) =
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

type t = {
  mutable slots : int array option array;
  mutable hashes : int array;
  mutable count : int;
  mutable hits : int;
  mutable misses : int;
  (* The vacant slot at which the last missing [find], of [probed] with
     hash [probed_hash], stopped, or -1 once the table has changed since:
     an [add] of that same array inserts there without probing again. *)
  mutable probed : int array;
  mutable probed_hash : int;
  mutable probed_slot : int;
}

let initial_slots = 64

let create () =
  {
    slots = Array.make initial_slots None;
    hashes = Array.make initial_slots 0;
    count = 0;
    hits = 0;
    misses = 0;
    probed = [||];
    probed_hash = 0;
    probed_slot = -1;
  }

(* The slot holding [route]'s contents, or [lnot s] for the vacant slot [s]
   that ends its probe sequence (the table is never full).  The annotations
   matter: inferred polymorphic, [hashes.(i) = h] compiles to a [caml_equal]
   call per probe. *)
let rec probe (slots : int array option array) (hashes : int array) mask
    (h : int) (route : int array) i =
  match Array.unsafe_get slots i with
  | None -> lnot i
  | Some c ->
      if
        Array.unsafe_get hashes i = h
        && (c == route
           ||
           let n = Array.length c in
           n = Array.length route && arrays_equal_from c route n 0)
      then i
      else probe slots hashes mask h route ((i + 1) land mask)

let lookup t route h =
  let mask = Array.length t.slots - 1 in
  probe t.slots t.hashes mask h route (h land mask)

(* Doubling re-slots each route by its stored hash, in slot order. *)
let grow t =
  let slots = t.slots and hashes = t.hashes in
  let size = 2 * Array.length slots in
  let mask = size - 1 in
  let slots' = Array.make size None and hashes' = Array.make size 0 in
  for i = 0 to Array.length slots - 1 do
    match Array.unsafe_get slots i with
    | None -> ()
    | entry ->
        let h = Array.unsafe_get hashes i in
        let j = ref (h land mask) in
        while Option.is_some (Array.unsafe_get slots' !j) do
          j := (!j + 1) land mask
        done;
        slots'.(!j) <- entry;
        hashes'.(!j) <- h
  done;
  t.slots <- slots';
  t.hashes <- hashes'

(* A copy of [route] becomes canonical at slot [s]: vacant, or holding
   equal contents, which the copy replaces. *)
let store t s h route =
  let canonical = Array.copy route in
  if Option.is_none t.slots.(s) then t.count <- t.count + 1;
  t.slots.(s) <- Some canonical;
  t.hashes.(s) <- h;
  t.misses <- t.misses + 1;
  t.probed_slot <- -1;
  if 2 * t.count > Array.length t.slots then grow t;
  canonical

let find t route =
  let h = hash route in
  let s = lookup t route h in
  if s >= 0 then begin
    t.hits <- t.hits + 1;
    Array.unsafe_get t.slots s
  end
  else begin
    t.probed <- route;
    t.probed_hash <- h;
    t.probed_slot <- lnot s;
    None
  end

let add t route =
  let h = hash route in
  let s =
    if route == t.probed && t.probed_slot >= 0 && t.probed_hash = h then
      t.probed_slot
    else
      let s = lookup t route h in
      if s >= 0 then s else lnot s
  in
  store t s h route

let intern t route =
  let h = hash route in
  let s = lookup t route h in
  if s >= 0 then begin
    t.hits <- t.hits + 1;
    match Array.unsafe_get t.slots s with Some c -> c | None -> assert false
  end
  else store t (lnot s) h route

let distinct t = t.count
let hits t = t.hits
let misses t = t.misses

let stats t =
  Printf.sprintf "%d distinct routes, %d hits, %d misses" (distinct t) t.hits
    t.misses
