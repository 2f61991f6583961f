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
   end up with equal routes share one array, validated once. *)

(* Top-level so the comparison compiles to a plain recursive call: a local
   [let rec] would capture [a]/[b] in a closure allocated on every probe,
   which the hot lookup path cannot afford (without flambda the closure is
   not eliminated). *)
let rec arrays_equal_from (a : int array) b la i =
  i >= la
  || (Array.unsafe_get a i = Array.unsafe_get b i
     && arrays_equal_from a b la (i + 1))

module H = Hashtbl.Make (struct
  type t = int array

  let equal a b =
    a == b
    ||
    let la = Array.length a in
    la = Array.length b && arrays_equal_from a b la 0

  (* Mix the length, the first few and the last two elements: routes in one
     run mostly differ in their first edge or their length, and capping the
     scan keeps hashing O(1) for the long relay routes of the gadget
     chains.  Multiplicative-xor mixing plus a final avalanche: Hashtbl
     buckets by the LOW bits of the hash, and additive schemes (h*31+x)
     collapse the arithmetic-progression routes of rings and chains — for
     routes (i, i+1, .., i+L) the 31-mix strides by a multiple of 64, which
     left a 1000-route table with 8 live buckets and ~125-long chains. *)
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

type t = { table : int array H.t; mutable hits : int; mutable misses : int }

let create () = { table = H.create 64; hits = 0; misses = 0 }

let find t route =
  match H.find_opt t.table route with
  | Some _ as hit ->
      t.hits <- t.hits + 1;
      hit
  | None -> None

let add t route =
  let canonical = Array.copy route in
  H.add t.table canonical canonical;
  t.misses <- t.misses + 1;
  canonical

let intern t route =
  match H.find_opt t.table route with
  | Some c ->
      t.hits <- t.hits + 1;
      c
  | None -> add t route

let distinct t = H.length t.table
let hits t = t.hits
let misses t = t.misses

let stats t =
  Printf.sprintf "%d distinct routes, %d hits, %d misses" (distinct t) t.hits
    t.misses
