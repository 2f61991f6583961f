(* Every field is mutable so the network's packet pool can reinitialise a
   recycled record in place; outside [Network.fresh_packet] the identity
   fields (id, injected_at, initial, exogenous, tag) behave as immutable. *)
type t = {
  mutable id : int;
  mutable injected_at : int;
  mutable initial : bool;
  mutable exogenous : bool;
  mutable tag : string;
  mutable route : int array;
  mutable hop : int;
  mutable buffered_at : int;
  mutable reroutes : int;
}

let next_edge p =
  if p.hop >= Array.length p.route then None else Some p.route.(p.hop)

let current_edge p =
  if p.hop >= Array.length p.route then
    invalid_arg "Packet.current_edge: packet is absorbed"
  else p.route.(p.hop)

let remaining p = Array.length p.route - p.hop

let rec equal_from (route : int array) hop (expected : int array) i =
  i >= Array.length expected
  || (route.(hop + i) = expected.(i) && equal_from route hop expected (i + 1))

let remaining_equals p expected =
  remaining p = Array.length expected && equal_from p.route p.hop expected 0

let traversed p = p.hop
let is_absorbed p = p.hop >= Array.length p.route

let pp fmt p =
  Format.fprintf fmt "#%d[%s inj=%d hop=%d/%d]" p.id p.tag p.injected_at p.hop
    (Array.length p.route)
