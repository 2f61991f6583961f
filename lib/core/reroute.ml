module Network = Aqt_engine.Network
module Packet = Aqt_engine.Packet
module Ratio = Aqt_util.Ratio

type error =
  | Policy_not_historic of string
  | No_shared_edge
  | Stale_edge of { edge : int; last_used : int; threshold : int }
  | Packet_absorbed of int
  | Invalid_path of string

let pp_error fmt = function
  | Policy_not_historic name ->
      Format.fprintf fmt "policy %s is not historic (Def 3.1)" name
  | No_shared_edge ->
      Format.fprintf fmt "packets do not share a common route edge"
  | Stale_edge { edge; last_used; threshold } ->
      Format.fprintf fmt
        "edge %d is not new (Def 3.2): last injected at %d, threshold %d" edge
        last_used threshold
  | Packet_absorbed id -> Format.fprintf fmt "packet #%d already absorbed" id
  | Invalid_path msg -> Format.fprintf fmt "invalid path: %s" msg

let ( let* ) r f = Result.bind r f

let check_new_edges ~rate net suffix =
  (* Def 3.2: new edges must be absent from every route injected at time
     tau >= t* - ceil(1/r). *)
  let t_star = Network.min_injection_time_in_flight net in
  let threshold = t_star - Ratio.ceil (Ratio.inv rate) in
  let rec go i =
    if i >= Array.length suffix then Ok ()
    else begin
      let e = suffix.(i) in
      let last_used = Network.last_injection_on net e in
      if last_used >= threshold then Error (Stale_edge { edge = e; last_used; threshold })
      else go (i + 1)
    end
  in
  go 0

(* Packets that share a route array and a hop get the same rewrite.  Routes
   are interned, so that is every packet of one injected route waiting at
   one edge: a Lemma 3.3 batch of thousands of packets falls into a few
   dozen groups, and the checks and array building below run once per
   group instead of once per packet. *)
type group = {
  route : int array;
  hop : int;
  first : int; (* id of the group's first packet, for error messages *)
  mutable tail : int array; (* the rewritten route beyond the next edge *)
}

let rec find_group (p : Packet.t) = function
  | [] -> None
  | g :: rest ->
      if g.route == p.route && g.hop = p.hop then Some g else find_group p rest

(* The groups in order of first appearance, and each packet paired with its
   group, in list order. *)
let group_packets packets =
  let groups = ref [] in
  let assign (p : Packet.t) =
    match find_group p !groups with
    | Some g -> (p, g)
    | None ->
        let g = { route = p.route; hop = p.hop; first = p.id; tail = [||] } in
        groups := g :: !groups;
        (p, g)
  in
  let assigned = List.map assign packets in
  (List.rev !groups, assigned)

let rec mem_from (route : int array) e i =
  i < Array.length route && (route.(i) = e || mem_from route e (i + 1))

(* Some edge of the first remaining route lies on every remaining route. *)
let shared_edge_exists = function
  | [] -> true
  | first :: rest ->
      let rec from i =
        i < Array.length first.route
        && (List.for_all (fun g -> mem_from g.route first.route.(i) g.hop) rest
           || from (i + 1))
      in
      from first.hop

let extend_all ~rate net ~packets ~suffix =
  if packets = [] || Array.length suffix = 0 then Ok ()
  else begin
    let policy = Network.policy net in
    let* () =
      if policy.historic then Ok () else Error (Policy_not_historic policy.name)
    in
    let* () =
      match List.find_opt Packet.is_absorbed packets with
      | Some p -> Error (Packet_absorbed p.id)
      | None -> Ok ()
    in
    let groups, assigned = group_packets packets in
    let* () =
      if shared_edge_exists groups then Ok () else Error No_shared_edge
    in
    let* () = check_new_edges ~rate net suffix in
    (* Validate every extension before mutating anything.  Groups are in
       first-appearance order, so the first failing group names the first
       failing packet. *)
    let graph = Network.graph net in
    let* () =
      let rec validate = function
        | [] -> Ok ()
        | g :: rest ->
            let route = Array.append g.route suffix in
            if Aqt_graph.Digraph.route_is_simple graph route then begin
              (* Network.reroute replaces everything beyond the next edge:
                 keep the old remainder and append the suffix. *)
              g.tail <-
                Array.sub route (g.hop + 1) (Array.length route - g.hop - 1);
              validate rest
            end
            else
              Error
                (Invalid_path
                   (Format.asprintf "packet #%d: %a" g.first
                      (Aqt_graph.Digraph.pp_route graph)
                      route))
      in
      validate groups
    in
    List.iter (fun (p, g) -> Network.reroute net p g.tail) assigned;
    Ok ()
  end
