module Ratio = Aqt_util.Ratio
module Workloads = Aqt_workload.Workloads
module Traffic = Aqt_workload.Traffic
module Model = Aqt_capacity.Model
module Stock = Aqt_adversary.Stock

module type TOKEN = sig
  type t

  val of_string : string -> (t, string) result
  val to_string : t -> string
end

let errorf fmt = Printf.ksprintf (fun m -> Error m) fmt
let fields s = String.split_on_char ':' (String.trim s)

module Rate = struct
  type t = Ratio.t

  let of_string s =
    let s = String.trim s in
    if String.contains s '/' then
      match List.map int_of_string (String.split_on_char '/' s) with
      | [ p; q ] when q <> 0 -> Ok (Ratio.make p q)
      | _ | (exception Failure _) -> errorf "bad rational %S" s
    else
      match float_of_string_opt s with
      | Some f when Float.is_finite f -> Ok (Ratio.of_float_approx f)
      | _ -> errorf "bad rate %S" s

  let to_string = Ratio.to_string
end

module Policy = struct
  type t = Aqt_engine.Policy_type.t

  let of_string s =
    let s = String.trim s in
    try Ok (Aqt_policy.Policies.by_name s)
    with Not_found -> errorf "unknown policy %S" s

  let to_string (p : t) = p.name
end

module Network = struct
  type t = Line of int | Ring of int

  let of_string s =
    match fields s with
    | [ ("line" | "ring") as kind; k ] -> (
        match int_of_string_opt k with
        | Some k -> Ok (if kind = "line" then Line k else Ring k)
        | None -> errorf "network %S: bad size" s)
    | _ -> errorf "unknown network %S (line:K | ring:K)" s

  let to_string = function
    | Line k -> Printf.sprintf "line:%d" k
    | Ring k -> Printf.sprintf "ring:%d" k

  let size (Line k | Ring k) = k

  let buildable n =
    let lo = match n with Line _ -> 1 | Ring _ -> 2 in
    if size n >= lo then Ok n
    else errorf "network %S: size must be at least %d" (to_string n) lo
end

module Topology = struct
  type t = Scenario.topo

  let of_string s =
    match fields s with
    | [ "spine-leaf"; dims ] -> (
        match String.split_on_char ',' dims with
        | [ _; _; _ ] as dims -> (
            match List.map int_of_string dims with
            | [ spines; leaves; hosts_per_leaf ]
              when min spines (min leaves hosts_per_leaf) >= 1 ->
                (* Traffic pairs distinct hosts, so it needs two. *)
                if leaves = 1 && hosts_per_leaf = 1 then
                  errorf "topology %S: L x H must be >= 2" s
                else Ok (Scenario.Spine_leaf { spines; leaves; hosts_per_leaf })
            | _ -> errorf "topology %S: S, L and H must each be at least 1" s
            | exception Failure _ -> Error "bad spine-leaf dims")
        | _ -> Error "spine-leaf wants SPINES,LEAVES,HOSTS")
    | [ "fat-tree"; k ] -> (
        match int_of_string_opt k with
        | Some k when k >= 2 && k mod 2 = 0 -> Ok (Scenario.Fat_tree { k })
        | Some _ -> errorf "topology %S: K must be even, at least 2" s
        | None -> Error "bad fat-tree arity")
    | _ -> errorf "unknown topology %S (spine-leaf:S,L,H | fat-tree:K)" s

  let to_string : t -> string = function
    | Spine_leaf { spines; leaves; hosts_per_leaf } ->
        Printf.sprintf "spine-leaf:%d,%d,%d" spines leaves hosts_per_leaf
    | Fat_tree { k } -> Printf.sprintf "fat-tree:%d" k
end

module Pattern = struct
  type t = Traffic.pattern

  let of_string s =
    match fields s with
    | [ "permutation" ] -> Ok Traffic.Permutation
    | [ "all-to-all" ] -> Ok Traffic.All_to_all
    | [ "incast"; n ] -> (
        match int_of_string_opt n with
        | Some senders when senders >= 1 -> Ok (Traffic.Incast { senders })
        | Some _ -> errorf "pattern %S: N must be at least 1" s
        | None -> Error "bad incast sender count")
    | [ "hotspot"; f ] -> (
        match String.split_on_char '/' f with
        | [ _; _ ] as f -> (
            match List.map int_of_string f with
            | [ hot_num; hot_den ] when 0 <= hot_num && hot_num <= hot_den
                                         && hot_den >= 1 ->
                Ok (Traffic.Hotspot { hot_num; hot_den })
            | _ -> errorf "pattern %S: N/D must be in [0, 1]" s
            | exception Failure _ -> Error "bad hotspot fraction")
        | _ -> Error "hotspot wants N/D")
    | _ ->
        errorf
          "unknown pattern %S (permutation | incast:N | all-to-all | \
           hotspot:N/D)"
          s

  let to_string : t -> string = function
    | Permutation -> "permutation"
    | All_to_all -> "all-to-all"
    | Incast { senders } -> Printf.sprintf "incast:%d" senders
    | Hotspot { hot_num; hot_den } ->
        Printf.sprintf "hotspot:%d/%d" hot_num hot_den
end

module Capacity = struct
  type t = Model.t

  let of_string s =
    (* A size that does not parse and one [Model] rejects (negative, or a
       zero alpha) read the same. *)
    let build msg f =
      try Ok (f ()) with Failure _ | Invalid_argument _ -> Error msg
    in
    match fields s with
    | [ "unbounded" ] -> Ok Model.unbounded
    | [ "uniform"; k ] ->
        build "bad uniform capacity" (fun () -> Model.uniform (int_of_string k))
    | [ "shared"; total ] ->
        build "bad shared total" (fun () -> Model.shared (int_of_string total))
    | [ "shared"; total; alpha ] -> (
        match String.split_on_char '/' alpha with
        | [ a; b ] ->
            build "bad shared capacity" (fun () ->
                Model.shared ~alpha_num:(int_of_string a)
                  ~alpha_den:(int_of_string b) (int_of_string total))
        | _ -> Error "alpha wants N/D")
    | _ ->
        errorf
          "unknown capacity %S (unbounded | uniform:K | shared:TOTAL | \
           shared:TOTAL:A/B)"
          s

  let to_string (c : t) =
    match (c.buffers, c.speedup) with
    | Unbounded, 1 -> "unbounded"
    | Uniform { cap; policy = Drop_tail }, 1 -> Printf.sprintf "uniform:%d" cap
    | Shared { total; alpha_num = 1; alpha_den = 1 }, 1 ->
        Printf.sprintf "shared:%d" total
    | Shared { total; alpha_num; alpha_den }, 1 ->
        Printf.sprintf "shared:%d:%d/%d" total alpha_num alpha_den
    | _ -> Model.describe c
end

module Backend = struct
  type t = [ `Record | `Soa of int ]

  let engine s =
    match String.trim s with
    | "record" -> Ok `Record
    | "soa" -> Ok `Soa
    | _ -> errorf "unknown backend %S (record|soa)" s

  let with_domains d = function
    | `Soa when d < 1 -> errorf "domain count %d must be at least 1" d
    | `Soa -> Ok (`Soa d)
    | `Record -> Ok `Record

  let of_string s =
    match fields s with
    | [ "soa"; d ] when Option.is_some (int_of_string_opt d) ->
        with_domains (int_of_string d) `Soa
    | [ e ] -> Result.bind (engine e) (with_domains 1)
    | _ -> errorf "unknown backend %S (record|soa)" s

  let to_string = function
    | `Record -> "record"
    | `Soa d -> Printf.sprintf "soa:%d" d
end

let workload ~d : Network.t -> Workloads.t = function
  | _ when d < 1 -> invalid_arg "Scenario_spec.workload: d must be >= 1"
  | Line k -> Workloads.line_windows ~hops:k ~d:(min d k)
  | Ring k -> Workloads.ring_wrap ~nodes:k ~d:(min d (k - 1))

let route_count ~d : Network.t -> int = function
  | Line k -> k - min d k + 1
  | Ring k -> k

type simulation = {
  workload : Workloads.t;
  adversary : string;
  net : Aqt_engine.Network.t;
  steps : int;
}

let simulate ~capacity ~network ~d ~policy ~rate ~horizon ~stochastic ~seed =
  let w = workload ~d network in
  let routes = w.routes in
  let per_route =
    Ratio.div rate (Ratio.of_int (max 1 (min d (List.length routes))))
  in
  let adv =
    if stochastic then
      Stock.bernoulli ~prng:(Aqt_util.Prng.create seed) ~rate:per_route ~routes
        ()
    else Stock.windowed_burst ~w:40 ~rate:per_route ~routes ~horizon ()
  in
  let net = Aqt_engine.Network.create ~capacity ~graph:w.graph ~policy () in
  let outcome = Aqt_engine.Sim.run ~net ~driver:adv.driver ~horizon () in
  { workload = w; adversary = adv.name; net; steps = outcome.steps_run }

(* Each of [routes] routes runs at [r / routes], which must be in (0, 1]. *)
let rate_over ~routes r =
  let routes = max 1 routes in
  if Ratio.(r <= zero) then errorf "rate %s must be positive" (Ratio.to_string r)
  else if Ratio.(r > of_int routes) then
    errorf "rate %s over %d route%s exceeds one packet per route per step"
      (Ratio.to_string r) routes
      (if routes = 1 then "" else "s")
  else Ok ()

let sweep_rates ~routes rates =
  List.fold_left
    (fun acc r -> Result.bind acc (fun () -> rate_over ~routes r))
    (Ok ()) rates

let simulate_rate ~network ~d rate =
  rate_over ~routes:(min d (route_count ~d network)) rate

let sweep_headers = [ "policy"; "rate"; "verdict"; "max queue"; "final backlog" ]

let sweep_cell ~route_table (w : Workloads.t) ~policy ~rate ~horizon =
  let per_route =
    Ratio.div rate (Ratio.of_int (max 1 (List.length w.routes)))
  in
  let adv =
    Stock.shared_token_bucket ~rate:per_route ~routes:w.routes ~horizon ()
  in
  let r =
    Aqt.Sweep.classify ~route_table ~name:w.name ~graph:w.graph ~policy
      ~adversary:{ adv with rate } ~horizon ()
  in
  [
    r.policy;
    Ratio.to_string rate;
    Aqt.Sweep.verdict_to_string r.verdict;
    string_of_int r.max_queue;
    string_of_int r.final_backlog;
  ]

(* One intern table for the whole grid: every cell runs the same routes on
   the same graph, so each route is validated once per sweep. *)
let sweep (w : Workloads.t) ~policies ~rates ~horizon =
  let route_table = Aqt_engine.Route_intern.create () in
  List.concat_map
    (fun policy ->
      List.map
        (fun rate -> sweep_cell ~route_table w ~policy ~rate ~horizon)
        rates)
    policies
