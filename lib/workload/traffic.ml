module Prng = Aqt_util.Prng
module Ratio = Aqt_util.Ratio
module Boxed_array = Aqt_util.Boxed_array
module Build = Aqt_graph.Build

type pattern =
  | Permutation
  | Incast of { senders : int }
  | All_to_all
  | Hotspot of { hot_num : int; hot_den : int }

let pattern_name = function
  | Permutation -> "permutation"
  | Incast { senders } -> Printf.sprintf "incast(%d)" senders
  | All_to_all -> "all-to-all"
  | Hotspot { hot_num; hot_den } ->
      Printf.sprintf "hotspot(%d/%d)" hot_num hot_den

type spec = {
  pattern : pattern;
  conns_per_pair : int;
  utilisation : Ratio.t;
  flow_cdf : (int * int) list;
  horizon : int;
  seed : int;
}

(* Flow sizes in packets, heavy-tailed in the spirit of the web-search
   CDFs the shared-buffer literature simulates (most flows are a few
   packets, a thin tail is orders of magnitude larger).  Weights are
   cumulative percentages. *)
let default_cdf = [ (30, 1); (55, 2); (75, 4); (88, 8); (96, 24); (100, 96) ]

(* A short-flow CDF for small conformance scenarios, so route diversity
   (one ECMP draw per flow) shows up within a tiny horizon. *)
let short_cdf = [ (60, 1); (90, 2); (100, 4) ]

type flow = {
  pair : int;
  conn : int;
  index : int;
  size : int;
  start : int;
  route : int array;
}

type compiled = {
  spec : spec;
  pairs : (int * int) array;
  conn_rate : Ratio.t;
  bottleneck : int;
  rate : Ratio.t;
  sigmas : int array;
  flows : flow array;
  packets : int;
  schedule : int array list array;
}

let validate_spec spec =
  if spec.conns_per_pair < 1 then
    invalid_arg "Traffic.compile: conns_per_pair must be >= 1";
  if spec.horizon < 1 then invalid_arg "Traffic.compile: horizon must be >= 1";
  if Ratio.(spec.utilisation <= Ratio.zero) then
    invalid_arg "Traffic.compile: utilisation must be positive";
  if spec.flow_cdf = [] then invalid_arg "Traffic.compile: empty flow CDF";
  let rec check prev = function
    | [] -> ()
    | (w, size) :: tl ->
        if w <= prev then
          invalid_arg "Traffic.compile: flow CDF weights must increase";
        if size < 1 then
          invalid_arg "Traffic.compile: flow sizes must be >= 1";
        check w tl
  in
  check 0 spec.flow_cdf;
  (match spec.pattern with
  | Incast { senders } ->
      if senders < 1 then
        invalid_arg "Traffic.compile: incast needs at least one sender"
  | Hotspot { hot_num; hot_den } ->
      if hot_den < 1 || hot_num < 0 || hot_num > hot_den then
        invalid_arg "Traffic.compile: hotspot fraction must be in [0, 1]"
  | Permutation | All_to_all -> ())

let draw_cdf prng cdf =
  let total = List.fold_left (fun _ (w, _) -> w) 0 cdf in
  let r = Prng.int prng total in
  let rec pick = function
    | [] -> assert false
    | (w, size) :: tl -> if r < w then size else pick tl
  in
  pick cdf

(* Sender/receiver pairs, seeded.  The permutation is one uniform random
   cycle over all hosts (shuffled.(i) -> shuffled.(i+1)) — a fixed-point
   free permutation in a single draw.  Hotspot keeps the permutation as
   its background and redirects each non-hot sender to the hot host with
   probability hot_num/hot_den. *)
let draw_pairs prng pattern n_hosts =
  if n_hosts < 2 then
    invalid_arg "Traffic.compile: need at least two hosts";
  let order = Array.init n_hosts Fun.id in
  Prng.shuffle prng order;
  match pattern with
  | Permutation ->
      Boxed_array.init n_hosts (fun i ->
          (order.(i), order.((i + 1) mod n_hosts)))
  | Incast { senders } ->
      let dst = order.(0) in
      let s = min senders (n_hosts - 1) in
      Boxed_array.init s (fun i -> (order.(i + 1), dst))
  | All_to_all ->
      let pairs = ref [] in
      for i = n_hosts - 1 downto 0 do
        for j = n_hosts - 1 downto 0 do
          if i <> j then pairs := (i, j) :: !pairs
        done
      done;
      Boxed_array.of_list !pairs
  | Hotspot { hot_num; hot_den } ->
      let hot = order.(0) in
      Boxed_array.init n_hosts (fun i ->
          let s = order.(i) and next = order.((i + 1) mod n_hosts) in
          if s <> hot && Prng.bernoulli prng ~num:hot_num ~den:hot_den then
            (s, hot)
          else (s, next))

let compile ~n_hosts ~m ~(routes : src:int -> dst:int -> int array array) spec
    =
  validate_spec spec;
  let prng = Prng.create spec.seed in
  let pairs = draw_pairs (Prng.split prng) spec.pattern n_hosts in
  let cpp = spec.conns_per_pair in
  (* Shape arrivals to the target utilisation of the busiest host access
     link: every route of a pair starts on the sender's uplink and ends
     on the receiver's downlink, so those per-host connection counts are
     exact whatever ECMP picks in the middle. *)
  let upl = Array.make n_hosts 0 and dnl = Array.make n_hosts 0 in
  Array.iter
    (fun (s, r) ->
      upl.(s) <- upl.(s) + cpp;
      dnl.(r) <- dnl.(r) + cpp)
    pairs;
  let bottleneck =
    max (Array.fold_left max 1 upl) (Array.fold_left max 1 dnl)
  in
  let conn_rate =
    Ratio.min Ratio.one
      (Ratio.div spec.utilisation (Ratio.of_int bottleneck))
  in
  (* Per-conn pacing is a floor-of-fluid token bucket: packets released
     by the end of step t number floor(conn_rate * t), so any interval
     of any length carries at most conn_rate * len + 1 of them, and any
     subsequence (the packets of the flows ECMP happens to route over
     one edge) at most the same.  Summing over the connections whose
     candidate routes can cross an edge gives the declared per-edge
     budget below, which Rate_check.check_local re-verifies. *)
  let released t = Ratio.floor_mul conn_rate t in
  let k = Array.make m 0 in
  let flows = ref [] and n_flows = ref 0 in
  let schedule = Array.make spec.horizon [] in
  let total_packets = ref 0 in
  Array.iteri
    (fun pair (src, dst) ->
      let candidates = routes ~src ~dst in
      let seen = Array.make m false in
      Array.iter
        (fun route ->
          Array.iter (fun e -> seen.(e) <- true) route)
        candidates;
      for conn = 0 to cpp - 1 do
        Array.iteri (fun e s -> if s then k.(e) <- k.(e) + 1) seen;
        let c_global = (pair * cpp) + conn in
        let sizes = Prng.stream prng (c_global + 1) in
        let budget = released spec.horizon in
        total_packets := !total_packets + budget;
        (* Partition this connection's packet stream into flows; each
           flow draws its size from the CDF and its route from the
           seeded ECMP hash. *)
        let flow_of = Array.make budget [||] in
        let filled = ref 0 and index = ref 0 in
        while !filled < budget do
          let size = min (draw_cdf sizes spec.flow_cdf) (budget - !filled) in
          let route =
            candidates.(Build.ecmp_index ~seed:spec.seed ~src ~dst
                          ~flow:((c_global * 8191) + !index)
                          (Array.length candidates))
          in
          (* start is patched once release times are known. *)
          flows :=
            { pair; conn; index = !index; size; start = 0; route } :: !flows;
          incr n_flows;
          for i = !filled to !filled + size - 1 do
            flow_of.(i) <- route
          done;
          filled := !filled + size;
          incr index
        done;
        for t = 1 to spec.horizon do
          let from = released (t - 1) and until = released t in
          for i = from to until - 1 do
            schedule.(t - 1) <- flow_of.(i) :: schedule.(t - 1)
          done
        done
      done)
    pairs;
  (* Steps were built by prepending; restore pair order within a step. *)
  let schedule = Boxed_array.map List.rev schedule in
  (* Patch flow start times: packet p of a connection releases at the
     first t with released(t) > p. *)
  let flows = Boxed_array.of_list (List.rev !flows) in
  let flows =
    let cursor = Hashtbl.create 16 in
    Boxed_array.map
      (fun f ->
        let key = (f.pair, f.conn) in
        let offset =
          match Hashtbl.find_opt cursor key with Some o -> o | None -> 0
        in
        Hashtbl.replace cursor key (offset + f.size);
        let rec first_release t =
          if released t > offset then t else first_release (t + 1)
        in
        { f with start = first_release 1 })
      flows
  in
  let k_max = Array.fold_left max 1 k in
  let rate = Ratio.mul conn_rate (Ratio.of_int k_max) in
  {
    spec;
    pairs;
    conn_rate;
    bottleneck;
    rate;
    sigmas = k;
    flows;
    packets = !total_packets;
    schedule;
  }

let describe c =
  Printf.sprintf
    "%s: %d pairs x %d conns, util %s of bottleneck %d -> conn rate %s, %d \
     flows, %d packets over %d steps (rho=%s, sigma_max=%d)"
    (pattern_name c.spec.pattern) (Array.length c.pairs)
    c.spec.conns_per_pair
    (Ratio.to_string c.spec.utilisation)
    c.bottleneck
    (Ratio.to_string c.conn_rate)
    (Array.length c.flows) c.packets c.spec.horizon (Ratio.to_string c.rate)
    (Array.fold_left max 0 c.sigmas)

let to_workload ~name ~graph c =
  let seen = Hashtbl.create 64 in
  let routes = ref [] in
  Array.iter
    (fun f ->
      let key = Array.to_list f.route in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        routes := f.route :: !routes
      end)
    c.flows;
  let routes = List.rev !routes in
  let d =
    List.fold_left (fun acc r -> max acc (Array.length r)) 0 routes
  in
  { Workloads.name; graph; routes; d }
