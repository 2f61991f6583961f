(* Seeded workload inputs and the in-process recomputations that check the
   daemon's answers.  Everything here is a pure function of the seed: the
   same seed gives the same pools, request order and route offsets. *)

module Prng = Aqt_util.Prng
module Ratio = Aqt_util.Ratio
module Jsonx = Aqt_util.Jsonx
module Build = Aqt_graph.Build
module Network = Aqt_engine.Network
module Backend = Aqt_engine.Backend
module Sim = Aqt_engine.Sim
module Route_intern = Aqt_engine.Route_intern
module Policies = Aqt_policy.Policies
module Stock = Aqt_adversary.Stock
module Capacity = Aqt_capacity.Model

(* ------------------------------------------------------------------ *)
(* /simulate                                                           *)
(* ------------------------------------------------------------------ *)

type sim = {
  ring : bool;
  size : int;
  hops : int;
  horizon : int;
  rate : int * int;
  policy : string;
  cap : (int * string * int) option;  (** capacity, drop policy, speedup *)
  stochastic : bool;
  seed : int;
}

let sim_policies = [| "fifo"; "lifo"; "lis"; "ntg"; "ftg" |]

(* One input of the /simulate mix: ring or line of 8-512 nodes, 2-8 hops,
   horizon 1000-5000, one of five policies, unbounded buffers or cap 2-8
   (drop-tail or drop-head, speedup 1-2), windowed or Bernoulli injection.
   Each choice is uniform and independent of the others.  The mix does not
   vary the rate: every input asks for the daemon's default, 1/4. *)
let free_sim rng =
  let range lo hi = lo + Prng.int rng (hi - lo + 1) in
  let ring = Prng.bool rng in
  let size = range 8 512 in
  let hops = range 2 8 in
  let horizon = range 1000 5000 in
  let policy = Prng.pick rng sim_policies in
  let cap =
    if Prng.bool rng then
      let c = range 2 8 in
      let drop = if Prng.bool rng then "drop-tail" else "drop-head" in
      Some (c, drop, range 1 2)
    else None
  in
  let stochastic = Prng.bool rng in
  { ring; size; hops; horizon; rate = (1, 4); policy; cap; stochastic; seed = Prng.int rng 0x3FFFFFFF }

(* Engine work an input asks for, in packet-hops: the windowed burst puts
   floor(40 r) packets per route in each 40-step window, the Bernoulli
   adversary r per route per step on average (r the per-route rate), and
   its coin flips, one per route per step, cost about a quarter hop each. *)
let sim_work s =
  let nroutes = if s.ring then s.size else s.size - min s.hops s.size + 1 in
  let d = min s.hops (if s.ring then s.size - 1 else s.size) in
  let num, den = s.rate in
  let k = den * max 1 (min s.hops nroutes) in
  if s.stochastic then
    float_of_int (d * nroutes * num * s.horizon) /. float_of_int k
    +. (float_of_int (nroutes * s.horizon) /. 4.)
  else float_of_int (d * nroutes * (40 * num / k) * ((s.horizon + 39) / 40))

(* The pools are cut from draws of this fixed seed, the same for every run:
   which inputs fill the work quantiles moved the pool's median compute
   time by half (54 ms for one draw, 33 ms for another), and even the
   Bernoulli inputs' own seeds alone moved it by a quarter (29.6 to 38.1 ms
   over five seeds, each input timed at its best of five).  A run-to-run
   comparison must measure neither, so the run's seed sets only the order
   of the requests. *)
let pool_seed = 0

(* The /simulate pool: one input per equal-probability stratum of the
   mix's engine work.  [sim_draw] inputs are drawn from the mix and sorted
   by work, and the input in the middle of each of [sim_pool_size] equal
   slices is taken, so the pool's work distribution is the mix's, quantile
   for quantile.  Seventy inputs: each pass of the open loop (7 req/s for
   10 s) sends each exactly once, so its latency sample holds every
   quantile whatever the order.  --smoke, which checks answers and not
   load, cuts every horizon to a 25th. *)
let sim_pool_size = 70
let sim_draw = 64 * sim_pool_size

let sim_pool ~smoke =
  let rng = Prng.create pool_seed in
  let draw = Array.init sim_draw (fun _ -> free_sim rng) in
  let keyed = Array.map (fun s -> (sim_work s, s)) draw in
  Array.stable_sort (fun (a, _) (b, _) -> Float.compare a b) keyed;
  Array.init sim_pool_size (fun i ->
      let s = snd keyed.((((2 * i) + 1) * sim_draw) / (2 * sim_pool_size)) in
      if smoke then { s with horizon = s.horizon / 25 } else s)

(* Pool indices in seeded order, every input once per pass. *)
let cycle rng n =
  let order = Array.init n Fun.id and k = ref n in
  fun () ->
    if !k = n then begin
      Prng.shuffle rng order;
      k := 0
    end;
    incr k;
    order.(!k - 1)

let sim_target s =
  let num, den = s.rate in
  Printf.sprintf "/simulate?network=%s:%d&d=%d&horizon=%d&rate=%d/%d&policy=%s%s&stochastic=%b&seed=%d"
    (if s.ring then "ring" else "line")
    s.size s.hops s.horizon num den s.policy
    (match s.cap with
    | None -> ""
    | Some (c, drop, speedup) -> Printf.sprintf "&cap=%d&drop=%s&speedup=%d" c drop speedup)
    s.stochastic s.seed

(* The daemon's network construction, mirrored: hop count is clamped to
   the topology, and the per-route rate divides by the requested hops. *)
let sim_net s =
  if s.ring then
    let r = Build.ring s.size in
    let d = min s.hops (s.size - 1) in
    ( r.Build.graph,
      List.init s.size (fun i -> Array.init d (fun j -> r.Build.edges.((i + j) mod s.size))) )
  else
    let l = Build.line s.size in
    let d = min s.hops s.size in
    (l.Build.graph, List.init (s.size - d + 1) (fun i -> Array.sub l.Build.edges i d))

let sim_capacity s =
  match s.cap with
  | None -> Capacity.unbounded
  | Some (c, drop, speedup) ->
      let policy = Option.get (Capacity.policy_of_string drop) in
      Capacity.uniform ~policy ~speedup c

type counters = {
  steps : int;
  injected : int;
  absorbed : int;
  in_flight : int;
  dropped : int;
  max_queue : int;
  max_dwell : int;
}

let counters_list c =
  [ c.steps; c.injected; c.absorbed; c.in_flight; c.dropped; c.max_queue; c.max_dwell ]

(* Recompute one /simulate input through Build, Stock, Network and
   Sim.run; the injection log lets the engine replays repeat the run. *)
let simulate_once s =
  let graph, routes = sim_net s in
  let num, den = s.rate in
  let rate = Ratio.make num den in
  let per_route = Ratio.div rate (Ratio.of_int (max 1 (min s.hops (List.length routes)))) in
  let adv =
    if s.stochastic then
      Stock.bernoulli ~prng:(Prng.create s.seed) ~rate:per_route ~routes ()
    else Stock.windowed_burst ~w:40 ~rate:per_route ~routes ~horizon:s.horizon ()
  in
  let net =
    Network.create ~log_injections:true ~capacity:(sim_capacity s) ~graph
      ~policy:(Policies.by_name s.policy) ()
  in
  let o = Sim.run ~net ~driver:adv.Stock.driver ~horizon:s.horizon () in
  ( {
      steps = o.Sim.steps_run;
      injected = Network.injected_count net;
      absorbed = Network.absorbed net;
      in_flight = Network.in_flight net;
      dropped = Network.dropped net;
      max_queue = Network.max_queue_ever net;
      max_dwell = Network.max_dwell net;
    },
    Network.injection_log net )

(* The serve oracle and a traced run's engine replays need the same
   recomputations; each input is computed once per process. *)
let simulated = Hashtbl.create 128

let simulate s =
  match Hashtbl.find_opt simulated s with
  | Some r -> r
  | None ->
      let r = simulate_once s in
      Hashtbl.add simulated s r;
      r

(* Replay an injection log on either backend; returns the counters and the
   wall time of [Backend.run_steps] alone. *)
let replay ~backend s ~steps log =
  let graph, _ = sim_net s in
  let b =
    Backend.create ~backend ~capacity:(sim_capacity s) ~graph
      ~policy:(Policies.by_name s.policy) ()
  in
  let at = Array.make (steps + 2) [] in
  for i = Array.length log - 1 downto 0 do
    let t, route = log.(i) in
    at.(t) <- { Backend.route; tag = "" } :: at.(t)
  done;
  let t0 = Spans.now () in
  Backend.run_steps b ~injections_at:(fun t -> if t < Array.length at then at.(t) else []) steps;
  let dt = Spans.now () -. t0 in
  let c =
    {
      steps = Backend.now b;
      injected = Backend.injected_count b;
      absorbed = Backend.absorbed b;
      in_flight = Backend.in_flight b;
      dropped = Backend.dropped b;
      max_queue = Backend.max_queue_ever b;
      max_dwell = Backend.max_dwell b;
    }
  in
  Backend.shutdown b;
  (c, dt)

(* Counters out of a daemon /simulate body. *)
let counters_of_body body =
  let j = Jsonx.of_string body in
  let i k = Jsonx.to_int (Jsonx.get k j) in
  {
    steps = i "steps";
    injected = i "injected";
    absorbed = i "absorbed";
    in_flight = i "in_flight";
    dropped = i "dropped";
    max_queue = i "max_queue";
    max_dwell = i "max_dwell";
  }

(* ------------------------------------------------------------------ *)
(* /sweep                                                              *)
(* ------------------------------------------------------------------ *)

type sweep = {
  w_size : int;
  w_d : int;
  w_horizon : int;
  w_rates : (int * int) list;
  w_policies : string list;
}

let sweep_rates = [| (1, 8); (1, 4); (1, 3); (1, 2); (2, 3); (3, 4) |]
let sweep_policies = [| "fifo"; "lifo"; "lis"; "ntg"; "ftg"; "nis" |]

(* [k] distinct elements of [a], in a seeded order. *)
let choose rng a k =
  let a = Array.copy a in
  Prng.shuffle rng a;
  Array.to_list (Array.sub a 0 k)

(* Sixteen sweep specs of eight or nine cells each, drawn with [pool_seed];
   horizons rotate through 5k..20k so any four consecutive specs cost about
   the same. *)
let sweep_pool_size = 16

let sweep_pool ~smoke =
  let rng = Prng.create pool_seed in
  let horizons = if smoke then [| 500 |] else [| 5000; 10000; 15000; 20000 |] in
  let offset = Prng.int rng (Array.length horizons) in
  Array.init sweep_pool_size (fun i ->
      let nrates = 2 + Prng.int rng 3 in
      {
        w_size = (if smoke then 8 + Prng.int rng 9 else 8 + Prng.int rng 121);
        w_d = 2 + Prng.int rng 7;
        w_horizon = horizons.((i + offset) mod Array.length horizons);
        w_rates = choose rng sweep_rates nrates;
        w_policies = choose rng sweep_policies (if nrates = 3 then 3 else 8 / nrates);
      })

let sweep_target w =
  Printf.sprintf "/sweep?network=ring:%d&d=%d&horizon=%d&rates=%s&policy=%s" w.w_size w.w_d
    w.w_horizon
    (String.concat "," (List.map (fun (p, q) -> Printf.sprintf "%d/%d" p q) w.w_rates))
    (String.concat "," w.w_policies)

let sweep_cells w =
  List.concat_map (fun p -> List.map (fun r -> (p, r)) w.w_rates) w.w_policies

(* One cell of the daemon's sweep grid, recomputed: the row it must
   report, via Sweep.classify on the same graph, routes and adversary. *)
let sweep_cell w (policy, (num, den)) =
  let s =
    {
      ring = true;
      size = w.w_size;
      hops = w.w_d;
      horizon = w.w_horizon;
      rate = (num, den);
      policy;
      cap = None;
      stochastic = false;
      seed = 0;
    }
  in
  let graph, routes = sim_net s in
  let rate = Ratio.make num den in
  let per_route = Ratio.div rate (Ratio.of_int (max 1 (List.length routes))) in
  let adv = Stock.shared_token_bucket ~rate:per_route ~routes ~horizon:w.w_horizon () in
  let adv = { adv with Stock.rate } in
  let policy = Policies.by_name policy in
  let r =
    Aqt.Sweep.classify ~route_table:(Route_intern.create ()) ~name:"serve.sweep" ~graph ~policy
      ~adversary:adv ~horizon:w.w_horizon ()
  in
  [
    policy.Aqt_engine.Policy_type.name;
    Ratio.to_string rate;
    Aqt.Sweep.verdict_to_string r.Aqt.Sweep.verdict;
    string_of_int r.Aqt.Sweep.max_queue;
    string_of_int r.Aqt.Sweep.final_backlog;
  ]

(* The table rows and the cached flag of a /sweep response body. *)
let sweep_of_body body =
  let j = Jsonx.of_string body in
  let rows =
    match Jsonx.to_list (Jsonx.get "items" (Jsonx.get "result" j)) with
    | item :: _ ->
        Jsonx.get "rows" (Jsonx.get "table" item)
        |> Jsonx.to_list
        |> List.map (fun r -> List.map Jsonx.to_str (Jsonx.to_list r))
    | [] -> []
  in
  (rows, Jsonx.to_bool (Jsonx.get "cached" j), Jsonx.to_string (Jsonx.get "result" j))

let harmonic n = List.fold_left (fun h k -> h +. (1. /. float_of_int k)) 0. (List.init n succ)

(* Zipf(1) over [n] ranks. *)
let zipf rng n =
  let u = Prng.float rng (harmonic n) in
  let rec go k acc =
    let acc = acc +. (1. /. float_of_int k) in
    if u < acc || k = n then k - 1 else go (k + 1) acc
  in
  go 1 0.

(* Expected number of distinct specs among [j] Zipf(1) draws over [n]:
   the sum over ranks k of 1 - (1 - p_k)^j, with p_k = 1 / (k H_n). *)
let expected_distinct n j =
  let h = harmonic n in
  List.fold_left
    (fun acc k -> acc +. 1. -. ((1. -. (1. /. (float_of_int k *. h))) ** float_of_int j))
    0. (List.init n succ)

(* Sweep spec indices.  Request [j] names a spec not asked for before (a
   cache miss) exactly when the rounded expected number of distinct specs
   among [j] Zipf(1) draws goes up, so misses come at the pace a Zipf(1)
   stream meets new specs, whatever the seed: requests 1, 2, 3, 5, 7, 9,
   11, 14, 18, 22, 27, 34, 42 and 55.  The other requests repeat a spec
   already seen, Zipf(1) by first-seen rank. *)
let sweep_sequence rng n =
  let seen = ref 0 and j = ref 0 in
  fun () ->
    incr j;
    if Float.round (expected_distinct n !j) > float_of_int !seen && !seen < n then begin
      incr seen;
      !seen - 1
    end
    else zipf rng !seen

(* ------------------------------------------------------------------ *)
(* Campaign and ring                                                   *)
(* ------------------------------------------------------------------ *)

(* Every registered experiment but e1 (34 s alone) and bench (bechamel,
   timing-dependent output).  The seven that dominate compute go first,
   longest first, so the two-job makespan does not swing with the seed;
   the seed permutes the rest. *)
let campaign_heavy = [ "a7"; "e10"; "a3"; "a4"; "e15"; "e5"; "a5" ]

let campaign_light =
  [|
    "f1"; "f2"; "e2"; "e3"; "e4"; "e6"; "e7"; "e8"; "e9"; "e11"; "e12"; "e13"; "e14"; "a1";
    "a2"; "a6"; "c1"; "c2"; "n1"; "n2"; "fab1"; "fab2";
  |]

let campaign_smoke = [| "f1"; "f2"; "e9"; "e13"; "e8" |]

let campaign_order ~smoke rng =
  let light = Array.copy (if smoke then campaign_smoke else campaign_light) in
  Prng.shuffle rng light;
  (if smoke then [] else campaign_heavy) @ Array.to_list light

(* Start edges of the ring workload's routes: route [i] sits inside the
   [i]-th block of [k / n] edges at a seeded offset, so no two routes
   share an edge and nothing ever queues. *)
let ring_starts rng ~k ~n ~hops =
  let block = k / n in
  let base = Prng.int rng k in
  Array.init n (fun i -> (base + (i * block) + Prng.int rng (block - hops + 1)) mod k)
