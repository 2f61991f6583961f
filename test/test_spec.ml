(* The scenario vocabulary: every token parses what it prints, rejects
   malformed and out-of-range strings with an exact message, and the two
   shared runs build exactly what the command line and the daemon each
   built inline before. *)

module Ratio = Aqt_util.Ratio
module Prng = Aqt_util.Prng
module Build = Aqt_graph.Build
module D = Aqt_graph.Digraph
module Network = Aqt_engine.Network
module Sim = Aqt_engine.Sim
module Policies = Aqt_policy.Policies
module Stock = Aqt_adversary.Stock
module Traffic = Aqt_workload.Traffic
module Model = Aqt_capacity.Model
module Scenario = Aqt_fabric.Scenario
module Spec = Aqt_fabric.Scenario_spec

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Round trips                                                         *)
(* ------------------------------------------------------------------ *)

(* Leading and trailing blanks that every [of_string] trims. *)
let pad =
  QCheck.Gen.(
    let blank = string_size ~gen:(oneofl [ ' '; '\t'; '\n' ]) (int_bound 3) in
    pair blank blank)

(* [of_string (to_string x) = Ok x], with and without padding. *)
let round_trip (type a) ~name ~count ~eq (module T : Spec.TOKEN with type t = a)
    (gen : a QCheck.Gen.t) =
  QCheck.Test.make ~name ~count
    (QCheck.make
       ~print:(fun (x, (l, r)) -> Printf.sprintf "%S" (l ^ T.to_string x ^ r))
       QCheck.Gen.(pair gen pad))
    (fun (x, (l, r)) ->
      let back s = match T.of_string s with Ok y -> eq x y | Error _ -> false in
      back (T.to_string x) && back (l ^ T.to_string x ^ r))

let prop_rate =
  round_trip ~name:"rate round-trips" ~count:500 ~eq:Ratio.equal
    (module Spec.Rate)
    QCheck.Gen.(
      map2 Ratio.make (int_range (-1_000_000_000) 1_000_000_000)
        (int_range 1 1_000_000))

let prop_policy =
  round_trip ~name:"policy round-trips" ~count:50 ~eq:( == )
    (module Spec.Policy)
    (QCheck.Gen.oneofl (Policies.sis :: Policies.all_deterministic))

let prop_network =
  round_trip ~name:"network round-trips" ~count:300 ~eq:( = )
    (module Spec.Network)
    QCheck.Gen.(
      map2
        (fun line k -> if line then Spec.Network.Line k else Spec.Network.Ring k)
        bool small_signed_int)

let prop_topology =
  round_trip ~name:"topology round-trips" ~count:300 ~eq:( = )
    (module Spec.Topology)
    QCheck.Gen.(
      oneof
        [
          map3
            (fun spines leaves hosts_per_leaf ->
              (* One leaf of one host is rejected: traffic needs two. *)
              let hosts_per_leaf =
                if leaves = 1 then max 2 hosts_per_leaf else hosts_per_leaf
              in
              Scenario.Spine_leaf { spines; leaves; hosts_per_leaf })
            (int_range 1 64) (int_range 1 64) (int_range 1 64);
          map (fun h -> Scenario.Fat_tree { k = 2 * h }) (int_range 1 32);
        ])

let prop_pattern =
  round_trip ~name:"pattern round-trips" ~count:300 ~eq:( = )
    (module Spec.Pattern)
    QCheck.Gen.(
      oneof
        [
          return Traffic.Permutation;
          return Traffic.All_to_all;
          map (fun senders -> Traffic.Incast { senders }) (int_range 1 1000);
          (int_range 1 1000 >>= fun hot_den ->
           map
             (fun hot_num -> Traffic.Hotspot { hot_num; hot_den })
             (int_range 0 hot_den));
        ])

let prop_capacity =
  round_trip ~name:"capacity round-trips" ~count:300 ~eq:( = )
    (module Spec.Capacity)
    QCheck.Gen.(
      oneof
        [
          return Model.unbounded;
          map Model.uniform (int_range 0 10_000);
          map Model.shared (int_range 0 10_000);
          map3
            (fun total alpha_num alpha_den ->
              Model.shared ~alpha_num ~alpha_den total)
            (int_range 0 10_000) (int_range 1 16) (int_range 1 16);
        ])

let prop_backend =
  round_trip ~name:"backend round-trips" ~count:100 ~eq:( = )
    (module Spec.Backend)
    QCheck.Gen.(
      oneof [ return `Record; map (fun d -> `Soa d) (int_range 1 64) ])

(* ------------------------------------------------------------------ *)
(* Exact errors                                                        *)
(* ------------------------------------------------------------------ *)

let rejects (type a) (module T : Spec.TOKEN with type t = a) cases () =
  List.iter
    (fun (input, msg) ->
      match T.of_string input with
      | Ok x ->
          Alcotest.failf "%S parsed as %S, expected an error" input
            (T.to_string x)
      | Error got -> check_string (Printf.sprintf "error for %S" input) msg got)
    cases

let rate_rejects =
  rejects
    (module Spec.Rate)
    [
      ("one/two", {|bad rational "one/two"|});
      ("1/0", {|bad rational "1/0"|});
      ("1/2/3", {|bad rational "1/2/3"|});
      (" 1 /2", {|bad rational "1 /2"|});
      ("", {|bad rate ""|});
      ("fast", {|bad rate "fast"|});
      ("inf", {|bad rate "inf"|});
      ("-infinity", {|bad rate "-infinity"|});
      (" nan ", {|bad rate "nan"|});
    ]

let policy_rejects =
  rejects
    (module Spec.Policy)
    [
      ("quantum", {|unknown policy "quantum"|});
      ("", {|unknown policy ""|});
      (" fi fo ", {|unknown policy "fi fo"|});
    ]

let network_rejects =
  rejects
    (module Spec.Network)
    [
      ("torus:4", {|unknown network "torus:4" (line:K | ring:K)|});
      ("ring", {|unknown network "ring" (line:K | ring:K)|});
      ("ring:4:2", {|unknown network "ring:4:2" (line:K | ring:K)|});
      ("ring:x", {|network "ring:x": bad size|});
      (" line: 3", {|network " line: 3": bad size|});
    ]

let topology_rejects =
  rejects
    (module Spec.Topology)
    [
      ("torus:4", {|unknown topology "torus:4" (spine-leaf:S,L,H | fat-tree:K)|});
      ("spine-leaf:1,2", "spine-leaf wants SPINES,LEAVES,HOSTS");
      ("spine-leaf:1,x,2", "bad spine-leaf dims");
      ("spine-leaf:0,1,1", {|topology "spine-leaf:0,1,1": S, L and H must each be at least 1|});
      ("spine-leaf:2,4,-2", {|topology "spine-leaf:2,4,-2": S, L and H must each be at least 1|});
      ("spine-leaf:2,1,1", {|topology "spine-leaf:2,1,1": L x H must be >= 2|});
      ("fat-tree:four", "bad fat-tree arity");
      ("fat-tree:3", {|topology "fat-tree:3": K must be even, at least 2|});
      ("fat-tree:0", {|topology "fat-tree:0": K must be even, at least 2|});
    ]

let pattern_rejects =
  rejects
    (module Spec.Pattern)
    [
      ( "shuffle",
        {|unknown pattern "shuffle" (permutation | incast:N | all-to-all | hotspot:N/D)|}
      );
      ("incast:x", "bad incast sender count");
      ("incast:0", {|pattern "incast:0": N must be at least 1|});
      ("hotspot:1", "hotspot wants N/D");
      ("hotspot:1/x", "bad hotspot fraction");
      ("hotspot:1/0", {|pattern "hotspot:1/0": N/D must be in [0, 1]|});
      ("hotspot:0/0", {|pattern "hotspot:0/0": N/D must be in [0, 1]|});
      ("hotspot:3/2", {|pattern "hotspot:3/2": N/D must be in [0, 1]|});
      ("hotspot:-1/2", {|pattern "hotspot:-1/2": N/D must be in [0, 1]|});
    ]

let capacity_rejects =
  rejects
    (module Spec.Capacity)
    [
      ( "infinite",
        {|unknown capacity "infinite" (unbounded | uniform:K | shared:TOTAL | shared:TOTAL:A/B)|}
      );
      ("uniform:x", "bad uniform capacity");
      ("uniform:-1", "bad uniform capacity");
      ("shared:x", "bad shared total");
      ("shared:-8", "bad shared total");
      ("shared:64:1", "alpha wants N/D");
      ("shared:64:0/1", "bad shared capacity");
      ("shared:64:x/1", "bad shared capacity");
    ]

let backend_rejects =
  rejects
    (module Spec.Backend)
    [
      ("gpu", {|unknown backend "gpu" (record|soa)|});
      ("soa:x", {|unknown backend "soa:x" (record|soa)|});
      ("record:2", {|unknown backend "record:2" (record|soa)|});
      ("soa:0", "domain count 0 must be at least 1");
    ]

(* The command line's [--backend ENGINE --domains N] pair. *)
let backend_flags () =
  let flags engine d =
    Result.bind (Spec.Backend.engine engine) (Spec.Backend.with_domains d)
  in
  check_bool "record ignores the domain count" true (flags "record" 0 = Ok `Record);
  check_bool "soa takes it" true (flags "soa" 3 = Ok (`Soa 3));
  check_bool "soa:2 is not an engine name" true
    (flags "soa:2" 2 = Error {|unknown backend "soa:2" (record|soa)|});
  check_bool "soa needs a domain" true
    (flags "soa" 0 = Error "domain count 0 must be at least 1")

let parses_sample () =
  let ok (type a) (module T : Spec.TOKEN with type t = a) s expect =
    match T.of_string s with
    | Ok x -> check_string s expect (T.to_string x)
    | Error m -> Alcotest.failf "%S rejected: %s" s m
  in
  ok (module Spec.Rate) "0.25" "1/4";
  ok (module Spec.Rate) " -3 " "-3";
  ok (module Spec.Rate) "6/-4" "-3/2";
  ok (module Spec.Policy) " SIS" "sis";
  ok (module Spec.Policy) "Fifo" "fifo";
  ok (module Spec.Network) "line:0" "line:0";
  ok (module Spec.Capacity) "shared:64:1/1" "shared:64";
  ok (module Spec.Backend) "soa" "soa:1";
  check_string "a model the syntax cannot spell prints as describe"
    "cap=2 drop-head s=2"
    (Spec.Capacity.to_string
       (Model.uniform ~policy:Model.Drop_head ~speedup:2 2))

(* ------------------------------------------------------------------ *)
(* Routes                                                              *)
(* ------------------------------------------------------------------ *)

(* The line/ring route construction the command line and the daemon each
   spelled out before this vocabulary, kept verbatim as the reference. *)
let build_net ~d = function
  | Spec.Network.Line k ->
      let l = Build.line k in
      let d = min d k in
      (l.graph, List.init (k - d + 1) (fun i -> Array.sub l.edges i d))
  | Ring k ->
      let r = Build.ring k in
      let d = min d (k - 1) in
      (r.graph, List.init k (fun i -> Array.init d (fun j -> r.edges.((i + j) mod k))))

let workload_matches_reference () =
  let nets =
    List.init 12 (fun i -> Spec.Network.Line (i + 1))
    @ List.init 12 (fun i -> Spec.Network.Ring (i + 2))
  in
  List.iter
    (fun n ->
      for d = 1 to Spec.Network.size n + 3 do
        let label = Printf.sprintf "%s d=%d" (Spec.Network.to_string n) d in
        let graph, routes = build_net ~d n in
        let w = Spec.workload ~d n in
        check_int (label ^ " nodes") (D.n_nodes graph) (D.n_nodes w.graph);
        check_int (label ^ " edges") (D.n_edges graph) (D.n_edges w.graph);
        Alcotest.(check (list (array int))) (label ^ " routes") routes w.routes;
        check_int (label ^ " route_count") (List.length routes)
          (Spec.route_count ~d n)
      done)
    nets;
  let buildable n = Spec.Network.buildable n = Ok n in
  check_bool "line:1 builds" true (buildable (Line 1));
  check_bool "ring:2 builds" true (buildable (Ring 2));
  check_bool "line:0 does not" true
    (Spec.Network.buildable (Line 0)
    = Error {|network "line:0": size must be at least 1|});
  check_bool "ring:-3 does not" true
    (Spec.Network.buildable (Ring (-3))
    = Error {|network "ring:-3": size must be at least 2|})

(* ------------------------------------------------------------------ *)
(* The two runs                                                        *)
(* ------------------------------------------------------------------ *)

let stats net =
  ( Network.injected_count net,
    Network.absorbed net,
    Network.in_flight net,
    Network.dropped net,
    Network.displaced net,
    Network.max_queue_ever net,
    Network.max_dwell net,
    Network.delivered_latency_mean net )

(* The simulate construction both front ends carried inline. *)
let reference_simulate ~capacity ~network ~d ~policy ~rate ~horizon
    ~stochastic ~seed =
  let graph, routes = build_net ~d network in
  let nroutes = List.length routes in
  let per_route = Ratio.div rate (Ratio.of_int (max 1 (min d nroutes))) in
  let adv =
    if stochastic then
      Stock.bernoulli ~prng:(Prng.create seed) ~rate:per_route ~routes ()
    else Stock.windowed_burst ~w:40 ~rate:per_route ~routes ~horizon ()
  in
  let net = Network.create ~capacity ~graph ~policy () in
  let outcome = Sim.run ~net ~driver:adv.driver ~horizon () in
  (adv.name, outcome.steps_run, stats net)

let simulate_matches_reference () =
  List.iter
    (fun (network, d, policy, rate, capacity, stochastic) ->
      let run f = f ~capacity ~network ~d ~policy ~rate ~horizon:600 ~stochastic ~seed:5 in
      let s = run Spec.simulate in
      check_bool
        (Printf.sprintf "%s d=%d %s rate %s" (Spec.Network.to_string network) d
           policy.Aqt_engine.Policy_type.name (Ratio.to_string rate))
        true
        (run reference_simulate = (s.adversary, s.steps, stats s.net)))
    [
      (Spec.Network.Ring 8, 4, Policies.fifo, Ratio.make 1 4, Model.unbounded, false);
      (Line 7, 3, Policies.lis, Ratio.make 3 4, Model.unbounded, true);
      (Ring 9, 5, Policies.nts, Ratio.make 9 10,
       Model.uniform ~policy:Model.Drop_head ~speedup:2 2, false);
      (Ring 8, 4, Policies.fifo, Ratio.of_int 9, Model.unbounded, false);
      (Line 3, 4, Policies.ftg, Ratio.of_int 2, Model.uniform 1, false);
    ]

let sweep_rates_messages () =
  let check label expect got =
    check_bool label true (got = expect)
  in
  check "in range" (Ok ()) (Spec.sweep_rates ~routes:8 [ Ratio.make 1 8; Ratio.of_int 8 ]);
  check "above one per route"
    (Error "rate 9 over 8 routes exceeds one packet per route per step")
    (Spec.sweep_rates ~routes:8 [ Ratio.make 1 2; Ratio.of_int 9; Ratio.of_int 10 ]);
  check "one route"
    (Error "rate 2 over 1 route exceeds one packet per route per step")
    (Spec.sweep_rates ~routes:1 [ Ratio.of_int 2 ]);
  check "not positive" (Error "rate 0 must be positive")
    (Spec.sweep_rates ~routes:8 [ Ratio.zero ]);
  check_int "line:3 with d=4 has one route" 1
    (Spec.route_count ~d:4 (Line 3))

(* The sweep cell and row both front ends carried inline. *)
let reference_cell ~d network ~policy ~rate ~horizon =
  let graph, routes = build_net ~d network in
  let per_route = Ratio.div rate (Ratio.of_int (max 1 (List.length routes))) in
  let adv = Stock.shared_token_bucket ~rate:per_route ~routes ~horizon () in
  let report =
    Aqt.Sweep.classify ~name:"sweep" ~graph ~policy
      ~adversary:{ adv with rate } ~horizon ()
  in
  [
    policy.Aqt_engine.Policy_type.name;
    Ratio.to_string rate;
    Aqt.Sweep.verdict_to_string report.verdict;
    string_of_int report.max_queue;
    string_of_int report.final_backlog;
  ]

(* The grid is the reference cells, policy-major, on one shared route
   table. *)
let sweep_cell_matches_reference () =
  let network = Spec.Network.Ring 6 and d = 3 and horizon = 400 in
  let w = Spec.workload ~d network in
  let policies = Policies.all_deterministic
  and rates = [ Ratio.make 1 8; Ratio.make 1 2; Ratio.of_int 6 ] in
  let want =
    List.concat_map
      (fun policy ->
        List.map
          (fun rate -> reference_cell ~d network ~policy ~rate ~horizon)
          rates)
      policies
  in
  Alcotest.(check (list (list string)))
    "every cell" want
    (Spec.sweep w ~policies ~rates ~horizon);
  match
    Spec.sweep w ~policies:[ Policies.fifo ] ~rates:[ Ratio.of_int 7 ] ~horizon
  with
  | _ -> Alcotest.fail "a rate above one packet per route per step ran"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Ratio.of_float_approx                                               *)
(* ------------------------------------------------------------------ *)

let of_float_rejects_non_finite () =
  List.iter
    (fun x ->
      match Ratio.of_float_approx x with
      | r -> Alcotest.failf "%f gave %s" x (Ratio.to_string r)
      | exception Invalid_argument _ -> ())
    [ infinity; neg_infinity; nan ]

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "aqt_spec"
    [
      ( "round-trip",
        [
          q prop_rate;
          q prop_policy;
          q prop_network;
          q prop_topology;
          q prop_pattern;
          q prop_capacity;
          q prop_backend;
          Alcotest.test_case "samples" `Quick parses_sample;
        ] );
      ( "errors",
        [
          Alcotest.test_case "rate" `Quick rate_rejects;
          Alcotest.test_case "policy" `Quick policy_rejects;
          Alcotest.test_case "network" `Quick network_rejects;
          Alcotest.test_case "topology" `Quick topology_rejects;
          Alcotest.test_case "pattern" `Quick pattern_rejects;
          Alcotest.test_case "capacity" `Quick capacity_rejects;
          Alcotest.test_case "backend" `Quick backend_rejects;
          Alcotest.test_case "backend flags" `Quick backend_flags;
        ] );
      ( "runs",
        [
          Alcotest.test_case "workload = reference" `Quick
            workload_matches_reference;
          Alcotest.test_case "simulate = reference" `Quick
            simulate_matches_reference;
          Alcotest.test_case "sweep rate range" `Quick sweep_rates_messages;
          Alcotest.test_case "sweep cell = reference" `Quick
            sweep_cell_matches_reference;
        ] );
      ( "ratio",
        [
          Alcotest.test_case "of_float_approx rejects non-finite" `Quick
            of_float_rejects_non_finite;
        ] );
    ]
