(* Tests for the datacenter-fabric stack: flow-level workload
   compilation (admissible by construction), scenario replay, and
   record/SoA backend parity. *)

module B = Aqt_graph.Build
module D = Aqt_graph.Digraph
module Ratio = Aqt_util.Ratio
module Traffic = Aqt_workload.Traffic
module Workloads = Aqt_workload.Workloads
module Rate_check = Aqt_adversary.Rate_check
module Scenario = Aqt_fabric.Scenario
module Capacity = Aqt_capacity.Model
module Policies = Aqt_policy.Policies

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let compile_on fabric spec =
  Traffic.compile
    ~n_hosts:(Array.length fabric.B.hosts)
    ~m:(D.n_edges fabric.B.graph)
    ~routes:fabric.B.routes spec

let spec ?(pattern = Traffic.Permutation) ?(conns = 1)
    ?(util = Ratio.make 3 4) ?(cdf = Traffic.short_cdf) ?(horizon = 40)
    ?(seed = 11) () =
  {
    Traffic.pattern;
    conns_per_pair = conns;
    utilisation = util;
    flow_cdf = cdf;
    horizon;
    seed;
  }

(* Replay a compiled schedule into the (time, route) log shape that
   Rate_check consumes, as if every scheduled packet were injected. *)
let log_of_schedule (c : Traffic.compiled) =
  let log = ref [] in
  Array.iteri
    (fun i routes ->
      List.iter (fun route -> log := (i + 1, route) :: !log) routes)
    c.Traffic.schedule;
  Array.of_list (List.rev !log)

let schedule_accounting () =
  let f = B.spine_leaf ~spines:2 ~leaves:3 ~hosts_per_leaf:2 in
  let c = compile_on f (spec ()) in
  let scheduled =
    Array.fold_left (fun acc l -> acc + List.length l) 0 c.Traffic.schedule
  in
  check_int "every budgeted packet is scheduled" c.Traffic.packets scheduled;
  let flow_packets =
    Array.fold_left (fun acc fl -> acc + fl.Traffic.size) 0 c.Traffic.flows
  in
  check_int "flows partition the packet stream" c.Traffic.packets flow_packets;
  check_int "schedule covers the horizon" c.Traffic.spec.Traffic.horizon
    (Array.length c.Traffic.schedule);
  Array.iter
    (fun fl ->
      check_bool "flow start within horizon" true
        (fl.Traffic.start >= 1
        && fl.Traffic.start <= c.Traffic.spec.Traffic.horizon))
    c.Traffic.flows

let admissible_by_construction () =
  List.iter
    (fun (pattern, conns, util_n, util_d) ->
      let f = B.fat_tree ~k:4 in
      let c =
        compile_on f
          (spec ~pattern ~conns ~util:(Ratio.make util_n util_d) ())
      in
      let log = log_of_schedule c in
      check_bool
        (Printf.sprintf "%s admissible (fast)"
           (Traffic.pattern_name pattern))
        true
        (Rate_check.check_local ~rate:c.Traffic.rate ~sigmas:c.Traffic.sigmas
           log
        = Ok ());
      check_bool
        (Printf.sprintf "%s admissible (brute)"
           (Traffic.pattern_name pattern))
        true
        (Rate_check.check_local_brute ~rate:c.Traffic.rate
           ~sigmas:c.Traffic.sigmas log
        = Ok ()))
    [
      (Traffic.Permutation, 1, 3, 4);
      (Traffic.Incast { senders = 15 }, 1, 1, 1);
      (Traffic.All_to_all, 1, 9, 10);
      (Traffic.Hotspot { hot_num = 1; hot_den = 2 }, 2, 1, 2);
    ]

let deterministic_compile () =
  let f = B.fat_tree ~k:4 in
  let c1 = compile_on f (spec ~seed:42 ()) in
  let c2 = compile_on f (spec ~seed:42 ()) in
  check_bool "same seed, same schedule" true
    (c1.Traffic.schedule = c2.Traffic.schedule);
  check_bool "same seed, same flows" true (c1.Traffic.flows = c2.Traffic.flows);
  let c3 = compile_on f (spec ~seed:43 ()) in
  check_bool "different seed, different schedule" true
    (c1.Traffic.schedule <> c3.Traffic.schedule)

let utilisation_shaping () =
  let f = B.spine_leaf ~spines:2 ~leaves:2 ~hosts_per_leaf:2 in
  (* Permutation: bottleneck 1 conn per access link, so conn_rate =
     utilisation. *)
  let c = compile_on f (spec ~util:(Ratio.make 1 2) ()) in
  check_bool "permutation conn rate = util" true
    (Ratio.equal c.Traffic.conn_rate (Ratio.make 1 2));
  check_int "permutation bottleneck" 1 c.Traffic.bottleneck;
  (* Incast of 3 senders: receiver downlink carries 3 connections. *)
  let c =
    compile_on f (spec ~pattern:(Traffic.Incast { senders = 3 }) ~util:Ratio.one ())
  in
  check_int "incast bottleneck" 3 c.Traffic.bottleneck;
  check_bool "incast conn rate = 1/3" true
    (Ratio.equal c.Traffic.conn_rate (Ratio.make 1 3))

let traffic_rejects () =
  let f = B.spine_leaf ~spines:1 ~leaves:2 ~hosts_per_leaf:1 in
  let bad s = Alcotest.check_raises "rejects" (Invalid_argument s) in
  bad "Traffic.compile: conns_per_pair must be >= 1" (fun () ->
      ignore (compile_on f (spec ~conns:0 ())));
  bad "Traffic.compile: flow CDF weights must increase" (fun () ->
      ignore (compile_on f (spec ~cdf:[ (5, 1); (5, 2) ] ())));
  bad "Traffic.compile: incast needs at least one sender" (fun () ->
      ignore
        (compile_on f (spec ~pattern:(Traffic.Incast { senders = 0 }) ())));
  bad "Traffic.compile: hotspot fraction must be in [0, 1]" (fun () ->
      ignore
        (compile_on f
           (spec ~pattern:(Traffic.Hotspot { hot_num = 3; hot_den = 2 }) ())))

let to_workload_validates () =
  let f = B.fat_tree ~k:2 in
  let c = compile_on f (spec ~horizon:20 ()) in
  let w = Traffic.to_workload ~name:"fabric" ~graph:f.B.graph c in
  check_bool "workload validates" true (Workloads.validate w);
  check_bool "has routes" true (w.Workloads.routes <> [])

let scenario_runs_and_is_legal () =
  let t =
    Scenario.make
      ~topo:(Scenario.Spine_leaf { spines = 2; leaves = 3; hosts_per_leaf = 2 })
      ~pattern:(Traffic.Hotspot { hot_num = 1; hot_den = 2 })
      ~utilisation:(Ratio.make 3 4) ~horizon:60 ~drain:120 ~seed:5 ()
  in
  let o = Scenario.run t in
  check_bool "injection log admissible" true o.Scenario.legal;
  check_int "all packets injected"
    (snd (Scenario.compile t)).Traffic.packets o.Scenario.injected;
  check_int "unbounded drops nothing" 0 o.Scenario.dropped;
  check_int "everything drains" o.Scenario.injected o.Scenario.absorbed

let scenario_backend_parity () =
  List.iter
    (fun capacity ->
      let t =
        Scenario.make
          ~topo:(Scenario.Fat_tree { k = 4 })
          ~pattern:(Traffic.Incast { senders = 15 })
          ~utilisation:Ratio.one ~capacity ~horizon:80 ~drain:100 ~seed:3 ()
      in
      let a = Scenario.run ~backend:`Record t in
      let project (o : Scenario.outcome) =
        ( o.Scenario.injected,
          o.Scenario.absorbed,
          o.Scenario.dropped,
          o.Scenario.in_flight,
          o.Scenario.max_queue,
          o.Scenario.peak_occupancy,
          o.Scenario.latency_mean,
          o.Scenario.legal )
      in
      List.iter
        (fun domains ->
          let b = Scenario.run ~backend:(`Soa domains) t in
          check_bool
            (Printf.sprintf "record = soa:%d" domains)
            true
            (project a = project b))
        [ 1; 2 ])
    [ Capacity.unbounded; Capacity.shared ~alpha_num:1 ~alpha_den:1 64 ]

let scenario_shared_buffer_drops () =
  let t =
    Scenario.make
      ~topo:(Scenario.Spine_leaf { spines = 2; leaves = 4; hosts_per_leaf = 2 })
      ~pattern:(Traffic.Incast { senders = 7 })
      ~utilisation:Ratio.one
      ~capacity:(Capacity.shared ~alpha_num:1 ~alpha_den:2 8)
      ~horizon:200 ~drain:100 ~seed:9 ()
  in
  let o = Scenario.run t in
  check_bool "tiny shared buffer drops" true (o.Scenario.dropped > 0);
  check_bool "peak occupancy within total" true (o.Scenario.peak_occupancy <= 8);
  check_int "conservation" o.Scenario.injected
    (o.Scenario.absorbed + o.Scenario.dropped + o.Scenario.in_flight)

let catalog_is_well_formed () =
  let cat = Scenario.catalog () in
  check_bool "non-empty" true (cat <> []);
  let names = List.map (fun t -> t.Scenario.name) cat in
  check_int "names unique"
    (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun t -> ignore (Scenario.compile t))
    cat;
  check_bool "lookup hit" true (Scenario.find_catalog "ft4-incast" <> None);
  check_bool "lookup miss" true (Scenario.find_catalog "nope" = None)

let prop_compiled_admissible =
  QCheck.Test.make ~name:"compiled traffic is locally admissible" ~count:40
    (QCheck.pair (QCheck.int_range 0 3) (QCheck.int_range 0 10_000))
    (fun (which, seed) ->
      let pattern =
        match which with
        | 0 -> Traffic.Permutation
        | 1 -> Traffic.Incast { senders = 3 }
        | 2 -> Traffic.All_to_all
        | _ -> Traffic.Hotspot { hot_num = 1; hot_den = 3 }
      in
      let f = B.spine_leaf ~spines:2 ~leaves:2 ~hosts_per_leaf:2 in
      let c =
        compile_on f
          (spec ~pattern ~util:(Ratio.make ((seed mod 4) + 1) 4) ~horizon:30
             ~seed ())
      in
      Rate_check.check_local ~rate:c.Traffic.rate ~sigmas:c.Traffic.sigmas
        (log_of_schedule c)
      = Ok ())

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "aqt_fabric"
    [
      ( "traffic",
        [
          Alcotest.test_case "schedule accounting" `Quick schedule_accounting;
          Alcotest.test_case "admissible by construction" `Quick
            admissible_by_construction;
          Alcotest.test_case "deterministic" `Quick deterministic_compile;
          Alcotest.test_case "utilisation shaping" `Quick utilisation_shaping;
          Alcotest.test_case "rejections" `Quick traffic_rejects;
          Alcotest.test_case "to_workload" `Quick to_workload_validates;
          q prop_compiled_admissible;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "runs and is legal" `Quick
            scenario_runs_and_is_legal;
          Alcotest.test_case "backend parity" `Quick scenario_backend_parity;
          Alcotest.test_case "shared buffer drops" `Quick
            scenario_shared_buffer_drops;
          Alcotest.test_case "catalog" `Quick catalog_is_well_formed;
        ] );
    ]
