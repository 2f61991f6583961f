(* Differential tests for the zero-allocation engine fast path.

   Every network recycles packet records.  The fast configuration (no
   tracer, shared pre-warmed route intern table) and the fully
   instrumented one (tracer attached, injection logging, private table)
   must both be observationally identical to Aqt_check.Ref_model, which
   allocates a fresh record and route array per packet, on the same
   injection schedule: same per-step trajectory, same buffer contents, same
   aggregate statistics.  Randomised over graphs, policies and schedules,
   including reroute-heavy runs (rerouted routes are interned into the same
   table as injected ones, shared in the fast configuration). *)

module D = Aqt_graph.Digraph
module B = Aqt_graph.Build
module N = Aqt_engine.Network
module RI = Aqt_engine.Route_intern
module Packet = Aqt_engine.Packet
module Sim = Aqt_engine.Sim
module Recorder = Aqt_engine.Recorder
module Policies = Aqt_policy.Policies
module Capacity = Aqt_capacity.Model
module Ref_model = Aqt_check.Ref_model
module Prng = Aqt_util.Prng

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let q = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Route_intern units                                                  *)
(* ------------------------------------------------------------------ *)

let intern_canonical_sharing () =
  let tbl = RI.create () in
  let r1 = [| 3; 4; 5 |] and r2 = [| 3; 4; 5 |] in
  let c1 = RI.intern tbl r1 in
  let c2 = RI.intern tbl r2 in
  check_bool "same contents share one canonical array" true (c1 == c2);
  check_int "one distinct route" 1 (RI.distinct tbl);
  check_int "one miss" 1 (RI.misses tbl);
  check_int "one hit" 1 (RI.hits tbl);
  (* Copy-on-intern: the canonical array is detached from the caller's. *)
  check_bool "canonical is a copy" true (c1 != r1);
  r1.(0) <- 99;
  check_int "mutating the source does not corrupt the table" 3 c1.(0);
  check_bool "lookup still works after source mutation" true
    (RI.intern tbl r2 == c1)

let intern_distinguishes_contents () =
  let tbl = RI.create () in
  let a = RI.intern tbl [| 1; 2 |] in
  let b = RI.intern tbl [| 1; 3 |] in
  let c = RI.intern tbl [| 1; 2; 3 |] in
  check_bool "different contents, different canonicals" true
    (a != b && b != c && a != c);
  check_int "three distinct" 3 (RI.distinct tbl)

let intern_validation_once () =
  (* The network validates a route only on its first appearance; invalid
     routes are still rejected on injection. *)
  let l = B.line 3 in
  let net = N.create ~graph:l.graph ~policy:Policies.fifo () in
  Alcotest.check_raises "invalid route rejected"
    (Invalid_argument "Network: route [e0;e2] is not a simple path")
    (fun () -> N.step net [ { N.route = [| l.edges.(0); l.edges.(2) |]; tag = "x" } ]);
  N.step net [ { N.route = l.edges; tag = "ok" } ];
  let tbl = N.route_table net in
  let misses_before = RI.misses tbl in
  for _ = 1 to 10 do
    N.step net [ { N.route = Array.copy l.edges; tag = "ok" } ]
  done;
  check_int "ten re-injections validate nothing new" misses_before
    (RI.misses tbl);
  check_int "all further injections are table hits" (RI.hits tbl - 0) (RI.hits tbl)

let shared_table_across_networks () =
  let l = B.line 4 in
  let tbl = RI.create () in
  let net1 = N.create ~route_table:tbl ~graph:l.graph ~policy:Policies.fifo () in
  let net2 = N.create ~route_table:tbl ~graph:l.graph ~policy:Policies.lifo () in
  N.step net1 [ { N.route = l.edges; tag = "a" } ];
  let misses = RI.misses tbl in
  N.step net2 [ { N.route = Array.copy l.edges; tag = "b" } ];
  check_int "second network reuses the first one's validation" misses
    (RI.misses tbl);
  check_int "one distinct route across both" 1 (RI.distinct tbl)

(* The table against a [Hashtbl] model, over random operation sequences
   on routes of at most four edges from a four-edge alphabet (341 distinct
   routes, the empty one among them), so probes collide and the 64-slot
   table doubles several times.  The caller holds six arrays; [Renew]
   gives one of them fresh contents in a fresh array and overwrites the
   old one, which the table must not have kept.  [Lookup] is [Network]'s
   own sequence, a [find] and, on a miss, an [add] of the same array;
   [Find] then [Add] of one array with other operations in between must
   not reuse a probe that those operations made stale. *)
type intern_op =
  | Renew of int * int array
  | Find of int
  | Add of int
  | Intern of int
  | Lookup of int

let pp_intern_op = function
  | Renew (i, r) -> Printf.sprintf "renew %d %s" i QCheck.Print.(array int r)
  | Find i -> Printf.sprintf "find %d" i
  | Add i -> Printf.sprintf "add %d" i
  | Intern i -> Printf.sprintf "intern %d" i
  | Lookup i -> Printf.sprintf "lookup %d" i

let prop_intern_model =
  let op =
    let route = QCheck.Gen.(array_size (int_range 0 4) (int_range 0 3)) in
    let caller = QCheck.Gen.int_range 0 5 in
    QCheck.Gen.(
      frequency
        [
          (3, map2 (fun i r -> Renew (i, r)) caller route);
          (2, map (fun i -> Find i) caller);
          (1, map (fun i -> Add i) caller);
          (2, map (fun i -> Intern i) caller);
          (2, map (fun i -> Lookup i) caller);
        ])
  in
  QCheck.Test.make ~count:100 ~name:"route table matches a Hashtbl model"
    (QCheck.make
       ~print:QCheck.Print.(list pp_intern_op)
       QCheck.Gen.(list_size (int_range 0 1000) op))
    (fun ops ->
      let tbl = RI.create () and callers = Array.make 6 [||] in
      let model = Hashtbl.create 16 and hits = ref 0 and misses = ref 0 in
      let hit key c =
        incr hits;
        c == Hashtbl.find model key
      in
      (* A new canonical array: equal to the caller's, but not it (bar the
         empty route: every [[||]] is the same value). *)
      let added key r c =
        incr misses;
        Hashtbl.replace model key c;
        (c != r || r = [||]) && Array.to_list c = key
      in
      let apply = function
        | Renew (i, r) ->
            let old = callers.(i) in
            Array.fill old 0 (Array.length old) (-1);
            callers.(i) <- Array.copy r;
            true
        | (Find i | Add i | Intern i | Lookup i) as op -> (
            let r = callers.(i) in
            let key = Array.to_list r in
            let known = Hashtbl.mem model key in
            match op with
            | Find _ -> (
                match RI.find tbl r with
                | Some c -> known && hit key c
                | None -> not known)
            | Add _ -> added key r (RI.add tbl r)
            | Intern _ ->
                let c = RI.intern tbl r in
                if known then hit key c else added key r c
            | Lookup _ | Renew _ -> (
                match RI.find tbl r with
                | Some c -> known && hit key c
                | None -> (not known) && added key r (RI.add tbl r)))
      in
      List.for_all apply ops
      && RI.distinct tbl = Hashtbl.length model
      && RI.hits tbl = !hits
      && RI.misses tbl = !misses
      (* Every canonical array kept its contents and is still found. *)
      && Hashtbl.fold
           (fun key c ok ->
             ok
             && Array.to_list c = key
             &&
             match RI.find tbl (Array.of_list key) with
             | Some c' -> c' == c
             | None -> false)
           model true)

(* ------------------------------------------------------------------ *)
(* Packet pool                                                         *)
(* ------------------------------------------------------------------ *)

let inj ?(tag = "t") route : N.injection = { route; tag }

(* A plain network pools absorbed records, drop-tail rejections and
   drop-head victims, and a reused record has every field reset for its new
   packet — including the flags of an initial or exogenous predecessor. *)
let pool_recycles_records () =
  let l = B.line 3 in
  let e = l.edges in
  let net = N.create ~graph:l.graph ~policy:Policies.fifo () in
  let check_packet what (p : Packet.t) ~id ~injected_at ~initial ~exogenous
      ~tag ~route ~buffered_at =
    check_int (what ^ " id") id p.id;
    check_int (what ^ " injected_at") injected_at p.injected_at;
    check_bool (what ^ " initial") initial p.initial;
    check_bool (what ^ " exogenous") exogenous p.exogenous;
    check_bool (what ^ " tag") true (p.tag = tag);
    check_bool (what ^ " route") true (p.route = route);
    check_int (what ^ " hop") 0 p.hop;
    check_int (what ^ " buffered_at") buffered_at p.buffered_at;
    check_int (what ^ " reroutes") 0 p.reroutes
  in
  let only_packet_at edge =
    match N.buffer_packets net edge with
    | [ p ] -> p
    | l -> Alcotest.failf "expected one buffered packet, got %d" (List.length l)
  in
  (* An initial packet, rerouted to end at its first edge, then absorbed:
     every field of its record now differs from the next packet's. *)
  let first = N.place_initial net ~tag:"init" [| e.(0); e.(1) |] in
  N.reroute net first [||];
  N.step net [];
  check_int "absorbed" 1 (N.absorbed net);
  check_int "absorbed record parked in the pool" 1 (N.pooled net);
  N.step net ~exogenous:[ inj ~tag:"noise" [| e.(1); e.(2) |] ] [];
  check_int "pool drained by the new injection" 0 (N.pooled net);
  let noise = only_packet_at e.(1) in
  check_bool "the record is reused" true (noise == first);
  check_packet "exogenous" noise ~id:1 ~injected_at:2 ~initial:false
    ~exogenous:true ~tag:"noise" ~route:[| e.(1); e.(2) |] ~buffered_at:2;
  (* The exogenous record comes back for an adversary packet. *)
  N.step net [];
  N.step net [];
  check_int "exogenous packet absorbed into the pool" 1 (N.pooled net);
  N.step net [ inj ~tag:"adv" [| e.(0) |] ];
  let adv = only_packet_at e.(0) in
  check_bool "reused again" true (adv == first);
  check_packet "adversary" adv ~id:2 ~injected_at:5 ~initial:false
    ~exogenous:false ~tag:"adv" ~route:[| e.(0) |] ~buffered_at:5;
  (* Capacity losses: a drop-tail rejection and a drop-head victim are
     pooled as soon as they are lost. *)
  List.iter
    (fun policy ->
      let net =
        N.create ~capacity:(Capacity.uniform ~policy 1) ~graph:l.graph
          ~policy:Policies.fifo ()
      in
      N.step net [ inj [| e.(0) |]; inj [| e.(0) |] ];
      let what = Capacity.policy_name policy in
      check_int (what ^ ": one loss") 1 (N.dropped net);
      check_int (what ^ ": displacements")
        (if policy = Capacity.Drop_head then 1 else 0)
        (N.displaced net);
      check_int (what ^ ": the lost record is pooled") 1 (N.pooled net);
      N.step net [ inj [| e.(1) |] ];
      check_int (what ^ ": survivor absorbed") 1 (N.absorbed net);
      check_int (what ^ ": survivor pooled, one record reused") 1
        (N.pooled net))
    [ Capacity.Drop_tail; Capacity.Drop_head ]

(* ------------------------------------------------------------------ *)
(* Steady-state allocation                                             *)
(* ------------------------------------------------------------------ *)

let steady_state_zero_major_growth () =
  let k = 50 in
  let ring = B.ring k in
  let routes =
    Array.init k (fun i -> Array.init 4 (fun j -> ring.edges.((i + j) mod k)))
  in
  let net = N.create ~graph:ring.graph ~policy:Policies.fifo () in
  let t = ref 0 in
  let driver =
    Sim.injections_only (fun _ _ ->
        incr t;
        if !t land 1 = 0 then [ { N.route = routes.(!t mod k); tag = "s" } ]
        else [])
  in
  (* Warm up: intern every route, size every buffer, fill the pool. *)
  ignore (Sim.run ~net ~driver ~horizon:2_000 ());
  Gc.full_major ();
  let recorder = Recorder.make ~every:100 () in
  ignore (Sim.run ~recorder ~net ~driver ~horizon:50_000 ());
  Gc.full_major ();
  let growth = Recorder.major_words_per_step recorder in
  if growth > 1.0 then
    Alcotest.failf "major heap grows %.3f words/step in steady state" growth;
  check_bool "recorder saw gc counters move monotonically" true
    (let s = Recorder.samples recorder in
     Array.length s >= 2
     && s.(0).Recorder.gc_minor_words
        <= s.(Array.length s - 1).Recorder.gc_minor_words);
  check_int "network still conserves packets" (N.injected_count net)
    (N.absorbed net + N.in_flight net)

(* A ring:512 /simulate, piece by piece.  Past 256 elements,
   [Array.make n x] with a young block [x] (and so [Array.init],
   [Array.map] and [Array.of_list]) empties every domain's minor heap
   first.  Each piece allocates well under one minor heap, so after
   [Gc.minor ()] none may run a minor collection at all. *)
let no_forced_minor_collection () =
  let minors what f =
    Gc.minor ();
    let before = (Gc.quick_stat ()).Gc.minor_collections
    and words = Gc.minor_words () in
    let r = f () in
    let ran = (Gc.quick_stat ()).Gc.minor_collections - before
    and words = Gc.minor_words () -. words in
    if words > float_of_int (Gc.get ()).Gc.minor_heap_size /. 2. then
      Alcotest.failf "%s allocates %.0f words, too many to expect none" what
        words;
    check_int (what ^ ": minor collections") 0 ran;
    r
  in
  let module S = Aqt_fabric.Scenario_spec in
  let module Stock = Aqt_adversary.Stock in
  let w =
    minors "ring:512 workload" (fun () -> S.workload ~d:6 (S.Network.Ring 512))
  in
  let rate = Aqt_util.Ratio.make 1 24 and horizon = 3_000 in
  let windowed =
    minors "windowed adversary" (fun () ->
        Stock.windowed_burst ~w:40 ~rate ~routes:w.routes ~horizon ())
  in
  ignore
    (minors "Bernoulli adversary" (fun () ->
         Stock.bernoulli ~prng:(Prng.create 5) ~rate ~routes:w.routes ()));
  let net =
    minors "Network.create" (fun () ->
        N.create ~graph:w.graph ~policy:Policies.fifo ())
  in
  let outcome =
    minors "3,000 windowed steps" (fun () ->
        Sim.run ~net ~driver:windowed.driver ~horizon ())
  in
  check_int "steps" horizon outcome.Sim.steps_run

(* A warmed-up step allocates no packet records and no buffer entries: on
   a fully loaded ring, one step under FIFO (ring storage) and one under
   LIS (heap storage) allocate no more minor words than that step's
   injection list, however many packets they forward.  The list is built
   before the measurement; what the step may allocate is the route-table
   lookups. *)
let loaded_step_allocation () =
  let k = 12 in
  let ring = B.ring k in
  let routes =
    Array.init k (fun i -> Array.init 4 (fun j -> ring.edges.((i + j) mod k)))
  in
  (* Three 4-edge routes per step, cycling over the ring: load 1 on every
     edge, so every buffer forwards on every step. *)
  let t = ref 0 in
  let batch () =
    incr t;
    List.init 3 (fun i -> inj routes.(((3 * !t) + i) mod k))
  in
  (* One cons cell and one injection record per entry, each a header and
     two fields. *)
  let list_words = float (3 * 6) in
  List.iter
    (fun (policy : Policies.t) ->
      let net = N.create ~graph:ring.graph ~policy () in
      (* Warm-up: buffers and stacks reach their periodic peak, and every
         absorbed record is reused by the next injections. *)
      for _ = 1 to 300 do
        N.step net (batch ())
      done;
      let sent () =
        Array.fold_left (fun n e -> n + N.sent_on_edge net e) 0 ring.edges
      in
      let injections = batch () in
      let sent_before = sent () in
      let before = Gc.minor_words () in
      N.step net injections;
      let words = Gc.minor_words () -. before in
      check_int (policy.name ^ ": every edge forwards") k
        (sent () - sent_before);
      if words > list_words then
        Alcotest.failf
          "%s: one loaded step allocated %.0f minor words, more than its \
           %.0f-word injection list"
          policy.name words list_words)
    [ Policies.fifo; Policies.lis ]

(* ------------------------------------------------------------------ *)
(* Differential property: fast == instrumented == reference           *)
(* ------------------------------------------------------------------ *)

type scenario = {
  graph : D.t;
  routes : int array array;
  policy_name : string;
  schedule : int list array; (* per step, indices into routes *)
  reroute_heavy : bool;
}

let gen_scenario seed =
  let rng = Prng.create seed in
  let graph, routes =
    match Prng.int rng 3 with
    | 0 ->
        let k = 3 + Prng.int rng 8 in
        let r = B.ring k in
        let routes =
          Array.init (2 * k) (fun _ ->
              let start = Prng.int rng k and len = 1 + Prng.int rng (k - 1) in
              Array.init len (fun j -> r.edges.((start + j) mod k)))
        in
        (r.graph, routes)
    | 1 ->
        let k = 2 + Prng.int rng 8 in
        let l = B.line k in
        let routes =
          Array.init (2 * k) (fun _ ->
              let start = Prng.int rng k in
              let len = 1 + Prng.int rng (k - start) in
              Array.sub l.edges start len)
        in
        (l.graph, routes)
    | _ ->
        let p = B.parallel_paths ~branches:(2 + Prng.int rng 3) ~hops:(2 + Prng.int rng 3) in
        (p.graph, Array.concat [ p.paths; p.paths ])
  in
  let policy_name =
    Prng.pick rng [| "fifo"; "lifo"; "lis"; "nis"; "ftg"; "ntg" |]
  in
  let horizon = 60 + Prng.int rng 120 in
  let schedule =
    Array.init horizon (fun _ ->
        if Prng.int rng 2 = 0 then []
        else
          List.init (1 + Prng.int rng 2) (fun _ ->
              Prng.int rng (Array.length routes)))
  in
  { graph; routes; policy_name; schedule; reroute_heavy = Prng.bool rng }

(* Deterministic reroute pass: truncate the route of every buffered packet
   whose id matches, so it gets absorbed at its next hop.  Identical packet
   ids see identical rewrites in every configuration. *)
let reroute_pass iter_buffered reroute =
  let victims = ref [] in
  iter_buffered (fun p ->
      if p.Packet.id mod 5 = 2 && Packet.remaining p > 1 then
        victims := p :: !victims);
  List.iter (fun p -> reroute p [||]) !victims

let buffer_fingerprint buffer_packets graph =
  let b = Buffer.create 256 in
  for e = 0 to D.n_edges graph - 1 do
    List.iter
      (fun (p : Packet.t) ->
        Buffer.add_string b
          (Printf.sprintf "e%d:id%d,hop%d,inj%d,rr%d,[%s];" e p.id p.hop
             p.injected_at p.reroutes
             (String.concat ","
                (Array.to_list (Array.map string_of_int p.route)))))
      (buffer_packets e)
  done;
  Buffer.contents b

let sample_fingerprint (s : Recorder.sample) =
  (* GC fields differ between configurations by design; everything
     observable about the simulation must not. *)
  (s.t, s.in_flight, s.cur_max_queue, s.absorbed, s.max_dwell)

let injections scenario idxs =
  List.map (fun i -> { N.route = scenario.routes.(i); tag = "d" }) idxs

let run_engine ~fast scenario =
  let policy = Policies.by_name scenario.policy_name in
  let net =
    if fast then begin
      (* Shared, pre-warmed table: every route interned before the run. *)
      let table = RI.create () in
      Array.iter (fun r -> ignore (RI.intern table r)) scenario.routes;
      N.create ~route_table:table ~graph:scenario.graph ~policy ()
    end
    else
      N.create ~log_injections:true ~tracer:(fun _ -> ()) ~graph:scenario.graph
        ~policy ()
  in
  let recorder = Recorder.make () in
  Array.iter
    (fun idxs ->
      if scenario.reroute_heavy then
        reroute_pass (fun f -> N.iter_buffered f net) (N.reroute net);
      N.step net (injections scenario idxs);
      Recorder.observe recorder net)
    scenario.schedule;
  let trajectory =
    Array.to_list (Array.map sample_fingerprint (Recorder.samples recorder))
  in
  ( trajectory,
    buffer_fingerprint (N.buffer_packets net) scenario.graph,
    ( N.max_queue_ever net,
      N.max_dwell net,
      N.absorbed net,
      N.in_flight net,
      N.injected_count net,
      N.reroute_count net,
      N.delivered_latency_max net ) )

(* The comparison arm: the reference model allocates a fresh record and
   route array for every packet, so agreeing with it shows that recycling
   records and interning routes change nothing observable. *)
let run_reference scenario =
  let policy = Policies.by_name scenario.policy_name in
  let m = Ref_model.create ~graph:scenario.graph ~policy () in
  let cur_max_queue () =
    let best = ref 0 in
    for e = 0 to D.n_edges scenario.graph - 1 do
      best := max !best (Ref_model.buffer_len m e)
    done;
    !best
  in
  let trajectory =
    Array.to_list
      (Array.map
         (fun idxs ->
           if scenario.reroute_heavy then
             reroute_pass
               (fun f -> Ref_model.iter_buffered f m)
               (Ref_model.reroute m);
           ignore (Ref_model.step m (injections scenario idxs));
           ( Ref_model.now m,
             Ref_model.in_flight m,
             cur_max_queue (),
             Ref_model.absorbed m,
             Ref_model.max_dwell m ))
         scenario.schedule)
  in
  ( trajectory,
    buffer_fingerprint (Ref_model.buffer_packets m) scenario.graph,
    ( Ref_model.max_queue_ever m,
      Ref_model.max_dwell m,
      Ref_model.absorbed m,
      Ref_model.in_flight m,
      Ref_model.injected_count m,
      Ref_model.reroute_count m,
      Ref_model.delivered_latency_max m ) )

let prop_fastpath_differential =
  QCheck.Test.make ~count:60 ~name:"fast path == instrumented path"
    QCheck.(map (fun n -> abs n) int)
    (fun seed ->
      let scenario = gen_scenario seed in
      let ref_traj, ref_bufs, ref_stats = run_reference scenario in
      List.iter
        (fun (arm, fast) ->
          let traj, bufs, stats = run_engine ~fast scenario in
          if traj <> ref_traj then
            QCheck.Test.fail_reportf "%s: trajectory diverges (seed %d)" arm
              seed;
          if bufs <> ref_bufs then
            QCheck.Test.fail_reportf
              "%s: buffer contents diverge (seed %d):\n%s\nvs reference\n%s"
              arm seed bufs ref_bufs;
          if stats <> ref_stats then
            QCheck.Test.fail_reportf
              "%s: aggregate statistics diverge (seed %d)" arm seed)
        [ ("instrumented", false); ("fast", true) ];
      true)

let () =
  Alcotest.run "aqt_fastpath"
    [
      ( "route_intern",
        [
          Alcotest.test_case "canonical sharing" `Quick intern_canonical_sharing;
          Alcotest.test_case "distinguishes contents" `Quick
            intern_distinguishes_contents;
          Alcotest.test_case "validation once" `Quick intern_validation_once;
          Alcotest.test_case "shared across networks" `Quick
            shared_table_across_networks;
          q prop_intern_model;
        ] );
      ( "pool",
        [ Alcotest.test_case "recycles records" `Quick pool_recycles_records ] );
      ( "steady-state",
        [
          Alcotest.test_case "zero major growth" `Quick
            steady_state_zero_major_growth;
          Alcotest.test_case "loaded step allocates no records" `Quick
            loaded_step_allocation;
          Alcotest.test_case "no forced minor collection" `Quick
            no_forced_minor_collection;
        ] );
      ("differential", [ q prop_fastpath_differential ]);
    ]
