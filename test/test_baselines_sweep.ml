(* Tests for the prior-work baselines and the sweep classifier. *)

module R = Aqt_util.Ratio
module B = Aqt_graph.Build
module Baselines = Aqt.Baselines
module Sweep = Aqt.Sweep
module Stock = Aqt_adversary.Stock
module Policies = Aqt_policy.Policies

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let diaz_formula () =
  check_bool "1/(2dm*alpha)" true
    (R.equal (Baselines.diaz_stability_bound ~d:3 ~m:10 ~alpha:2) (R.make 1 120));
  Alcotest.check_raises "positive parameters"
    (Invalid_argument "Baselines.diaz_stability_bound") (fun () ->
      ignore (Baselines.diaz_stability_bound ~d:0 ~m:1 ~alpha:1))

let this_paper_dominates_diaz () =
  (* 1/d >= 1/(2dm*alpha) always: the paper's bound is never worse. *)
  List.iter
    (fun (d, m, alpha) ->
      check_bool
        (Printf.sprintf "d=%d m=%d a=%d" d m alpha)
        true
        R.(Baselines.this_paper_bound ~d >= Baselines.diaz_stability_bound ~d ~m ~alpha))
    [ (1, 1, 1); (3, 10, 2); (8, 50, 4); (2, 2, 1) ]

let threshold_table () =
  let t = Baselines.fifo_instability_thresholds in
  check_int "five entries" 5 (List.length t);
  (* Chronologically non-increasing thresholds: the literature tightened. *)
  let rates = List.map (fun x -> x.Baselines.rate) t in
  let rec nonincreasing = function
    | a :: b :: rest -> a >= b && nonincreasing (b :: rest)
    | _ -> true
  in
  check_bool "monotone improvement" true (nonincreasing rates);
  check_bool "this paper at 0.5" true
    (List.exists (fun x -> x.Baselines.rate = 0.5) t)

let replay_against_policies () =
  (* A tiny scripted burst: FIFO and LIS both drain it; the harness reports
     per-policy rows. *)
  let l = B.line 3 in
  let log = Array.init 30 (fun i -> (i + 1, l.edges)) in
  let results =
    Baselines.replay_against ~graph:l.graph ~rate:R.one ~log
      ~policies:[ Policies.fifo; Policies.lis; Policies.ntg ]
      ~settle:100 ()
  in
  check_int "three rows" 3 (List.length results);
  List.iter
    (fun (r : Baselines.replay_result) ->
      check_int (r.policy ^ " absorbed") 30 r.absorbed;
      check_int (r.policy ^ " backlog") 0 r.backlog)
    results

(* One replay driver serves every policy of a call: two policies in one
   call must give exactly the rows of two single-policy calls, so the
   shared driver carries nothing from one run into the next. *)
let replay_driver_is_shared_statelessly () =
  let l = B.line 4 in
  let log =
    Array.init 60 (fun i ->
        (1 + (i / 3), Array.sub l.edges (i mod 3) (4 - (i mod 3))))
  in
  let initial = [| l.edges; Array.sub l.edges 1 3 |] in
  let replay policies =
    Baselines.replay_against ~initial ~graph:l.graph ~rate:R.one ~log
      ~policies ~settle:20 ()
  in
  let a = Policies.fifo and b = Policies.lifo in
  check_bool "policies differ on this log" true (replay [ a ] <> replay [ b ]);
  check_bool "[a; b] = [a] @ [b]" true
    (replay [ a; b ] = replay [ a ] @ replay [ b ]);
  check_bool "[b; a] = [b] @ [a]" true
    (replay [ b; a ] = replay [ b ] @ replay [ a ])

let sweep_classifies_stable () =
  let ring = B.ring 6 in
  let routes =
    List.init 6 (fun i -> Array.init 3 (fun j -> ring.edges.((i + j) mod 6)))
  in
  let adv =
    Stock.shared_token_bucket ~rate:(R.make 1 4) ~routes ~horizon:10_000 ()
  in
  let report =
    Sweep.classify ~name:"ring" ~graph:ring.graph ~policy:Policies.fifo
      ~adversary:adv ~horizon:10_000 ()
  in
  check_bool "stable" true (report.verdict = Sweep.Stable);
  check_bool "bounded queue" true (report.max_queue < 20)

let sweep_classifies_growing () =
  (* Two token buckets on the same edge at 0.6 each: load 1.2 > 1. *)
  let l = B.line 1 in
  let adv =
    Stock.of_flows ~name:"overload" ~rate:(R.make 3 5)
      [
        Aqt_adversary.Flow.make ~route:l.edges ~rate:(R.make 3 5) ~start:1
          ~stop:10_000 ();
        Aqt_adversary.Flow.make ~route:l.edges ~rate:(R.make 3 5) ~start:1
          ~stop:10_000 ();
      ]
  in
  let report =
    Sweep.classify ~name:"overload" ~graph:l.graph ~policy:Policies.fifo
      ~adversary:adv ~horizon:10_000 ()
  in
  check_bool "growing or blowup" true
    (report.verdict = Sweep.Growing || report.verdict = Sweep.Blowup);
  check_bool "backlog grew" true (report.final_backlog > report.mid_backlog)

let sweep_detects_blowup () =
  let l = B.line 1 in
  let adv =
    Stock.of_flows ~name:"flood" ~rate:R.one
      [
        Aqt_adversary.Flow.make ~route:l.edges ~rate:R.one ~start:1
          ~stop:100_000 ();
        Aqt_adversary.Flow.make ~route:l.edges ~rate:R.one ~start:1
          ~stop:100_000 ();
      ]
  in
  let report =
    Sweep.classify ~blowup:500 ~name:"flood" ~graph:l.graph
      ~policy:Policies.fifo ~adversary:adv ~horizon:100_000 ()
  in
  check_bool "blowup" true (report.verdict = Sweep.Blowup);
  check_bool "stopped early" true (report.steps_run < 100_000)

let verdict_strings () =
  check_bool "stable" true (Sweep.verdict_to_string Sweep.Stable = "stable");
  check_bool "growing" true (Sweep.verdict_to_string Sweep.Growing = "growing");
  check_bool "blowup" true (Sweep.verdict_to_string Sweep.Blowup = "blowup")

let () =
  Alcotest.run "aqt_baselines_sweep"
    [
      ( "baselines",
        [
          Alcotest.test_case "diaz formula" `Quick diaz_formula;
          Alcotest.test_case "paper dominates diaz" `Quick
            this_paper_dominates_diaz;
          Alcotest.test_case "threshold table" `Quick threshold_table;
          Alcotest.test_case "replay harness" `Quick replay_against_policies;
          Alcotest.test_case "replay driver shared across policies" `Quick
            replay_driver_is_shared_statelessly;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "stable workload" `Quick sweep_classifies_stable;
          Alcotest.test_case "overload grows" `Quick sweep_classifies_growing;
          Alcotest.test_case "blowup detection" `Quick sweep_detects_blowup;
          Alcotest.test_case "verdict strings" `Quick verdict_strings;
        ] );
    ]
