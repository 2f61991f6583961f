(* The conformance subsystem's own tests: reference-model semantics on
   hand-built scenarios, the differential driver over a block of seeds,
   and mutant detection + shrinking (the proof the differ can fail). *)

module B = Aqt_graph.Build
module N = Aqt_engine.Network
module Policies = Aqt_policy.Policies
module Ref_model = Aqt_check.Ref_model
module Gen = Aqt_check.Gen
module Diff = Aqt_check.Diff
module Shrink = Aqt_check.Shrink
module Check = Aqt_check.Check

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Ref_model on hand-built scenarios                                   *)
(* ------------------------------------------------------------------ *)

(* A single packet walks a 3-edge line to absorption; every counter the
   model exposes has a value computable by hand. *)
let ref_model_single_packet () =
  let l = B.line 3 in
  let m = Ref_model.create ~graph:l.graph ~policy:Policies.fifo () in
  let fwd1 = Ref_model.step m [ { N.route = [| 0; 1; 2 |]; tag = "t" } ] in
  check_bool "no forwards before arrival" true (fwd1 = []);
  check_int "buffered on edge 0" 1 (Ref_model.buffer_len m 0);
  let fwd2 = Ref_model.step m [] in
  check_int "one forward" 1 (List.length fwd2);
  check_bool "forwarded on edge 0" true (List.mem_assoc 0 fwd2);
  let _ = Ref_model.step m [] in
  let _ = Ref_model.step m [] in
  check_int "absorbed" 1 (Ref_model.absorbed m);
  check_int "in flight" 0 (Ref_model.in_flight m);
  check_int "sent on 0" 1 (Ref_model.sent_on_edge m 0);
  check_int "sent on 2" 1 (Ref_model.sent_on_edge m 2);
  check_int "max queue" 1 (Ref_model.max_queue_ever m);
  (* Injected end of step 1, absorbed end of step 4. *)
  check_int "latency" 3 (Ref_model.delivered_latency_max m);
  check_bool "injection log" true
    (Ref_model.injection_log m = [| (1, [| 0; 1; 2 |]) |])

(* Policy order is observable through buffer_packets and the forward
   choice: under LIFO the later arrival goes first. *)
let ref_model_lifo_order () =
  let l = B.line 1 in
  let m = Ref_model.create ~graph:l.graph ~policy:Policies.lifo () in
  let p1 = Ref_model.place_initial m [| 0 |] in
  let p2 = Ref_model.place_initial m [| 0 |] in
  check_int "two buffered" 2 (Ref_model.buffer_len m 0);
  (match Ref_model.buffer_packets m 0 with
  | [ head; tail ] ->
      check_int "lifo head is later arrival" p2.Aqt_engine.Packet.id
        head.Aqt_engine.Packet.id;
      check_int "lifo tail" p1.Aqt_engine.Packet.id tail.Aqt_engine.Packet.id
  | _ -> Alcotest.fail "expected two packets");
  let fwd = Ref_model.step m [] in
  check_bool "lifo forwards p2 first" true (fwd = [ (0, p2.Aqt_engine.Packet.id) ])

(* The reference model must agree with the engine even without the
   differential driver in the loop: a tiny lockstep run, compared by the
   public counters. *)
let ref_model_matches_engine_smoke () =
  let l = B.ring 4 in
  let routes = [ [| 0; 1 |]; [| 1; 2; 3 |]; [| 2 |] ] in
  let m = Ref_model.create ~graph:l.graph ~policy:Policies.ftg () in
  let net = N.create ~graph:l.graph ~policy:Policies.ftg () in
  List.iter (fun r -> ignore (Ref_model.place_initial m (Array.copy r))) routes;
  List.iter (fun r -> ignore (N.place_initial net (Array.copy r))) routes;
  for _ = 1 to 6 do
    ignore (Ref_model.step m []);
    N.step net []
  done;
  check_int "absorbed agree" (N.absorbed net) (Ref_model.absorbed m);
  check_int "in flight agree" (N.in_flight net) (Ref_model.in_flight m);
  check_int "max queue agree" (N.max_queue_ever net)
    (Ref_model.max_queue_ever m);
  check_int "max dwell agree" (N.max_dwell net) (Ref_model.max_dwell m);
  for e = 0 to 3 do
    check_int
      (Printf.sprintf "sent on %d agree" e)
      (N.sent_on_edge net e)
      (Ref_model.sent_on_edge m e)
  done

(* ------------------------------------------------------------------ *)
(* Generator                                                           *)
(* ------------------------------------------------------------------ *)

let gen_deterministic () =
  (* Same seed, same scenario — the replayability contract. *)
  let s1 = Gen.generate 17 and s2 = Gen.generate 17 in
  check_bool "labels equal" true (s1.Gen.label = s2.Gen.label);
  check_bool "schedules equal" true (s1.Gen.schedule = s2.Gen.schedule);
  check_bool "initial equal" true (s1.Gen.initial = s2.Gen.initial);
  (* Different seeds eventually differ (not a tautology: check a block). *)
  let distinct =
    List.init 16 Gen.generate
    |> List.map (fun s -> s.Gen.label)
    |> List.sort_uniq compare |> List.length
  in
  check_bool "seeds vary" true (distinct > 1)

let gen_total_and_wellformed () =
  (* Every seed in a block yields a scenario the differ can execute. *)
  for seed = 0 to 31 do
    let s = Gen.generate seed in
    check_bool
      (Printf.sprintf "seed %d has positive horizon" seed)
      true
      (Gen.horizon s > 0);
    let m = Aqt_graph.Digraph.n_edges s.Gen.graph in
    List.iter
      (fun r ->
        Array.iter
          (fun e ->
            check_bool
              (Printf.sprintf "seed %d initial edge in range" seed)
              true (e >= 0 && e < m))
          r)
      s.Gen.initial;
    Array.iter
      (List.iter (fun (inj : N.injection) ->
           check_bool
             (Printf.sprintf "seed %d injection nonempty" seed)
             true
             (Array.length inj.N.route > 0)))
      s.Gen.schedule
  done

let family_label_prefix f =
  (* Scenario labels lead with the family tag. *)
  match f with
  | Gen.Free -> "free"
  | Gen.Shared_bucket -> "shared-bucket"
  | Gen.Windowed -> "windowed"
  | Gen.Leaky -> "leaky"
  | Gen.Capacity_regime -> "capacity"
  | Gen.Local_bursty -> "local-burst"
  | Gen.Feedback_routing -> "feedback"
  | Gen.Fabric -> "fabric"

let gen_all_families_reachable () =
  (* Unrestricted generation reaches all eight families in a modest seed
     block, and a restricted draw yields only the requested family. *)
  let seen = Hashtbl.create 8 in
  for seed = 0 to 199 do
    let s = Gen.generate seed in
    List.iter
      (fun f ->
        let p = family_label_prefix f in
        if
          String.length s.Gen.label >= String.length p
          && String.sub s.Gen.label 0 (String.length p) = p
        then Hashtbl.replace seen f ())
      Gen.all_families
  done;
  (* "local-burst" also prefixes "local"; count distinct family keys. *)
  check_bool "all eight families reachable" true (Hashtbl.length seen >= 8);
  List.iter
    (fun f ->
      for seed = 0 to 15 do
        let s = Gen.generate ~families:[ f ] seed in
        let p = family_label_prefix f in
        check_bool
          (Printf.sprintf "restricted draw yields %s" (Gen.family_name f))
          true
          (String.length s.Gen.label >= String.length p
          && String.sub s.Gen.label 0 (String.length p) = p)
      done)
    Gen.all_families;
  check_bool "family names round-trip" true
    (List.for_all
       (fun f -> Gen.family_of_string (Gen.family_name f) = Some f)
       Gen.all_families)

let gen_scenarios_self_admissible () =
  (* Every generated scenario's own schedule already satisfies every
     rate-style obligation it declares — admissibility is by construction,
     not an artifact of the engine run.  (Dwell bounds need a run and are
     covered by the differ.) *)
  let module RC = Aqt_adversary.Rate_check in
  for seed = 0 to 149 do
    let s = Gen.generate seed in
    let m = Aqt_graph.Digraph.n_edges s.Gen.graph in
    let log =
      Array.of_list
        (List.concat
           (List.mapi
              (fun i injs ->
                List.map (fun (inj : N.injection) -> (i + 1, inj.N.route)) injs)
              (Array.to_list s.Gen.schedule)))
    in
    let name k = Printf.sprintf "seed %d %s admissible" seed k in
    List.iter
      (function
        | Gen.Rate_ok rate ->
            check_bool (name "rate") true (RC.check_rate ~m ~rate log = Ok ())
        | Gen.Windowed_ok { w; rate } ->
            check_bool (name "windowed") true
              (RC.check_windowed ~m ~w ~rate log = Ok ())
        | Gen.Leaky_ok { b; rate } ->
            check_bool (name "leaky") true
              (RC.check_leaky ~m ~b ~rate log = Ok ())
        | Gen.Local_ok { rate; sigmas } ->
            check_bool (name "local") true
              (RC.check_local ~rate ~sigmas log = Ok ())
        | Gen.Dwell_bound _ | Gen.Routes_valid | Gen.Drop_accounting -> ())
      s.Gen.obligations
  done

(* ------------------------------------------------------------------ *)
(* Differential driver                                                 *)
(* ------------------------------------------------------------------ *)

let engine_conforms_on_seed_block () =
  let summary = Check.run_seeds ~n:40 () in
  check_int "seeds run" 40 summary.Check.seeds_run;
  (match summary.Check.failures with
  | [] -> ()
  | { Check.seed; failure; _ } :: _ ->
      Alcotest.failf "seed %d diverged: %a" seed Diff.pp_failure failure);
  check_bool "no failures" true (summary.Check.failures = [])

(* Each mutant on the record arms alone, then with a one-domain Soa arm
   beside them: the mutant corrupts every engine arm alike. *)
let mutant_is_caught (name, mutant, families) () =
  List.iter
    (fun soa_domains ->
      match
        Check.find_mutant_failure ~families ~soa_domains ~max_seeds:60 mutant
      with
      | None -> Alcotest.failf "mutant %s not caught by any scanned seed" name
      | Some (scenario, failure) ->
          (* The shrunk reproducer must still fail under the mutant... *)
          (match Diff.run ~mutant ~soa_domains scenario with
          | None -> Alcotest.failf "shrunk %s reproducer no longer fails" name
          | Some f ->
              check_bool "same kind" true (f.Diff.kind = failure.Diff.kind));
          (* ...and the pristine engine must pass the same scenario, so the
             failure is attributable to the mutation, not the shrink. *)
          check_bool "clean engine passes shrunk scenario" true
            (Diff.run ~soa_domains scenario = None))
    [ []; [ 1 ] ]

(* A failure's replay line carries the flags that drew its scenario and
   ran its arms: under a family restriction the seed maps to another
   scenario, and a Soa arm runs only under [--backend soa]. *)
let replay_names_the_run () =
  let summary =
    Check.run_seeds ~families:[ Gen.Local_bursty ] ~soa_domains:[ 1 ]
      ~mutant:Diff.Violate_local_budget ~n:1 ()
  in
  let replay =
    "replay: aqt_sim check --seed 0 --family local --backend soa --domains 1"
  in
  let lines =
    String.split_on_char '\n' (Format.asprintf "%a" Check.pp_summary summary)
  in
  check_bool replay true (List.mem replay lines)

(* Shrinking must preserve the failure while only removing work. *)
let shrink_reduces () =
  match Check.find_mutant_failure ~max_seeds:60 Diff.Flip_tie_order with
  | None -> Alcotest.fail "flip-tie-order mutant not caught"
  | Some (shrunk, _) ->
      let original = Gen.generate shrunk.Gen.seed in
      let count s =
        List.length s.Gen.initial
        + Array.fold_left
            (fun acc l -> acc + List.length l)
            0 s.Gen.schedule
      in
      check_bool "no larger than original" true
        (count shrunk <= count original
        && Gen.horizon shrunk <= Gen.horizon original)

(* The paper's own run as an oracle scenario: Theorem 3.17's FIFO
   construction (eps = 1/5, s0 = 50, one cycle) replayed as Lemma 3.3's
   static adversary A' over steps 1 to 1,000 ([Check.theorem_3_17]). *)
let theorem_3_17_scenario () =
  let cfg =
    Aqt.Instability.config ~eps:(Aqt_util.Ratio.make 1 5) ~s0:50 ~cycles:1 ()
  in
  let scenario = Check.theorem_3_17 ~horizon:1_000 cfg in
  check_int "every seed packet replayed" cfg.seed
    (List.length scenario.Gen.initial);
  check_int "steps 1 to 1,000" 1_000 (Gen.horizon scenario);
  let injections =
    Array.fold_left (fun n l -> n + List.length l) 0 scenario.Gen.schedule
  in
  check_bool "more than 5,000 injections" true (injections > 5_000);
  (match Diff.run scenario with
  | None -> ()
  | Some f -> Alcotest.failf "the replay diverged: %a" Diff.pp_failure f);
  List.iter
    (fun (name, mutant) ->
      check_bool (name ^ " caught") true (Diff.run ~mutant scenario <> None))
    [
      ("flip-tie-order", Diff.Flip_tie_order);
      ("drop-injection 5000", Diff.Drop_injection 5_000);
    ]

let () =
  Alcotest.run "aqt_check"
    [
      ( "ref-model",
        [
          Alcotest.test_case "single packet walk" `Quick
            ref_model_single_packet;
          Alcotest.test_case "lifo order" `Quick ref_model_lifo_order;
          Alcotest.test_case "matches engine smoke" `Quick
            ref_model_matches_engine_smoke;
        ] );
      ( "gen",
        [
          Alcotest.test_case "deterministic" `Quick gen_deterministic;
          Alcotest.test_case "total and well-formed" `Quick
            gen_total_and_wellformed;
          Alcotest.test_case "all families reachable" `Quick
            gen_all_families_reachable;
          Alcotest.test_case "scenarios self-admissible" `Quick
            gen_scenarios_self_admissible;
        ] );
      ( "diff",
        Alcotest.test_case "engine conforms on 40 seeds" `Quick
          engine_conforms_on_seed_block
        :: List.map
             (fun ((name, _, _) as m) ->
               Alcotest.test_case ("catches " ^ name) `Quick
                 (mutant_is_caught m))
             Check.mutants
        @ [
            Alcotest.test_case "shrink reduces" `Quick shrink_reduces;
            Alcotest.test_case "theorem 3.17 replay conforms" `Quick
              theorem_3_17_scenario;
            Alcotest.test_case "replay names the run's flags" `Quick
              replay_names_the_run;
          ] );
    ]
