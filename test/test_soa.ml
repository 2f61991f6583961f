(* Struct-of-arrays engine tests: the byte-identical-trajectory property
   against the record engine across domain counts (through the
   Aqt_check.Diff lockstep differ), and unit tests of the internals the
   differ cannot see — arena growth staying geometric, steady-state
   stepping allocating nothing, and packet-slot recycling. *)

module B = Aqt_graph.Build
module Soa = Aqt_engine.Soa
module N = Aqt_engine.Network
module Policies = Aqt_policy.Policies
module Gen = Aqt_check.Gen
module Diff = Aqt_check.Diff

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Trajectory equivalence across domain counts                         *)
(* ------------------------------------------------------------------ *)

(* Random scenario x domain count in {1, 2, 4}: the SoA arms must match
   the reference model and the record engine buffer-by-buffer on every
   step, stats and logs at the end.  The differ reports the first
   divergent step, so a failure here is directly replayable with
   `aqt_sim check --seed K --backend soa --domains 1,2,4`. *)
let prop_soa_matches_sequential =
  QCheck.Test.make ~name:"soa trajectories match across domains {1,2,4}"
    ~count:25
    (QCheck.int_range 0 5_000)
    (fun seed ->
      let scenario = Gen.generate seed in
      match Diff.run ~soa_domains:[ 1; 2; 4 ] scenario with
      | None -> true
      | Some failure ->
          QCheck.Test.fail_reportf "seed %d: %a" seed Diff.pp_failure failure)

(* The same random runs as the record engine's log test (no exogenous
   noise: Soa has none), driven in lockstep; Soa's logs must equal the
   (time, id)-sorted reference at one and two domains. *)
let prop_logs_match_sorted_reference =
  QCheck.Test.make ~name:"soa logs equal the (time, id)-sorted reference"
    ~count:60
    (QCheck.pair (QCheck.int_range 0 100_000) (QCheck.int_range 1 2))
    (fun (seed, domains) ->
      let r =
        Log_runs.run ~soa_domains:domains ~exogenous:false ~seed ~steps:40 ()
      in
      let soa = Option.get r.soa in
      Fun.protect
        ~finally:(fun () -> Soa.shutdown soa)
        (fun () ->
          Soa.injection_log soa = Log_runs.reference_log r
          && Soa.initial_final_routes soa = Log_runs.reference_initials r
          && Log_runs.times_follow_ids r))

(* ------------------------------------------------------------------ *)
(* Arena growth                                                        *)
(* ------------------------------------------------------------------ *)

(* Pile 600 single-edge packets onto one buffer: the slice must double
   geometrically (so the arena stays within a constant factor of the
   live data, abandoned half-size slices included), never lose a
   packet, and survive relocation. *)
let arena_growth () =
  let l = B.line 1 in
  let soa = Soa.create ~graph:l.graph ~policy:Policies.fifo () in
  for _ = 1 to 6 do
    Soa.step soa
      (List.init 100 (fun _ : Soa.injection -> { route = [| 0 |]; tag = "" }))
  done;
  (* 600 in, one served per step (5 serves: the first step's batch
     arrives in substep 2, after forwarding). *)
  check_int "buffered" 595 (Soa.buffer_len soa 0);
  let used, cap = Soa.arena_words soa in
  check_bool "used within capacity" true (used <= cap);
  check_bool "capacity is geometric, not runaway" true (cap <= 16 * used);
  Soa.shutdown soa

(* After warmup on a steady workload the arenas must stop growing: a
   steady-state step neither bump-allocates buffer slices nor extends
   the route arena (the zero-allocation claim, measured at the arena
   layer where it is exact). *)
let steady_state_no_growth () =
  let ring = B.ring 64 in
  (* Four disjoint 16-hop routes covering the ring: exactly one arrival
     and one service per edge per step, so queues stay bounded and the
     arenas must stop moving once warm. *)
  let routes =
    Array.init 4 (fun i ->
        Array.init 16 (fun j -> ring.edges.(((i * 16) + j) mod 64)))
  in
  let injs =
    Array.to_list
      (Array.map (fun r : Soa.injection -> { route = r; tag = "" }) routes)
  in
  let soa = Soa.create ~graph:ring.graph ~policy:Policies.fifo () in
  for _ = 1 to 50 do
    Soa.step soa injs
  done;
  let used0, cap0 = Soa.arena_words soa in
  let slab0 = Soa.slab_slots soa in
  for _ = 1 to 200 do
    Soa.step soa injs
  done;
  let used1, cap1 = Soa.arena_words soa in
  check_int "arena used stable" used0 used1;
  check_int "arena capacity stable" cap0 cap1;
  check_int "slab stable" slab0 (Soa.slab_slots soa);
  Soa.shutdown soa

(* ------------------------------------------------------------------ *)
(* Packet recycling                                                    *)
(* ------------------------------------------------------------------ *)

(* Slots are recycled through the free stack: the slab high-water mark
   tracks the peak live population, not the injection count, and a
   drained system returns every slot to the pool. *)
let slot_recycling () =
  let l = B.line 4 in
  let soa = Soa.create ~graph:l.graph ~policy:Policies.fifo () in
  for _ = 1 to 100 do
    Soa.step soa [ { Soa.route = l.edges; tag = "" } ]
  done;
  let injected = Soa.injected_count soa in
  check_int "injections kept coming" 100 injected;
  check_bool "slab bounded by live population, not injections" true
    (Soa.slab_slots soa < 20);
  (* Drain: no more injections; every packet absorbs within 5 steps. *)
  for _ = 1 to 8 do
    Soa.step soa []
  done;
  check_int "drained" 0 (Soa.in_flight soa);
  check_int "conservation" injected (Soa.absorbed soa);
  check_int "all slots pooled" (Soa.slab_slots soa) (Soa.pooled soa);
  (* Refill after the drain: reuse must not mint fresh slots. *)
  let slab = Soa.slab_slots soa in
  for _ = 1 to 20 do
    Soa.step soa [ { Soa.route = l.edges; tag = "" } ]
  done;
  check_int "refill reuses pooled slots" slab (Soa.slab_slots soa);
  Soa.shutdown soa

let () =
  Alcotest.run "aqt_soa"
    [
      ( "equivalence",
        [
          QCheck_alcotest.to_alcotest prop_soa_matches_sequential;
          QCheck_alcotest.to_alcotest prop_logs_match_sorted_reference;
        ] );
      ( "arena",
        [
          Alcotest.test_case "growth is geometric" `Quick arena_growth;
          Alcotest.test_case "steady state allocates nothing" `Quick
            steady_state_no_growth;
        ] );
      ( "recycling",
        [ Alcotest.test_case "slots are reused" `Quick slot_recycling ] );
    ]
