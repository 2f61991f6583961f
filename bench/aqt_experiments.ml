(* The experiment suite: every figure, table and ablation of the paper
   (see DESIGN.md section 4 for the index, EXPERIMENTS.md for the recorded
   outcomes).

   Each experiment is registered in the campaign registry
   (Aqt_harness.Registry) under its stable id (f1..f2, e1..e15, a1..a7,
   c1..c2, n1..n2, fab1..fab2) with a deterministic parameter spec and a
   run function that reads its parameters from that spec (every field, and
   nothing the spec lacks: Spec.read checks both) and *returns* its tables
   and notes instead of printing them.  Two front ends consume the
   registry: bench/main.exe (direct run, prints tables and mirrors CSVs to
   bench_results/) and `aqt_sim campaign` (cached, journalled, parallel
   orchestration). *)

module Ratio = Aqt_util.Ratio
module Tbl = Aqt_util.Tbl
module D = Aqt_graph.Digraph
module Build = Aqt_graph.Build
module Network = Aqt_engine.Network
module Sim = Aqt_engine.Sim
module Recorder = Aqt_engine.Recorder
module Phased = Aqt_adversary.Phased
module Stock = Aqt_adversary.Stock
module RC = Aqt_adversary.Rate_check
module Policies = Aqt_policy.Policies
module G = Aqt.Gadget
module I = Aqt.Invariant
module Spec = Aqt_harness.Spec
module Registry = Aqt_harness.Registry
module Rb = Aqt_harness.Registry.Rb

let notef rb fmt = Printf.ksprintf (Rb.note rb) fmt

(* The construction parameters a spec names by its eps and s0. *)
let spec_params spec =
  Aqt.Params.make ~eps:Spec.(get spec ratio "eps")
    ~s0:Spec.(get spec int "s0") ()

(* A FIFO cyclic chain of [m] gadgets whose F(1) ingress held 2 S0 + 2
   seed packets, after the startup phase (Lemma 3.15) has run. *)
let started ?recorder params ~m =
  let net, g =
    Aqt.Startup.seeded ~n:params.Aqt.Params.n ~m ((2 * params.s0) + 2)
  in
  ignore (Phased.run ?recorder net (Aqt.Startup.phase ~params ~gadget:g));
  (net, g)

(* [started], then one pump (Lemma 3.6) from F(1) with the flows
   [flow_filter] keeps; also returns the F(1) ingress queue it began from. *)
let pumped ?recorder ?flow_filter params ~m =
  let net, g = started ?recorder params ~m in
  let s1 = (I.measure net g ~k:1).s_ingress in
  ignore
    (Phased.run ?recorder net
       (Aqt.Pump.phase ?flow_filter ~params ~gadget:g ~k:1));
  (net, g, s1)

(* ------------------------------------------------------------------ *)
(* F1 / F2: the figures                                                *)
(* ------------------------------------------------------------------ *)

let figure_3_1 spec rb =
  let m = Spec.(get spec int "m") in
  let rows =
    List.map
      (fun n ->
        let g = G.chain ~n ~m () in
        [
          Tbl.fi n;
          Tbl.fi (D.n_nodes g.graph);
          Tbl.fi (D.n_edges g.graph);
          Tbl.fb (D.is_dag g.graph);
          D.label g.graph (G.ingress g ~k:1);
          D.label g.graph (G.egress g ~k:1);
          D.label g.graph (G.egress g ~k:2);
        ])
      Spec.(get spec (list int) "ns")
  in
  Rb.table rb ~id:"f1_figure_3_1"
    ~headers:[ "n"; "nodes"; "edges"; "DAG"; "ingress"; "shared a'"; "egress" ]
    rows;
  Rb.note rb
    "The shared edge a' is both the egress of F and the ingress of F',\n\
     exactly as drawn in Figure 3.1."

let figure_3_2 spec rb =
  let rows =
    List.map
      (fun (n, m) ->
        let g = G.cyclic ~n ~m () in
        let relay = G.stitch_route g in
        [
          Tbl.fi n;
          Tbl.fi m;
          Tbl.fi (D.n_nodes g.graph);
          Tbl.fi (D.n_edges g.graph);
          Tbl.fb (D.is_dag g.graph);
          String.concat ">" (Array.to_list (Array.map (D.label g.graph) relay));
        ])
      Spec.(get spec (list (pair int int)) "nm")
  in
  Rb.table rb ~id:"f2_figure_3_2"
    ~headers:[ "n"; "M"; "nodes"; "edges"; "DAG"; "stitch relay" ]
    rows

(* ------------------------------------------------------------------ *)
(* E1: Theorem 3.17                                                    *)
(* ------------------------------------------------------------------ *)

let thm_3_17_instability spec rb =
  let rows = ref [] in
  let last_max_queue = ref 0 in
  List.iter
    (fun (eps, cycles) ->
      let cfg = Aqt.Instability.config ~eps ~cycles () in
      let res = Aqt.Instability.run cfg in
      last_max_queue := res.outcome.max_queue;
      Array.iteri
        (fun i (s : Aqt.Instability.cycle_stat) ->
          rows :=
            [
              Ratio.to_string eps;
              Ratio.to_string cfg.params.rate;
              Tbl.fi cfg.params.n;
              Tbl.fi cfg.m;
              Tbl.fi s.cycle;
              Tbl.fi s.start_step;
              Tbl.fi s.seed;
              (if i = 0 then "-" else Tbl.ff res.growth.(i - 1) ^ "x");
            ]
            :: !rows)
        res.stats)
    Spec.(get spec (list (pair ratio int)) "eps_cycles");
  Rb.table rb ~id:"e1_thm_3_17"
    ~headers:[ "eps"; "rate"; "n"; "M"; "cycle"; "start step"; "seed"; "growth" ]
    (List.rev !rows);
  Rb.metric rb "max_queue" (float_of_int !last_max_queue);
  Rb.note rb
    "Every epsilon shows sustained geometric growth of the seed queue:\n\
     FIFO is unstable at every rate above 1/2 (paper: Theorem 3.17)."

(* ------------------------------------------------------------------ *)
(* E2/E3/E4: the lemmas                                                *)
(* ------------------------------------------------------------------ *)

let lemma_3_15_startup spec rb =
  let eps = Spec.(get spec ratio "eps") and m = Spec.(get spec int "m") in
  let rows =
    List.map
      (fun s0 ->
        let params = Aqt.Params.make ~eps ~s0 () in
        let seed = (2 * s0) + 2 in
        let net, g = started params ~m in
        let m = I.measure net g ~k:1 in
        let predicted =
          Aqt.Params.s' ~r:params.r ~n:params.n ~total_old:seed
        in
        [
          Tbl.fi seed;
          Tbl.fi predicted;
          Tbl.fi m.s_ingress;
          Tbl.fi m.s_epath;
          Tbl.fb (I.holds_with_slack ~slack:(4 * params.n) net g ~k:1);
          Tbl.ff (float_of_int m.s_ingress /. float_of_int (seed / 2));
        ])
      Spec.(get spec (list int) "s0s")
  in
  Rb.table rb ~id:"e3_lemma_3_15"
    ~headers:
      [ "2S seeds"; "predicted S'"; "ingress"; "e-path"; "C holds"; "S'/S" ]
    rows;
  notef rb "Paper: S' = 2S(1-R_n) >= S(1+eps).  (Here eps = %s.)"
    (Ratio.to_string eps)

let lemma_3_6_pump spec rb =
  let eps = Spec.(get spec ratio "eps") and m = Spec.(get spec int "m") in
  let every = Spec.(get spec int "trajectory_every") in
  let s0s = Spec.(get spec (list int) "s0s") in
  let largest = List.fold_left max 0 s0s in
  let rows =
    List.map
      (fun s0 ->
        let params = Aqt.Params.make ~eps ~s0 () in
        (* Sample the largest arm so the journal carries the startup+pump
           trajectory the report plots. *)
        let recorder =
          if s0 = largest then Some (Recorder.make ~every ()) else None
        in
        let net, g, s1 = pumped ?recorder params ~m in
        (match recorder with
        | Some r ->
            Rb.trajectory rb (Recorder.to_rows r);
            Rb.metric rb "max_queue"
              (float_of_int (Network.max_queue_ever net))
        | None -> ());
        let m2 = I.measure net g ~k:2 in
        let left = I.measure net g ~k:1 in
        [
          Tbl.fi s1;
          Tbl.fi m2.s_ingress;
          Tbl.ff (float_of_int m2.s_ingress /. float_of_int s1);
          Tbl.ff (Aqt.Params.pump_factor ~r:params.r ~n:params.n);
          Tbl.fb (I.holds_with_slack ~slack:(4 * params.n) net g ~k:2);
          Tbl.fi (left.s_epath + left.s_ingress + left.extraneous);
        ])
      s0s
  in
  Rb.table rb ~id:"e2_lemma_3_6"
    ~headers:
      [
        "S before";
        "S' after";
        "measured S'/S";
        "predicted 2(1-R_n)";
        "C(S',F') holds";
        "left in F";
      ]
    rows;
  Rb.note rb
    "Measured growth matches the exact factor 2(1-R_n) > 1+eps; the source\n\
     gadget is left (nearly) empty, as the lemma requires."

(* Startup, one pump and the drain on a two-gadget chain, then the stitch
   (Lemma 3.16) with the flows [flow_filter] keeps: the queue S at F(2)'s
   egress, the stitch's plan for it, the fresh seeds it left at F(1)'s
   ingress, and the network. *)
let stitched ?flow_filter (params : Aqt.Params.t) =
  let net, g, _ = pumped params ~m:2 in
  let drain = Network.buffer_len net (G.ingress g ~k:2) + params.n in
  ignore
    (Sim.run ~net
       ~driver:(Phased.sequence [ Phased.idle drain ])
       ~horizon:drain ());
  let s = Network.buffer_len net (G.egress g ~k:2) in
  let plan =
    Aqt.Stitch.plan ~rate:params.rate ~relay:(G.stitch_route g)
      ~start:(Network.now net + 1) ~s
  in
  ignore
    (Phased.run net
       (Aqt.Stitch.phase ?flow_filter ~rate:params.rate ~gadget:g));
  (s, plan, Network.buffer_len net (G.ingress g ~k:1), net)

let lemma_3_16_stitch spec rb =
  let s0 = Spec.(get spec int "s0") in
  let rows =
    List.map
      (fun eps ->
        let params = Aqt.Params.make ~eps ~s0 () in
        let s, plan, fresh, net = stitched params in
        [
          Ratio.to_string params.rate;
          Tbl.fi s;
          Tbl.fi plan.r3s;
          Tbl.fi fresh;
          Tbl.fi (Network.in_flight net - fresh);
          Tbl.fi plan.duration;
        ])
      Spec.(get spec (list ratio) "eps_list")
  in
  Rb.table rb ~id:"e4_lemma_3_16"
    ~headers:
      [
        "rate";
        "S at egress";
        "r^3*S predicted";
        "fresh measured";
        "other leftovers";
        "phase steps (S+rS+r^2S)";
      ]
    rows

(* ------------------------------------------------------------------ *)
(* The Theorem 3.17 run that six experiments read                      *)
(* ------------------------------------------------------------------ *)

(* [Instability.run]'s result without its network. *)
type construction = {
  stats : Aqt.Instability.cycle_stat array;
  growth : float array;
  outcome : Sim.outcome;
  gadget : G.t;
  collapsed : string option;
}

let construction_of (r : Aqt.Instability.result) =
  {
    stats = r.stats;
    growth = r.growth;
    outcome = r.outcome;
    gadget = r.gadget;
    collapsed = r.collapsed;
  }

(* A run read as completed: raises its collapse, if it had one. *)
let completed c = match c.collapsed with Some msg -> failwith msg | None -> c

(* The construction with its injection log, without the network, which
   with its log is about twice the size. *)
type logged = {
  run : construction;
  reroutes : int;
  log : (int * int array) array;
  initial : int array array;
}

let logged_of (r : Aqt.Instability.result) =
  {
    run = construction_of r;
    reroutes = Network.reroute_count r.net;
    log = Network.injection_log r.net;
    initial = Network.initial_final_routes r.net;
  }

(* FIFO's construction at eps = 1/5, s0 = 400 and two cycles, which E5,
   E10's replay and FIFO arm, A3 at M = 7, A4 at l = 9, A5 transit-first
   and A7 without noise all read at their specs' values.  A process
   computes it once, with its log, when the first of them needs it; a
   reader on another domain waits meanwhile.  A reader whose spec names
   another construction runs its own. *)
let thm317_cfg =
  Aqt.Instability.config ~eps:(Ratio.make 1 5) ~s0:400 ~cycles:2
    ~log_injections:true ()

let thm317 =
  Aqt_util.Parallel.once (fun () ->
      logged_of (Aqt.Instability.run ~resilient:true thm317_cfg))

let is_thm317 cfg =
  { cfg with Aqt.Instability.log_injections = true } = thm317_cfg

(* [Instability.run ~resilient:true ?tie_order cfg] without its network:
   the shared run when [cfg] and [tie_order] are its own, a fresh one
   otherwise. *)
let construction ?(tie_order = Network.Transit_first) cfg =
  if tie_order = Network.Transit_first && is_thm317 cfg then (thm317 ()).run
  else construction_of (Aqt.Instability.run ~tie_order ~resilient:true cfg)

(* The completed construction at [cfg] with its log. *)
let logged_run cfg =
  let t =
    if is_thm317 cfg then thm317 ()
    else
      logged_of
        (Aqt.Instability.run ~resilient:true
           { cfg with Aqt.Instability.log_injections = true })
  in
  ignore (completed t.run);
  t

(* The construction a spec names by its eps, s0 and cycles. *)
let spec_config spec =
  Aqt.Instability.config ~eps:Spec.(get spec ratio "eps")
    ~s0:Spec.(get spec int "s0") ~cycles:Spec.(get spec int "cycles") ()

(* ------------------------------------------------------------------ *)
(* E5: Lemma 3.3                                                       *)
(* ------------------------------------------------------------------ *)

let lemma_3_3_rerouting spec rb =
  let cfg = spec_config spec in
  let t = logged_run cfg in
  let m = D.n_edges t.run.gadget.graph in
  let log = t.log in
  let check =
    match RC.check_rate ~m ~rate:cfg.params.rate log with
    | Ok () -> "LEGAL"
    | Error v -> Format.asprintf "VIOLATION: %a" RC.pp_violation v
  in
  Rb.table rb ~id:"e5_lemma_3_3"
    ~headers:[ "quantity"; "value" ]
    [
      [ "rate r"; Ratio.to_string cfg.params.rate ];
      [ "injections logged"; Tbl.fi (Array.length log) ];
      [ "reroute operations"; Tbl.fi t.reroutes ];
      [ "all-intervals rate check"; check ];
      [
        "burstiness vs ceil(r*len)";
        Tbl.fi (RC.burstiness ~m ~rate:cfg.params.rate log);
      ];
    ];
  Rb.note rb
    "Despite ~50k on-line route rewrites, the final effective routes satisfy\n\
     the exact rate-r constraint on every edge over every interval - the\n\
     dynamic adversary is an ordinary rate-r adversary (Lemma 3.3)."

(* ------------------------------------------------------------------ *)
(* E6/E7/E8: Section 4                                                 *)
(* ------------------------------------------------------------------ *)

let stability_row ~workload ~policy ~rate ~w ~d ~s_initial net =
  let verdictcell =
    match Aqt.Stability.verify_run ~s_initial ~w ~rate ~d net with
    | Some v ->
        [
          Tbl.fi v.bound;
          Tbl.fi v.max_dwell_seen;
          (if v.ok then "certified" else "VIOLATION");
        ]
    | None -> [ "-"; Tbl.fi (Network.max_dwell net); "no theorem" ]
  in
  [
    workload;
    policy;
    Ratio.to_string rate;
    Tbl.fi d;
    Tbl.fi w;
    Tbl.fi (Network.max_queue_ever net);
  ]
  @ verdictcell

let stability_headers =
  [
    "workload"; "policy"; "rate"; "d"; "w"; "max queue"; "bound";
    "max dwell"; "verdict";
  ]

(* A packed window-[w] burst at [rate] on a [d]-edge line under [policy],
   from [initial] packets placed on the whole line: [horizon] steps of
   injection and 100 more to drain. *)
let line_burst ?recorder ?(initial = 0) ~policy ~d ~w ~rate ~horizon () =
  let line = Build.line d in
  let net = Network.create ~graph:line.graph ~policy () in
  for _ = 1 to initial do
    ignore (Network.place_initial net line.edges)
  done;
  let adv =
    Stock.windowed_burst ~packed:true ~w ~rate ~routes:[ line.edges ] ~horizon
      ()
  in
  ignore
    (Sim.run ?recorder ~net ~driver:adv.driver ~horizon:(horizon + 100) ());
  net

let thm_4_1_greedy spec rb =
  let policies =
    [
      Policies.fifo; Policies.lifo; Policies.ntg; Policies.ftg; Policies.ffs;
      Policies.nis; Policies.nts; Policies.random ~seed:3;
    ]
  in
  (* Workload A: packed bursts on a line. *)
  let d = Spec.(get spec int "d") and w = Spec.(get spec int "w") in
  let horizon = Spec.(get spec int "horizon") in
  let rate = Ratio.make 1 (d + 1) in
  let line_rows =
    List.map
      (fun policy ->
        stability_row ~workload:"line/burst"
          ~policy:policy.Aqt_engine.Policy_type.name ~rate ~w ~d ~s_initial:0
          (line_burst ~policy ~d ~w ~rate ~horizon ()))
      policies
  in
  (* Workloads B..G: the standard scenario grid, each at r = 1/(d+1) with
     per-route rates scaled by the worst edge overlap.  The cells run one
     after another inside this experiment's scheduler task; each builds
     its own policy (the random policy carries a PRNG). *)
  let tasks =
    List.concat_map
      (fun (scenario : Aqt_workload.Workloads.t) ->
        List.map
          (fun mk -> (scenario, mk))
          [
            (fun () -> Policies.lifo);
            (fun () -> Policies.ntg);
            (fun () -> Policies.random ~seed:17);
          ])
      (Aqt_workload.Workloads.standard_grid ())
  in
  let grid_rows =
    List.map
      (fun ((scenario : Aqt_workload.Workloads.t), mk_policy) ->
        let policy = mk_policy () in
        let d = scenario.d in
        let rate = Ratio.make 1 (d + 1) in
        let per_route =
          Ratio.div rate
            (Ratio.of_int (Aqt_workload.Workloads.max_overlap scenario))
        in
        let net = Network.create ~graph:scenario.graph ~policy () in
        let adv =
          Stock.windowed_burst ~w ~rate:per_route ~routes:scenario.routes
            ~horizon ()
        in
        ignore (Sim.run ~net ~driver:adv.driver ~horizon:(horizon + 100) ());
        stability_row ~workload:scenario.name
          ~policy:policy.Aqt_engine.Policy_type.name ~rate ~w ~d ~s_initial:0
          net)
      tasks
  in
  Rb.table rb ~id:"e6_thm_4_1" ~headers:stability_headers
    (line_rows @ grid_rows);
  Rb.note rb
    "Paper: no packet dwells beyond floor(w*r) in one buffer for ANY greedy\n\
     protocol when r <= 1/(d+1)."

let thm_4_3_time_priority spec rb =
  let d = Spec.(get spec int "d") and w = Spec.(get spec int "w") in
  let horizon = Spec.(get spec int "horizon") in
  let every = Spec.(get spec int "trajectory_every") in
  let rate = Ratio.make 1 d in
  let row policy net =
    stability_row ~workload:"line/burst" ~policy ~rate ~w ~d ~s_initial:0 net
  in
  let rows =
    List.mapi
      (fun i (policy : Policies.t) ->
        (* Sample the first (FIFO) run so the campaign journal carries a
           trajectory of a certified-stable workload. *)
        let recorder = if i = 0 then Some (Recorder.make ~every ()) else None in
        let net = line_burst ?recorder ~policy ~d ~w ~rate ~horizon () in
        (match recorder with
        | Some r ->
            Rb.trajectory rb (Recorder.to_rows r);
            Rb.metric rb "max_queue"
              (float_of_int (Network.max_queue_ever net))
        | None -> ());
        row policy.name net)
      [ Policies.fifo; Policies.lis ]
  in
  (* Contrast: a non-time-priority policy at 1/d has no theorem (and the
     bound can be exceeded). *)
  let contrast = line_burst ~policy:Policies.lifo ~d ~w ~rate ~horizon () in
  Rb.table rb ~id:"e7_thm_4_3" ~headers:stability_headers
    (rows @ [ row "lifo (contrast)" contrast ]);
  Rb.note rb
    "FIFO and LIS are time-priority (Def 4.2): arrival beats later injection,\n\
     so the bound holds already at r = 1/d.  The packed burst meets the bound\n\
     with equality - the analysis is tight."

let cor_4_5_4_6_initial spec rb =
  let d = Spec.(get spec int "d") and w = Spec.(get spec int "w") in
  let horizon = Spec.(get spec int "horizon") in
  let rows =
    List.map
      (fun ((policy : Policies.t), rate, s) ->
        stability_row ~workload:(Printf.sprintf "line, S=%d" s)
          ~policy:policy.name ~rate ~w ~d ~s_initial:s
          (line_burst ~initial:s ~policy ~d ~w ~rate ~horizon ()))
      [
        (Policies.fifo, Ratio.make 1 8, 10);
        (Policies.fifo, Ratio.make 1 8, 100);
        (Policies.lis, Ratio.make 1 6, 50);
        (Policies.lifo, Ratio.make 1 10, 50);
        (Policies.ntg, Ratio.make 1 10, 25);
      ]
  in
  Rb.table rb ~id:"e8_cor_4_5_4_6" ~headers:stability_headers rows;
  Rb.note rb
    "With an S-initial-configuration the bound becomes floor(w°r°) for the\n\
     converted window w° = ceil((S+w+1)/(r°-r)) (Observation 4.4); rates must\n\
     now be strictly below 1/d (resp. 1/(d+1))."

(* ------------------------------------------------------------------ *)
(* E9: the Appendix                                                    *)
(* ------------------------------------------------------------------ *)

let appendix_asymptotics spec rb =
  let rows =
    List.map
      (fun k ->
        let eps = 1.0 /. float_of_int (1 lsl k) in
        let r = 0.5 +. eps in
        let n = Aqt.Params.n_formula ~r ~eps in
        let s0 = Aqt.Params.s0_formula ~r ~n in
        let log1e = log (1.0 /. eps) /. log 2.0 in
        [
          Printf.sprintf "2^-%d" k;
          Tbl.fi n;
          Tbl.ff (float_of_int n /. log1e);
          Tbl.fi s0;
          Tbl.ff (float_of_int s0 /. (log1e /. eps));
        ])
      Spec.(get spec (list int) "ks")
  in
  Rb.table rb ~id:"e9_appendix"
    ~headers:
      [
        "eps"; "n"; "n / log2(1/eps)"; "S0"; "S0 / ((1/eps) log2(1/eps))";
      ]
    rows;
  Rb.note rb
    "Both normalized columns settle to constants: n grows logarithmically\n\
     and S0 quasi-linearly in 1/eps, matching the Appendix."

(* ------------------------------------------------------------------ *)
(* E10/E11/E12: cross-policy and prior-work context                    *)
(* ------------------------------------------------------------------ *)

let threshold_sweep spec rb =
  let cfg = spec_config spec in
  let t = logged_run cfg in
  let results =
    Aqt.Baselines.replay_against ~initial:t.initial ~graph:t.run.gadget.graph
      ~rate:cfg.params.rate ~log:t.log
      ~policies:Policies.all_deterministic
      ~settle:(4 * cfg.params.s0) ()
  in
  let rows =
    List.map
      (fun (r : Aqt.Baselines.replay_result) ->
        [
          r.policy;
          Tbl.fi r.max_queue;
          Tbl.fi r.backlog;
          Tbl.fi r.absorbed;
          (if r.backlog > 100 then "retains backlog" else "drains");
        ])
      results
  in
  Rb.table rb ~id:"e10_policy_specificity"
    ~headers:[ "policy"; "max queue"; "backlog after settle"; "absorbed"; "verdict" ]
    rows;
  Rb.note rb
    "Only FIFO retains the adversarial backlog; LIS and FTG (universally\n\
     stable) and even LIFO/NTG/FFS drain this particular sequence - the\n\
     construction exploits FIFO's arrival-order scheduling specifically.\n";
  (* Second arm: point the ADAPTIVE construction itself at other policies
     and watch where its measured preconditions collapse. *)
  let adaptive_rows =
    List.map
      (fun policy ->
        let r =
          if policy == Policies.fifo then t.run
          else
            construction_of (Aqt.Instability.run ~policy ~resilient:true cfg)
        in
        let seeds =
          String.concat " -> "
            (Array.to_list
               (Array.map
                  (fun (s : Aqt.Instability.cycle_stat) -> string_of_int s.seed)
                  r.stats))
        in
        [
          policy.Aqt_engine.Policy_type.name;
          seeds;
          (match r.collapsed with
          | None -> "construction completed (queues grew)"
          | Some msg ->
              "collapsed: "
              ^ (if String.length msg > 48 then String.sub msg 0 48 ^ "..."
                 else msg));
        ])
      [ Policies.fifo; Policies.lis; Policies.ftg; Policies.lifo ]
  in
  Rb.table rb ~id:"e10_adaptive_cross_policy"
    ~headers:[ "policy"; "seed trajectory"; "outcome" ]
    adaptive_rows;
  Rb.note rb
    "Run adaptively, the adversary cannot even establish its invariant under\n\
     other policies: FTG rejects rerouting (not historic, Def 3.1), and under\n\
     LIS/LIFO the pump's C(S, F) precondition never materializes."

let ntg_low_rate spec rb =
  (* Thm 4.1 says ANY greedy protocol (NTG included) is stable below
     1/(d+1); Borodin et al. destabilize NTG with routes of length ~16/r.
     So the lowest unstable rate for NTG on route length d sits between
     1/(d+1) and ~16/d: the paper's bound is optimal up to a constant.
     We certify the lower side empirically. *)
  let w = Spec.(get spec int "w") and horizon = Spec.(get spec int "horizon") in
  let rows =
    List.map
      (fun d ->
        let rate = Ratio.make 1 (d + 1) in
        let net = line_burst ~policy:Policies.ntg ~d ~w ~rate ~horizon () in
        let verdict =
          match Aqt.Stability.verify_run ~w ~rate ~d net with
          | Some v when v.ok -> "stable (certified)"
          | Some _ -> "BOUND VIOLATED"
          | None -> "no theorem"
        in
        [
          Tbl.fi d;
          Ratio.to_string rate;
          Printf.sprintf "%.3f" (16.0 /. float_of_int d);
          Tbl.fi (Network.max_dwell net);
          verdict;
        ])
      Spec.(get spec (list int) "ds")
  in
  Rb.table rb ~id:"e11_ntg_sandwich"
    ~headers:
      [
        "route length d";
        "stable below (Thm 4.1)";
        "unstable around 16/d [7]";
        "max dwell at 1/(d+1)";
        "verdict";
      ]
    rows;
  Rb.note rb
    "The window [1/(d+1), 16/d] pins NTG's instability threshold to within a\n\
     constant factor: the paper's d-dependence is essentially optimal (sec. 5)."

let prior_work_table spec rb =
  let rows =
    List.map
      (fun (t : Aqt.Baselines.threshold) ->
        [ t.source; Tbl.fi t.year; Tbl.ff ~dec:4 t.rate; t.note ])
      Aqt.Baselines.fifo_instability_thresholds
  in
  Rb.table rb ~id:"e12_prior_instability"
    ~headers:[ "source"; "year"; "unstable above"; "note" ]
    rows;
  Rb.note rb "Stability side, evaluated on this paper's own gadget graphs:";
  let rows =
    List.map
      (fun (n, m_gadgets) ->
        let g = G.chain ~n ~m:m_gadgets () in
        let m = D.n_edges g.graph in
        let alpha = D.max_in_degree g.graph in
        (* The longest route the construction uses spans every gadget. *)
        let d = (m_gadgets * (n + 1)) + 1 in
        [
          Printf.sprintf "F_%d^%d" n m_gadgets;
          Tbl.fi m;
          Tbl.fi alpha;
          Tbl.fi d;
          Ratio.to_string (Aqt.Baselines.diaz_stability_bound ~d ~m ~alpha);
          Ratio.to_string (Aqt.Baselines.this_paper_bound ~d);
        ])
      Spec.(get spec (list (pair int int)) "networks")
  in
  Rb.table rb ~id:"e12_stability_bounds"
    ~headers:
      [
        "network"; "edges m"; "alpha"; "longest route d";
        "Diaz et al. 1/(2dm*alpha)"; "this paper 1/d";
      ]
    rows;
  Rb.note rb
    "The paper's 1/d stability bound is network-independent and far above\n\
     the 1/(2dm*alpha) formula on every graph in the construction."

(* E13: what it costs to approach the 1/2 threshold. *)
let approach_to_half spec rb =
  let rows =
    List.map
      (fun den ->
        let eps = Ratio.make 1 den in
        let p = Aqt.Params.make ~eps () in
        let m = Aqt.Params.chain_length_actual ~r:p.r ~n:p.n in
        let growth = Aqt.Params.cycle_growth_actual ~r:p.r ~n:p.n ~m in
        (* Steps of one cycle, by the exact model: startup 2S+n, pumps
           (2S_k + n) with S_k growing by the pump factor, drain, stitch. *)
        let f = Aqt.Params.pump_factor ~r:p.r ~n:p.n in
        let s0 = float_of_int p.s0 in
        let pump_steps = ref 0.0 and s = ref (s0 *. (f /. 2.0) *. 2.0) in
        for _ = 1 to m - 1 do
          pump_steps := !pump_steps +. (2.0 *. !s) +. float_of_int p.n;
          s := !s *. f
        done;
        let cycle_steps =
          (2.0 *. s0 *. 2.0) +. !pump_steps +. !s +. (!s *. 2.2)
        in
        [
          Ratio.to_string (Ratio.add Ratio.half eps);
          Ratio.to_string eps;
          Tbl.fi p.n;
          Tbl.fi p.s0;
          Tbl.fi m;
          Tbl.ff growth;
          Printf.sprintf "%.1e" cycle_steps;
        ])
      Spec.(get spec (list int) "dens")
  in
  Rb.table rb ~id:"e13_approach_half"
    ~headers:
      [
        "rate"; "eps"; "n"; "S0"; "M"; "growth/cycle"; "~steps/cycle";
      ]
    rows;
  Rb.note rb
    "Driving the rate toward 1/2 costs n = Theta(log 1/eps) longer gadgets,\n\
     S0 = Theta(1/eps log 1/eps) larger seeds and M = Theta(1/eps) more\n\
     gadgets per chain - instability survives arbitrarily close to 1/2 but\n\
     the time scale diverges, consistent with FIFO's stability below 1/d on\n\
     any fixed network (Thm 4.3)."

(* E15: context from [4] - the ring is universally stable, so no crafted
   adversary of any rate < 1 can blow it up; high-rate stress across every
   policy stays bounded. *)
let ring_universal_stability spec rb =
  let nodes = Spec.(get spec int "nodes") in
  let scenario =
    Aqt_workload.Workloads.ring_wrap ~nodes ~d:Spec.(get spec int "d")
  in
  let rate = Spec.(get spec ratio "rate") in
  let horizon = Spec.(get spec int "horizon") in
  let per_route =
    Ratio.div rate (Ratio.of_int (Aqt_workload.Workloads.max_overlap scenario))
  in
  let rows =
    List.map
      (fun mk_policy ->
        let policy : Policies.t = mk_policy () in
        let prng = Aqt_util.Prng.create 99 in
        let arms =
          [
            ( "shared-bucket",
              Stock.shared_token_bucket ~rate ~routes:scenario.routes ~horizon
                () );
            ( "window-burst",
              Stock.windowed_burst ~packed:true ~w:40 ~rate:per_route
                ~routes:scenario.routes ~horizon () );
            (* The exact arms run at 19/20; the stochastic arm runs at 4/5 —
               at load 0.95 a Bernoulli feed performs near-critical random
               walks whose sqrt(t) excursions the growth classifier would
               flag, which is queueing noise, not adversarial instability. *)
            ( "bernoulli(4/5)",
              Stock.bernoulli ~prng
                ~rate:
                  (Ratio.div (Ratio.make 4 5)
                     (Ratio.of_int
                        (Aqt_workload.Workloads.max_overlap scenario)))
                ~routes:scenario.routes () );
          ]
        in
        List.map
          (fun (arm, adv) ->
            let report =
              Aqt.Sweep.classify ~name:arm ~graph:scenario.graph ~policy
                ~adversary:adv ~horizon ()
            in
            [
              policy.name;
              arm;
              Aqt.Sweep.verdict_to_string report.verdict;
              Tbl.fi report.max_queue;
              Tbl.fi report.final_backlog;
            ])
          arms)
      [
        (fun () -> Policies.fifo);
        (fun () -> Policies.lifo);
        (fun () -> Policies.lis);
        (fun () -> Policies.nis);
        (fun () -> Policies.ftg);
        (fun () -> Policies.ntg);
        (fun () -> Policies.ffs);
        (fun () -> Policies.nts);
      ]
  in
  Rb.table rb ~id:"e15_ring_universal"
    ~headers:[ "policy"; "workload"; "verdict"; "max queue"; "final backlog" ]
    (List.concat rows);
  notef rb
    "At aggregate rate %s on a %d-ring - far above the 1/d thresholds -\n\
     every greedy policy stays bounded: the ring is universally stable\n\
     (Andrews et al. [4]), so the instability of Theorem 3.17 genuinely\n\
     needs the gadget topology, not just high rate."
    (Ratio.to_string rate) nodes

(* E14: the fluid analysis (Claims 3.9-3.11) vs the discrete simulation,
   trajectory point by trajectory point. *)
let fluid_vs_discrete spec rb =
  let params = spec_params spec in
  let net, g = started params ~m:3 in
  let m1 = I.measure net g ~k:1 in
  let total_old = m1.s_epath + m1.s_ingress in
  let fluid =
    Aqt.Fluid.pump_profile ~r:params.r ~n:params.n ~total_old
  in
  (* Sample gadget-2 e-buffer populations every step during the pump. *)
  let n = params.n in
  let series = Array.make_matrix (fluid.duration + 2) n 0 in
  let egress = G.egress g ~k:2 in
  let sent_before = Network.sent_on_edge net egress in
  (* Drive the pump manually so we can sample after every step. *)
  let start = Network.now net + 1 in
  let phase = Aqt.Pump.phase ~params ~gadget:g ~k:1 in
  let driver, duration = phase net start in
  for step = 1 to duration do
    let t = Network.now net + 1 in
    driver.Sim.before_step net t;
    Network.step net (driver.Sim.injections_at net t);
    if step <= fluid.duration + 1 then
      for i = 1 to n do
        series.(step).(i - 1) <- Network.buffer_len net g.G.e.(1).(i - 1)
      done
  done;
  let measured_peak i =
    Array.fold_left max 0 (Array.map (fun row -> row.(i - 1)) series)
  in
  let measured_at rel_t i =
    let idx = max 0 (min (fluid.duration + 1) rel_t) in
    series.(idx).(i - 1)
  in
  let rows =
    List.init n (fun idx ->
        let i = idx + 1 in
        let final_t = total_old + i in
        [
          Tbl.fi i;
          Tbl.ff ~dec:4 fluid.ri.(idx);
          Tbl.ff ~dec:0 fluid.ti.(idx);
          Tbl.ff ~dec:0 fluid.peak_queue.(idx);
          Tbl.fi (measured_peak i);
          Tbl.ff ~dec:0 fluid.final_old.(idx);
          Tbl.fi (measured_at final_t i);
        ])
  in
  Rb.table rb ~id:"e14_fluid_vs_discrete"
    ~headers:
      [
        "i"; "R_i"; "t_i"; "peak Q (fluid)"; "peak Q (sim)";
        "old at 2S+i (fluid)"; "at 2S+i (sim)";
      ]
    rows;
  let crossed = Network.sent_on_edge net egress - sent_before in
  notef rb "egress crossings by 2S+n: fluid 2S*R_n = %.0f, simulated %d"
    fluid.crossed_egress crossed;
  notef rb "S' (fluid) = %.0f; measured C(S', F(2)) ingress = %d\n"
    fluid.s' (I.measure net g ~k:2).s_ingress;
  Rb.note rb
    "The discrete execution tracks the paper's fluid trajectories to within\n\
     a few packets at every probe point: the Claims hold quantitatively, not\n\
     just asymptotically."

(* ------------------------------------------------------------------ *)
(* A1-A6: ablations of the instability construction                    *)
(* ------------------------------------------------------------------ *)

(* Run startup then one (possibly ablated) pump; report the resulting queue
   at gadget 2 relative to the intact pump. *)
let ablation_pump spec rb =
  let params = spec_params spec in
  let arms =
    [
      ("intact pump", fun _ -> true);
      ( "no short flows (part 2)",
        fun f ->
          not
            (String.length (Aqt_adversary.Flow.tag f) >= 5
            && String.sub (Aqt_adversary.Flow.tag f) 0 5 = "short") );
      ("no long flow (part 3)", fun f -> Aqt_adversary.Flow.tag f <> "long");
      ("no tail flow (part 4)", fun f -> Aqt_adversary.Flow.tag f <> "tail");
    ]
  in
  let rows =
    List.map
      (fun (name, flow_filter) ->
        let net, g, s1 = pumped ~flow_filter params ~m:3 in
        let m2 = I.measure net g ~k:2 in
        [
          name;
          Tbl.fi s1;
          Tbl.fi m2.s_epath;
          Tbl.fi m2.s_ingress;
          Tbl.fi m2.empty_e_buffers;
          Tbl.ff (float_of_int (min m2.s_epath m2.s_ingress) /. float_of_int s1);
          Tbl.fb
            (I.holds_with_slack ~slack:(4 * params.n) net g ~k:2
            && min m2.s_epath m2.s_ingress
               > int_of_float (float_of_int s1 *. 1.2));
        ])
      arms
  in
  Rb.table rb ~id:"a1_pump_ablation"
    ~headers:
      [
        "arm"; "S before"; "e-path after"; "ingress after"; "empty e-bufs";
        "growth"; "pumps (C holds & grows)";
      ]
    rows;
  Rb.note rb
    "Without the short flows the old packets drain through the e'-path\n\
     unimpeded (no queue is built); without the long/tail flows the ingress\n\
     side of C(S', F') collapses.  Every part of the adversary is load-bearing."

let ablation_stitch spec rb =
  let params = spec_params spec in
  let arms =
    [
      ("intact stitch", fun _ -> true);
      ("no mixer (part 2)", fun f -> Aqt_adversary.Flow.tag f <> "mixer");
      ("no relay (part 1)", fun f -> Aqt_adversary.Flow.tag f <> "relay");
    ]
  in
  let rows =
    List.map
      (fun (name, flow_filter) ->
        let s, plan, fresh, _ = stitched ~flow_filter params in
        [ name; Tbl.fi s; Tbl.fi plan.r3s; Tbl.fi fresh ])
      arms
  in
  Rb.table rb ~id:"a2_stitch_ablation"
    ~headers:
      [ "arm"; "S at egress"; "r^3*S target"; "fresh seeds measured" ]
    rows;
  Rb.note rb
    "Without the mixer the fresh packets are injected while the relay stream\n\
     still occupies a2, so they partially drain before the phase ends;\n\
     without the relay there is nothing to time against and the fresh queue\n\
     falls short of r^3*S."

let ablation_chain_length spec rb =
  let eps = Spec.(get spec ratio "eps") in
  let rows =
    List.map
      (fun m ->
        let cfg = Aqt.Instability.config ~eps ~s0:400 ~m ~cycles:2 () in
        let res = completed (construction cfg) in
        let g0 = res.growth.(0) in
        [
          Tbl.fi m;
          Tbl.ff
            (Aqt.Params.cycle_growth_actual ~r:cfg.params.r ~n:cfg.params.n ~m);
          Tbl.ff g0;
          (if g0 > 1.0 then "grows (unstable)" else "shrinks");
        ])
      Spec.(get spec (list int) "ms")
  in
  Rb.table rb ~id:"a3_chain_length"
    ~headers:[ "M"; "predicted growth"; "measured growth"; "verdict" ]
    rows;
  Rb.note rb
    "The stitch costs a factor ~r^3; pumping must amortize it.  Growth\n\
     crosses 1 exactly where the exact model predicts: too few gadgets and\n\
     the construction decays, enough gadgets and queues diverge."

(* A4: the Section 5 generalization — asymmetric gadgets F_(n,l). *)
let lean_gadget spec rb =
  let eps = Spec.(get spec ratio "eps") in
  let rows =
    List.map
      (fun f_len ->
        let cfg = Aqt.Instability.config ~eps ~s0:400 ~f_len ~cycles:2 () in
        let res = completed (construction cfg) in
        let d = (cfg.m * (cfg.params.n + 1)) + 1 in
        [
          Tbl.fi cfg.params.n;
          Tbl.fi f_len;
          Tbl.fi (D.n_edges res.gadget.graph);
          Tbl.fi d;
          Tbl.fi res.stats.(0).seed;
          Tbl.fi res.stats.(2).seed;
          Tbl.ff res.growth.(0);
          Tbl.fi res.outcome.steps_run;
        ])
      Spec.(get spec (list int) "f_lens")
  in
  Rb.table rb ~id:"a4_lean_gadget"
    ~headers:
      [
        "n"; "f-path l"; "edges"; "longest route"; "seed 0"; "seed 2";
        "growth"; "steps";
      ]
    rows;
  Rb.note rb
    "The f-path only stages the part-(3)/(4) long flows, so shrinking it to\n\
     one edge preserves the pump factor 2(1-R_n) while cutting the graph by\n\
     ~40% and reducing the drain loss from n to l - the Section 5 remark\n\
     (compose other gadgets with the same chaining) realized on the paper's\n\
     own gadget family."

let ablation_tie_order spec rb =
  let cfg = spec_config spec in
  let rows =
    List.map
      (fun (name, tie_order) ->
        let res = completed (construction ~tie_order cfg) in
        [
          name;
          Tbl.fi res.stats.(0).seed;
          Tbl.fi res.stats.(1).seed;
          Tbl.fi res.stats.(2).seed;
          Tbl.ff res.growth.(0);
        ])
      [
        ("transit first (default)", Network.Transit_first);
        ("injection first", Network.Injection_first);
      ]
  in
  Rb.table rb ~id:"a5_tie_order"
    ~headers:[ "tie order"; "seed 0"; "seed 1"; "seed 2"; "growth" ]
    rows;
  Rb.note rb
    "The model leaves same-step arrival order to the adversary; the fluid\n\
     analysis is insensitive to it, and so is the measured construction."

let ablation_pump_factor_vs_n spec rb =
  let eps = Spec.(get spec ratio "eps") in
  let rows =
    List.map
      (fun n ->
        let params = Aqt.Params.make ~eps ~n ~s0:(max 500 (2 * n)) () in
        let net, g, s1 = pumped params ~m:3 in
        let s2 = (I.measure net g ~k:2).s_ingress in
        [
          Tbl.fi n;
          Tbl.ff (Aqt.Params.pump_factor ~r:params.r ~n);
          Tbl.ff (float_of_int s2 /. float_of_int s1);
          Tbl.fb (float_of_int s2 /. float_of_int s1 > 1.2);
        ])
      Spec.(get spec (list int) "ns")
  in
  Rb.table rb ~id:"a6_pump_factor_vs_n"
    ~headers:
      [ "n"; "predicted 2(1-R_n)"; "measured S'/S"; "beats 1+eps" ]
    rows;
  Rb.note rb
    "2(1-R_n) increases toward 2(1-(1-r)) = 2r with n; already at the\n\
     Appendix's n the factor clears 1+eps with room to spare, and longer\n\
     paths buy diminishing returns at quadratic cost in steps."

(* A7: robustness — superimpose uncoordinated Bernoulli cross-traffic on the
   Theorem 3.17 run and see whether the crafted schedule still pumps. *)

(* The seed trajectory under noise of [noise] per edge, and the message of
   the phase that collapsed, if one did. *)
let noisy_run (cfg : Aqt.Instability.config) noise =
  let num = Ratio.num noise and den = Ratio.den noise in
  let net, gadget = Aqt.Startup.seeded ~n:cfg.params.n ~m:cfg.m cfg.seed in
  let seeds = ref [] in
  let ingress = G.ingress gadget ~k:1 in
  let base =
    Aqt_adversary.Phased.cycle
      ~on_cycle:(fun _ _ -> seeds := Network.buffer_len net ingress :: !seeds)
      (Aqt.Instability.phases cfg gadget)
  in
  (* Single-edge noise packets on uniformly random edges: they impose
     load num/den on every edge on top of the crafted schedule, as
     exogenous traffic outside the adversary's budget. *)
  let prng = Aqt_util.Prng.create 2718 in
  let m_edges = D.n_edges gadget.graph in
  let noise =
    Array.init m_edges (fun e : Network.injection ->
        { route = [| e |]; tag = "noise" })
  in
  let hit = Array.make m_edges false in
  let result =
    match
      while List.length !seeds <= cfg.cycles do
        let t = Network.now net + 1 in
        base.Sim.before_step net t;
        let injections = base.Sim.injections_at net t in
        (* Coins in edge order, drawn in one pass, then the injection list
           built back to front so it is in edge order too. *)
        Aqt_util.Prng.bernoulli_fill prng ~num ~den hit;
        let exogenous = ref [] in
        for e = m_edges - 1 downto 0 do
          if hit.(e) then exogenous := noise.(e) :: !exogenous
        done;
        Network.step net ~exogenous:!exogenous injections;
        if t > cfg.max_steps then failwith "horizon exceeded"
      done
    with
    | () -> None
    | exception (Failure msg | Invalid_argument msg) -> Some msg
  in
  (List.rev !seeds, result)

let noise_robustness spec rb =
  let cfg = spec_config spec in
  let rows =
    List.map
      (fun noise ->
        let label, (seeds, result) =
          if Ratio.equal noise Ratio.zero then
            (* Without noise, the trajectory is the construction's own. *)
            let r = construction cfg in
            let seed (s : Aqt.Instability.cycle_stat) = s.seed in
            ("no noise", (List.map seed (Array.to_list r.stats), r.collapsed))
          else
            ( Printf.sprintf "%g%% per edge" (100. *. Ratio.to_float noise),
              noisy_run cfg noise )
        in
        [
          label;
          String.concat " -> " (List.map string_of_int seeds);
          (match result with
          | None ->
              let a = List.nth seeds 0 and b = List.nth seeds 1 in
              Printf.sprintf "pumps (x%.2f/cycle)"
                (float_of_int b /. float_of_int a)
          | Some msg ->
              "collapsed: "
              ^ (if String.length msg > 40 then String.sub msg 0 40 ^ "..."
                 else msg));
        ])
      Spec.(get spec (list ratio) "noise")
  in
  Rb.table rb ~id:"a7_noise_robustness"
    ~headers:[ "cross-traffic"; "seed trajectory"; "outcome" ]
    rows;
  Rb.note rb
    "Light uncoordinated cross-traffic (which already breaks the rate-r\n\
     budget) leaves the pump intact - the construction is not a knife-edge\n\
     schedule.  Heavier noise erodes the invariant until a phase's measured\n\
     precondition fails: the instability needs its timing, not silence."

(* ------------------------------------------------------------------ *)
(* C1-C2: bounded buffers and link speedup                             *)
(* (the arXiv:1707.03856 / arXiv:1902.08069 regime)                    *)
(* ------------------------------------------------------------------ *)

module Capacity = Aqt_capacity.Model
module Tradeoff = Aqt_capacity.Tradeoff

(* The shared capacity workload: an 8-ring with 4-hop arcs; every
   [period] steps a burst of [burst] packets is injected on one rotating
   route.  Long-run per-edge load is rho = 4*burst/(8*period), but it
   arrives as a [burst]-deep clump at the route's first edge — the
   regime where buffer size, drop discipline and speedup actually
   matter.  (A smooth one-per-route schedule never queues at all: the
   staggered arcs interleave perfectly.) *)
let capacity_cell ~burst ~period ~horizon ~capacity =
  let ring = Build.ring 8 in
  let routes =
    Array.init 8 (fun i ->
        Array.init 4 (fun j -> ring.Build.edges.((i + j) mod 8)))
  in
  let net =
    Network.create ~capacity ~graph:ring.Build.graph ~policy:Policies.fifo ()
  in
  let driver =
    Sim.injections_only (fun _ t ->
        if t mod period = 1 then
          let r = routes.(t / period mod 8) in
          List.init burst (fun _ : Network.injection ->
              { route = r; tag = "cap" })
        else [])
  in
  let outcome = Sim.run ~net ~driver ~horizon () in
  (net, outcome)

(* C1: the drop-rate grid over (buffer size, link speedup).  Drop-tail
   FIFO at critical load (rho = 1) arriving in 8-deep bursts: at unit
   speed only a burst-sized buffer stops the bleeding, while each extra
   unit of speedup shaves the buffer needed for zero drops — the
   1902.08069 message that a little speedup substitutes for a lot of
   buffer. *)
let capacity_sweep spec rb =
  let burst = Spec.(get spec int "burst") in
  let period = Spec.(get spec int "period") in
  let horizon = Spec.(get spec int "horizon") in
  let caps = Spec.(get spec (list int) "caps") in
  let speedups = Spec.(get spec (list int) "speedups") in
  let rows = ref [] in
  let min_cap = Array.make (List.fold_left max 0 speedups + 1) (-1) in
  List.iter
    (fun s ->
      List.iter
        (fun cap ->
          let capacity =
            Capacity.uniform ~policy:Capacity.Drop_tail ~speedup:s cap
          in
          let net, outcome = capacity_cell ~burst ~period ~horizon ~capacity in
          let injected = Network.injected_count net in
          let dropped = Network.dropped net in
          if dropped = 0 && min_cap.(s) < 0 then min_cap.(s) <- cap;
          rows :=
            [
              Tbl.fi s;
              Tbl.fi cap;
              Tbl.fi injected;
              Tbl.fi dropped;
              Printf.sprintf "%.4f" (Tradeoff.drop_rate ~injected ~dropped);
              Tbl.fi (Network.peak_occupancy net);
              Tbl.fi outcome.Sim.max_queue;
            ]
            :: !rows)
        caps)
    speedups;
  Rb.table rb ~id:"c1_drop_grid"
    ~headers:
      [ "s"; "cap"; "injected"; "dropped"; "drop_rate"; "peak_occupancy";
        "max_queue" ]
    (List.rev !rows);
  Rb.table rb ~id:"c1_min_buffer"
    ~headers:[ "s"; "min cap (no drops)"; "s >= ceil(rho)" ]
    (List.map
       (fun s ->
         [
           Tbl.fi s;
           (if min_cap.(s) < 0 then "-" else Tbl.fi min_cap.(s));
           Tbl.fb (s >= Tradeoff.min_speedup ~rho_num:burst ~rho_den:(2 * period));
         ])
       speedups);
  notef rb
    "Drop-tail FIFO at critical per-edge load rho = %d/%d, arriving as \
     %d-deep single-edge bursts every %d steps.  The zero-drop frontier \
     moves left as s grows: speedup substitutes for buffer."
    burst (2 * period) burst period

(* C2: drop disciplines compared at critical load (rho = 1, s = 1).
   Drop-tail and drop-head shed the same volume (the service rate fixes
   what can leave), but drop-head sheds the *oldest* packets, so the
   survivors are fresh: its max dwell stays flat while drop-tail's grows
   with the buffer.  The shared Dynamic-Threshold pool (total = 8*cap,
   alpha = 1) moves the same budget to wherever the backlog is. *)
let capacity_policies spec rb =
  let burst = Spec.(get spec int "burst") in
  let period = Spec.(get spec int "period") in
  let horizon = Spec.(get spec int "horizon") in
  let caps = Spec.(get spec (list int) "caps") in
  let disciplines =
    [
      ( "drop-tail",
        fun cap -> Capacity.uniform ~policy:Capacity.Drop_tail cap );
      ( "drop-head",
        fun cap -> Capacity.uniform ~policy:Capacity.Drop_head cap );
      ( "dt-shared",
        fun cap -> Capacity.shared ~alpha_num:1 ~alpha_den:1 (8 * cap) );
    ]
  in
  let rows = ref [] in
  List.iter
    (fun (name, model) ->
      List.iter
        (fun cap ->
          let net, outcome =
            capacity_cell ~burst ~period ~horizon ~capacity:(model cap)
          in
          let injected = Network.injected_count net in
          let dropped = Network.dropped net in
          rows :=
            [
              name;
              Tbl.fi cap;
              Tbl.fi injected;
              Tbl.fi dropped;
              Printf.sprintf "%.4f" (Tradeoff.drop_rate ~injected ~dropped);
              Printf.sprintf "%.4f"
                (Tradeoff.delivered_fraction ~injected ~dropped);
              Tbl.fi (Network.displaced net);
              Tbl.fi outcome.Sim.max_dwell;
              Tbl.fi (Network.peak_occupancy net);
            ]
            :: !rows)
        caps)
    disciplines;
  Rb.table rb ~id:"c2_policies"
    ~headers:
      [ "discipline"; "cap"; "injected"; "dropped"; "drop_rate"; "delivered";
        "displaced"; "max_dwell"; "peak_occupancy" ]
    (List.rev !rows);
  notef rb
    "Sub-critical load rho = %d/%d at unit speed, arriving as %d-deep \
     single-edge bursts.  Per-discipline buffer budget: cap per edge for \
     the uniform disciplines, 8*cap in the shared Dynamic-Threshold pool \
     (which concentrates it wherever the burst lands)."
    burst (2 * period) burst

(* ------------------------------------------------------------------ *)
(* N1-N2: the new adversary families as stability sweeps               *)
(* ------------------------------------------------------------------ *)

module LB = Aqt_adversary.Local_burst
module FB = Aqt_adversary.Feedback

(* The two topologies both sweeps run on: a 6-ring with overlapping 3-hop
   arcs (every edge shared by up to three routes) and the parallel-paths
   gadget (edge-disjoint branches). *)
let n_topologies () =
  let r = Build.ring 6 in
  let arc i = Array.init 3 (fun j -> r.Build.edges.((i + j) mod 6)) in
  let p = Build.parallel_paths ~branches:3 ~hops:3 in
  [
    ("ring", r.Build.graph, [ arc 0; arc 2; arc 4 ]);
    ("gadget", p.Build.graph, Array.to_list p.Build.paths);
  ]

(* N1: the (rho, sigma_e) grid of the locally bursty model
   (arXiv:2208.09522).  One token-bucket flow per route at rate 1/den plus
   a one-off burst of b per flow; the per-edge budgets are derived by
   [Local_burst.budgets], and every cell's injection log is re-verified
   against them.  Queues stay bounded across the whole grid (both graphs
   are universally stable); sigma only shifts the transient peak, which is
   exactly the refinement the model buys over a single global burst. *)
let local_burst_grid spec rb =
  let horizon = Spec.(get spec int "horizon") in
  let dens = Spec.(get spec (list int) "dens") in
  let bursts = Spec.(get spec (list int) "bursts") in
  let rows = ref [] in
  List.iter
    (fun (topo, graph, routes) ->
      let m = D.n_edges graph in
      List.iter
        (fun den ->
          List.iter
            (fun b ->
              let flows = List.map (fun route -> (route, b)) routes in
              let adv =
                LB.make ~m ~flow_rate:(Ratio.make 1 den) ~flows ~horizon ()
              in
              let net =
                Network.create ~log_injections:true ~graph
                  ~policy:Policies.fifo ()
              in
              let outcome =
                Sim.run ~net ~driver:adv.LB.driver ~horizon:(horizon + 100) ()
              in
              let legal =
                RC.check_local ~rate:adv.LB.rate ~sigmas:adv.LB.sigmas
                  (Network.injection_log net)
                = Ok ()
              in
              rows :=
                [
                  topo;
                  Ratio.to_string adv.LB.rate;
                  Tbl.fi b;
                  Tbl.fi (Array.fold_left max 0 adv.LB.sigmas);
                  Tbl.fi (Network.injected_count net);
                  Tbl.fi outcome.Sim.max_queue;
                  Tbl.fi (Network.peak_occupancy net);
                  Tbl.fb legal;
                ]
                :: !rows)
            bursts)
        dens)
    (n_topologies ());
  Rb.table rb ~id:"n1_local_grid"
    ~headers:
      [ "graph"; "rho"; "burst"; "sigma_max"; "injected"; "max_queue";
        "peak_occupancy"; "legal" ]
    (List.rev !rows);
  notef rb
    "Locally bursty adversary: one rate-1/den token-bucket flow per route \
     plus a one-off burst of b per flow at t=1; (rho, sigma_e) derived \
     from the flow set and re-verified on every cell's injection log \
     (column `legal`).  Horizon %d + 100 drain steps." horizon

(* N2: the feedback-driven routing grid (arXiv:1812.11113).  One
   aggregate-rate release bucket, routes chosen online by greedy
   water-filling over the observed queues, hot edges truncating buffered
   packets.  Lower [hot] = a more aggressive adversary reaction; the
   rate-legality column shows the aggregate-bucket argument holding
   regardless of what the feedback rule picks. *)
let feedback_grid spec rb =
  let horizon = Spec.(get spec int "horizon") in
  let rates = Spec.(get spec (list (pair int int)) "rates") in
  let hots = Spec.(get spec (list int) "hots") in
  let rows = ref [] in
  List.iter
    (fun (topo, graph, routes) ->
      let m = D.n_edges graph in
      let pool = Array.of_list routes in
      List.iter
        (fun (num, den) ->
          List.iter
            (fun hot ->
              let rate = Ratio.make num den in
              let adv = FB.make ~rate ~pool ~hot ~horizon () in
              let net =
                Network.create ~log_injections:true ~graph
                  ~policy:Policies.fifo ()
              in
              let outcome =
                Sim.run ~net ~driver:adv.FB.driver ~horizon:(horizon + 100) ()
              in
              let legal =
                RC.check_rate ~m ~rate (Network.injection_log net) = Ok ()
              in
              rows :=
                [
                  topo;
                  Ratio.to_string rate;
                  Tbl.fi hot;
                  Tbl.fi (Network.injected_count net);
                  Tbl.fi (Network.reroute_count net);
                  Tbl.fi outcome.Sim.max_queue;
                  Tbl.fi (Network.peak_occupancy net);
                  Tbl.fb legal;
                ]
                :: !rows)
            hots)
        rates)
    (n_topologies ());
  Rb.table rb ~id:"n2_feedback_grid"
    ~headers:
      [ "graph"; "rate"; "hot"; "injected"; "reroutes"; "max_queue";
        "peak_occupancy"; "legal" ]
    (List.rev !rows);
  notef rb
    "Feedback-driven routing: an aggregate rate-r release bucket whose \
     routes are chosen online against the observed queue vector (greedy \
     water-filling), with buffered packets truncated on edges whose queue \
     reaches `hot`.  Smaller hot = more aggressive rerouting.  Column \
     `legal` re-checks the injection log against the declared rate.  \
     Horizon %d + 100 drain steps." horizon

(* ------------------------------------------------------------------ *)
(* FAB1/FAB2: datacenter fabrics                                       *)
(* ------------------------------------------------------------------ *)

module Scenario = Aqt_fabric.Scenario
module Traffic = Aqt_workload.Traffic

(* FAB1: queue growth under fat-tree incast across utilisation, FIFO vs
   LIFO vs LIS.  15 senders converge on one receiver, so the receiver
   downlink saturates at util 1 and over-subscribes at 9/8; the policies
   shape who waits, not how much waits (work conservation), so max_queue
   and backlog agree while dwell/latency split.  Runs on the SoA backend
   (1 domain) — byte-identical to the record engine by the fabric
   conformance family. *)
let fabric_incast spec rb =
  let horizon = Spec.(get spec int "horizon") in
  let utils = Spec.(get spec (list (pair int int)) "utils") in
  let rows = ref [] in
  List.iter
    (fun (policy : Policies.t) ->
      List.iter
        (fun (un, ud) ->
          let t =
            Scenario.make
              ~topo:(Scenario.Fat_tree { k = 4 })
              ~pattern:(Traffic.Incast { senders = 15 })
              ~utilisation:(Ratio.make un ud) ~policy ~horizon ~seed:1 ()
          in
          let o = Scenario.run ~backend:(`Soa 1) t in
          rows :=
            [
              policy.name;
              Printf.sprintf "%d/%d" un ud;
              Tbl.fi o.Scenario.injected;
              Tbl.fi o.Scenario.absorbed;
              Tbl.fi o.Scenario.in_flight;
              Tbl.fi o.Scenario.max_queue;
              Tbl.fi o.Scenario.peak_occupancy;
              Tbl.fi o.Scenario.max_dwell;
              Tbl.ff ~dec:2 o.Scenario.latency_mean;
              Tbl.fb o.Scenario.legal;
            ]
            :: !rows)
        utils)
    [ Policies.fifo; Policies.lifo; Policies.lis ];
  Rb.table rb ~id:"fab1_incast"
    ~headers:
      [ "policy"; "util"; "injected"; "absorbed"; "in_flight"; "max_queue";
        "peak_occupancy"; "max_dwell"; "latency_mean"; "legal" ]
    (List.rev !rows);
  notef rb
    "Fat-tree(4) incast, 15 senders -> 1 receiver, flow sizes from the \
     heavy-tailed default CDF, ECMP per flow.  Utilisation is the load on \
     the receiver downlink; 9/8 over-subscribes it, so the backlog grows \
     linearly with the horizon for every work-conserving policy.  Column \
     `legal` re-checks each injection log against its compiled (rho, \
     sigma_e) budget.  SoA backend, 1 domain, horizon %d + 200 drain \
     steps." horizon

(* FAB2: shared Dynamic-Threshold vs statically partitioned buffers on a
   spine-leaf hotspot.  Partitioning needs c slots on every edge (c * m
   total) and still drops whenever a single queue wants more than c;
   a DT pool concentrates a far smaller total where the hotspot lands,
   with alpha trading drop rate against how much one queue may hog. *)
let fabric_dt_grid spec rb =
  let horizon = Spec.(get spec int "horizon") in
  let alphas = Spec.(get spec (list (pair int int)) "alphas") in
  let topo =
    Scenario.Spine_leaf { spines = 4; leaves = 8; hosts_per_leaf = 4 }
  in
  let scenario capacity =
    Scenario.make ~topo
      ~pattern:(Traffic.Hotspot { hot_num = 1; hot_den = 2 })
      ~utilisation:Ratio.one ~capacity ~horizon ~seed:1 ()
  in
  let m = D.n_edges (Scenario.build_topo topo).Build.graph in
  let rows = ref [] in
  let record label alpha total o =
    rows :=
      [
        label;
        alpha;
        Tbl.fi total;
        Tbl.fi o.Scenario.injected;
        Tbl.fi o.Scenario.dropped;
        Tbl.ff ~dec:4
          (float_of_int o.Scenario.dropped
          /. float_of_int (max 1 o.Scenario.injected));
        Tbl.fi o.Scenario.peak_occupancy;
        Tbl.fi o.Scenario.max_queue;
        Tbl.fb o.Scenario.legal;
      ]
      :: !rows
  in
  List.iter
    (fun c ->
      let o = Scenario.run (scenario (Capacity.uniform c)) in
      record "partitioned" (Printf.sprintf "c=%d" c) (c * m) o)
    Spec.(get spec (list int) "partitioned");
  List.iter
    (fun total ->
      List.iter
        (fun (an, ad) ->
          let o =
            Scenario.run
              (scenario (Capacity.shared ~alpha_num:an ~alpha_den:ad total))
          in
          record "shared-dt" (Printf.sprintf "%d/%d" an ad) total o)
        alphas)
    Spec.(get spec (list int) "totals");
  Rb.table rb ~id:"fab2_dt_grid"
    ~headers:
      [ "buffers"; "alpha"; "total"; "injected"; "dropped"; "drop_rate";
        "peak_occupancy"; "max_queue"; "legal" ]
    (List.rev !rows);
  notef rb
    "Spine-leaf(4,8,4) hotspot (permutation background, non-hot senders \
     redirect to one hot host with probability 1/2) at utilisation 1.  \
     Partitioned rows give every one of the %d edges its own drop-tail \
     queue of depth c (total c*%d slots); shared-dt rows give all edges \
     one Dynamic-Threshold pool of `total` slots (admit while queue < \
     alpha * free slots).  Record backend, horizon %d + 200 drain steps."
    m m horizon

(* ------------------------------------------------------------------ *)
(* Registration                                                        *)
(* ------------------------------------------------------------------ *)

let ilist xs = Spec.List (List.map (fun i -> Spec.Int i) xs)
let plist ps = Spec.List (List.map (fun (a, b) -> Spec.List [ Spec.Int a; Spec.Int b ]) ps)
let rlist ps = Spec.List (List.map (fun (n, d) -> Spec.Ratio (n, d)) ps)

(* Each body reads its parameters from its entry's spec, the one place they
   are written; the cache key hashes that spec with a digest of the code. *)
let build () =
  let registry = Registry.create () in
  let reg name title spec f =
    Registry.register registry
      {
        Registry.name;
        title;
        spec;
        run =
          (fun () ->
            Spec.read spec (fun reader ->
                let rb = Rb.create () in
                f reader rb;
                Rb.result rb));
      }
  in
  reg "f1" "Figure 3.1 - the gadget F_n^2 (structure audit)"
    [ ("ns", ilist [ 2; 4; 8 ]); ("m", Spec.Int 2) ]
    figure_3_1;
  reg "f2" "Figure 3.2 - the cyclic chain F_n^M + e0 (structure audit)"
    [ ("nm", plist [ (4, 4); (8, 8); (9, 16) ]) ]
    figure_3_2;
  reg "e1" "Theorem 3.17 - FIFO unstable at 1/2+eps: seed queue per cycle"
    [
      ( "eps_cycles",
        Spec.List
          (List.map
             (fun (n, d, c) ->
               Spec.List [ Spec.Ratio (n, d); Spec.Int c ])
             [ (1, 20, 2); (1, 10, 3); (1, 5, 3) ]) );
    ]
    thm_3_17_instability;
  reg "e2" "Lemma 3.6 - one pump multiplies the queue by 2(1-R_n)"
    [
      ("eps", Spec.Ratio (1, 5));
      ("s0s", ilist [ 200; 400; 800; 1600 ]);
      ("m", Spec.Int 3);
      ("trajectory_every", Spec.Int 50);
    ]
    lemma_3_6_pump;
  reg "e3" "Lemma 3.15 - startup establishes C(S', F(1))"
    [
      ("eps", Spec.Ratio (1, 5));
      ("s0s", ilist [ 200; 400; 800; 1600 ]);
      ("m", Spec.Int 2);
    ]
    lemma_3_15_startup;
  reg "e4" "Lemma 3.16 - stitching a queue into r^3*S fresh packets"
    [ ("eps_list", rlist [ (1, 5); (1, 10) ]); ("s0", Spec.Int 400) ]
    lemma_3_16_stitch;
  reg "e5" "Lemma 3.3 - the rerouting adversary is a legal rate-r adversary"
    [ ("eps", Spec.Ratio (1, 5)); ("s0", Spec.Int 400); ("cycles", Spec.Int 2) ]
    lemma_3_3_rerouting;
  reg "e6" "Theorem 4.1 - every greedy protocol at r <= 1/(d+1)"
    [ ("d", Spec.Int 5); ("w", Spec.Int 60); ("horizon", Spec.Int 12_000) ]
    thm_4_1_greedy;
  reg "e7" "Theorem 4.3 - time-priority protocols at the sharper r <= 1/d"
    [
      ("d", Spec.Int 5);
      ("w", Spec.Int 60);
      ("horizon", Spec.Int 12_000);
      ("trajectory_every", Spec.Int 100);
    ]
    thm_4_3_time_priority;
  reg "e8" "Corollaries 4.5/4.6 - arbitrary initial configurations"
    [ ("d", Spec.Int 4); ("w", Spec.Int 16); ("horizon", Spec.Int 8_000) ]
    cor_4_5_4_6_initial;
  reg "e9" "Appendix - n = Theta(log 1/eps), S0 = Theta(1/eps log 1/eps)"
    [ ("ks", ilist [ 2; 3; 4; 5; 6; 7; 8; 9; 10 ]) ]
    appendix_asymptotics;
  reg "e10"
    "Policy specificity - the Thm 3.17 sequence replayed under every policy"
    [ ("eps", Spec.Ratio (1, 5)); ("s0", Spec.Int 400); ("cycles", Spec.Int 2) ]
    threshold_sweep;
  reg "e11" "Section 5 - the d-vs-rate sandwich for NTG-style instability"
    [
      ("w", Spec.Int 60);
      ("ds", ilist [ 2; 4; 8; 16; 32 ]);
      ("horizon", Spec.Int 10_000);
    ]
    ntg_low_rate;
  reg "e12" "Prior work - FIFO instability thresholds and stability bounds"
    [ ("networks", plist [ (4, 2); (8, 8); (9, 16) ]) ]
    prior_work_table;
  reg "e13"
    "Approaching rate 1/2 - construction size as eps shrinks (Thm 3.17)"
    [ ("dens", ilist [ 4; 8; 16; 32; 64; 128; 256 ]) ]
    approach_to_half;
  reg "e14"
    "Claims 3.9-3.11 - fluid trajectories vs discrete simulation (one pump)"
    [ ("eps", Spec.Ratio (1, 5)); ("s0", Spec.Int 1000) ]
    fluid_vs_discrete;
  reg "e15"
    "Context [4] - the ring is universally stable: rate-0.95 stress, all \
     policies"
    [
      ("nodes", Spec.Int 12);
      ("d", Spec.Int 6);
      ("rate", Spec.Ratio (19, 20));
      ("horizon", Spec.Int 40_000);
    ]
    ring_universal_stability;
  reg "a1" "Ablation - knock out parts of the Lemma 3.6 pump adversary"
    [ ("eps", Spec.Ratio (1, 5)); ("s0", Spec.Int 500) ]
    ablation_pump;
  reg "a2" "Ablation - the Lemma 3.16 stitch without its mixer flow"
    [ ("eps", Spec.Ratio (1, 5)); ("s0", Spec.Int 500) ]
    ablation_stitch;
  reg "a3" "Ablation - per-cycle growth vs chain length M"
    [ ("eps", Spec.Ratio (1, 5)); ("ms", ilist [ 3; 4; 5; 6; 7; 9 ]) ]
    ablation_chain_length;
  reg "a4"
    "Section 5 generalization - asymmetric gadgets F_(n,l) (lean f-paths)"
    [ ("eps", Spec.Ratio (1, 5)); ("f_lens", ilist [ 9; 6; 3; 1 ]) ]
    lean_gadget;
  reg "a5" "Ablation - substep-2 tie order (transit-first vs injection-first)"
    [ ("eps", Spec.Ratio (1, 5)); ("s0", Spec.Int 400); ("cycles", Spec.Int 2) ]
    ablation_tie_order;
  reg "a6" "Ablation - pump factor 2(1-R_n) vs path length n"
    [ ("eps", Spec.Ratio (1, 5)); ("ns", ilist [ 3; 5; 7; 9; 11; 13 ]) ]
    ablation_pump_factor_vs_n;
  reg "c1" "Buffer size x speedup - the drop-rate grid on a saturated ring"
    [
      ("caps", ilist [ 0; 1; 2; 3; 4; 6; 8; 12; 16 ]);
      ("speedups", ilist [ 1; 2; 3 ]);
      ("burst", Spec.Int 8);
      ("period", Spec.Int 4);
      ("horizon", Spec.Int 1600);
    ]
    capacity_sweep;
  reg "c2" "Drop disciplines - drop-tail vs drop-head vs DT shared pool"
    [
      ("caps", ilist [ 1; 2; 3; 4; 6; 8; 12; 16 ]);
      ("burst", Spec.Int 8);
      ("period", Spec.Int 5);
      ("horizon", Spec.Int 1600);
    ]
    capacity_policies;
  reg "n1" "Locally bursty - the (rho, sigma_e) stability grid"
    [
      ("dens", ilist [ 3; 4; 6; 8 ]);
      ("bursts", ilist [ 0; 1; 2; 4; 8 ]);
      ("horizon", Spec.Int 2000);
    ]
    local_burst_grid;
  reg "n2" "Feedback routing - the rate x aggressiveness grid"
    [
      ("rates", plist [ (1, 2); (2, 3); (3, 4); (5, 6) ]);
      ("hots", ilist [ 1; 2; 4; 8 ]);
      ("horizon", Spec.Int 2000);
    ]
    feedback_grid;
  reg "fab1" "Datacenter fabric - fat-tree incast queue growth by policy"
    [
      ("utils", plist [ (1, 2); (3, 4); (9, 10); (1, 1); (9, 8) ]);
      ("horizon", Spec.Int 2000);
    ]
    fabric_incast;
  reg "fab2" "Datacenter fabric - shared-DT vs partitioned buffers on a hotspot"
    [
      ("alphas", plist [ (1, 4); (1, 2); (1, 1); (2, 1); (4, 1) ]);
      ("totals", ilist [ 8; 16; 32; 64 ]);
      ("partitioned", ilist [ 1; 2; 4; 8 ]);
      ("horizon", Spec.Int 2000);
    ]
    fabric_dt_grid;
  reg "a7" "Robustness - Thm 3.17 under superimposed random cross-traffic"
    [
      ("eps", Spec.Ratio (1, 5));
      ("s0", Spec.Int 400);
      ("cycles", Spec.Int 2);
      ( "noise",
        rlist [ (0, 1); (1, 500); (1, 100); (1, 20); (3, 20); (3, 10) ] );
    ]
    noise_robustness;
  registry

let registry_l = lazy (build ())
let registry () = Lazy.force registry_l
