(* aqt_sim: command-line front end for the adversarial queuing simulator.

   Subcommands:
     params       - derived construction parameters for a given epsilon
     instability  - run the Theorem 3.17 adversary and report seed growth
     stability    - certify the Theorem 4.1/4.3 dwell bound on a workload
     simulate     - free-form run: network x policy x stock adversary
     sweep        - classify a rate grid as stable/growing/blowup *)

open Cmdliner
module Ratio = Aqt_util.Ratio
module Build = Aqt_graph.Build
module Network = Aqt_engine.Network
module Sim = Aqt_engine.Sim
module Policies = Aqt_policy.Policies
module Stock = Aqt_adversary.Stock
module Tbl = Aqt_util.Tbl
module Scenario_spec = Aqt_fabric.Scenario_spec

(* ------------------------------------------------------------------ *)
(* Argument converters                                                 *)
(* ------------------------------------------------------------------ *)

(* Flags that name part of a scenario parse through the shared vocabulary;
   [check] narrows a token to a command's own range. *)
let spec_conv (type a) ?(check = Result.ok)
    (module T : Scenario_spec.TOKEN with type t = a) =
  let print fmt x = Format.pp_print_string fmt (T.to_string x) in
  Arg.conv' ((fun s -> Result.bind (T.of_string s) check), print)

let at_least ~what lo c =
  let parse s =
    match Arg.conv_parser c s with
    | Ok n when n < lo ->
        Error (`Msg (Printf.sprintf "%s %d must be at least %d" what n lo))
    | r -> r
  in
  Arg.conv (parse, Arg.conv_printer c)

(* A finite float that [ok] accepts; [need] completes "rate -1 must
   be ...". *)
let float_conv ~what ~need ok =
  let parse s =
    match Arg.conv_parser Arg.float s with
    | Ok x when not (Float.is_finite x) ->
        Error (`Msg (Printf.sprintf "%s %s is not finite" what s))
    | Ok x when not (ok x) ->
        Error (`Msg (Printf.sprintf "%s %s must be %s" what s need))
    | r -> r
  in
  Arg.conv (parse, Arg.conv_printer Arg.float)

let positive ~what = float_conv ~what ~need:"positive" (fun x -> x > 0.)
let non_negative ~what = float_conv ~what ~need:"at least 0" (fun x -> x >= 0.)

(* For the flags whose values <= 0 mean "inherit". *)
let finite ~what = float_conv ~what ~need:"finite" (fun _ -> true)

(* A TCP port; [lo] is 0 where 0 asks the kernel for one. *)
let port_conv lo =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n < lo || n > 65535 ->
        Error (`Msg (Printf.sprintf "port %d must be in %d..65535" n lo))
    | r -> r
  in
  Arg.conv (parse, Arg.conv_printer Arg.int)

(* [record] or [soa], the engine name alone as [--backend] takes it. *)
let engine_conv =
  Arg.conv'
    ( Scenario_spec.Backend.engine,
      fun fmt e ->
        Format.pp_print_string fmt
          (match e with `Record -> "record" | `Soa -> "soa") )

(* A name that [find] knows.  Error: [unknown WHAT "NAME" (HINT)]. *)
let name_conv ~what ~hint ~print find =
  let parse s =
    Option.to_result
      ~none:(Printf.sprintf "unknown %s %S (%s)" what s hint)
      (find s)
  in
  Arg.conv' (parse, fun fmt x -> Format.pp_print_string fmt (print x))

(* A comma-separated list of [c], checked as a whole so that the error is
   the first bad element's own, on one line. *)
let list_conv c =
  let rec parse_all = function
    | [] -> Ok []
    | x :: xs ->
        Result.bind (Arg.conv_parser c x) (fun v ->
            Result.map (List.cons v) (parse_all xs))
  in
  let parse s = Result.bind (Arg.conv_parser Arg.(list string) s) parse_all in
  Arg.conv (parse, Arg.conv_printer Arg.(list c))

(* ------------------------------------------------------------------ *)
(* params                                                              *)
(* ------------------------------------------------------------------ *)

let eps_arg =
  let eps_conv =
    spec_conv (module Scenario_spec.Rate) ~check:(fun e ->
        if Ratio.(e > zero && e < half) then Ok e
        else
          Error (Printf.sprintf "eps %s must be in (0, 1/2)" (Ratio.to_string e)))
  in
  Arg.(
    value
    & opt eps_conv (Ratio.make 1 10)
    & info [ "eps" ] ~docv:"EPS" ~doc:"Instability margin: rate is 1/2 + EPS.")

let params_cmd =
  let run eps =
    let p = Aqt.Params.make ~eps () in
    let tbl = Tbl.create ~headers:[ "parameter"; "value"; "meaning" ] in
    Tbl.set_align tbl [ Tbl.Left; Tbl.Right; Tbl.Left ];
    Tbl.add_rows tbl
      [
        [ "eps"; Ratio.to_string eps; "instability margin" ];
        [ "r = 1/2+eps"; Ratio.to_string p.rate; "injection rate" ];
        [ "n"; Tbl.fi p.n; "gadget path length (Appendix)" ];
        [ "S0"; Tbl.fi p.s0; "minimum seed queue (Appendix)" ];
        [
          "2(1-R_n)";
          Tbl.ff (Aqt.Params.pump_factor ~r:p.r ~n:p.n);
          "exact queue growth per pump";
        ];
        [
          "M (theorem)";
          Tbl.fi (Aqt.Params.chain_length ~eps:(Ratio.to_float eps));
          "gadgets by the paper's pessimistic bound";
        ];
        [
          "M (actual)";
          Tbl.fi (Aqt.Params.chain_length_actual ~r:p.r ~n:p.n);
          "gadgets by the exact growth model";
        ];
      ];
    Tbl.print tbl
  in
  Cmd.v (Cmd.info "params" ~doc:"Show derived construction parameters")
    Term.(const run $ eps_arg)

(* ------------------------------------------------------------------ *)
(* instability                                                         *)
(* ------------------------------------------------------------------ *)

let instability_cmd =
  let cycles =
    Arg.(value & opt (at_least ~what:"cycles" 0 int) 3 & info [ "cycles" ] ~doc:"Full adversary cycles.")
  in
  let s0 = Arg.(value & opt (some int) None & info [ "s0" ] ~doc:"Override S0.") in
  let m = Arg.(value & opt (some (at_least ~what:"gadgets" 2 int)) None & info [ "gadgets"; "m" ] ~doc:"Override M.") in
  let validate =
    Arg.(
      value & flag
      & info [ "validate" ]
          ~doc:"Log every injection and check the rate-r constraint (Lemma 3.3).")
  in
  let save_log =
    Arg.(
      value
      & opt (some string) None
      & info [ "save-log" ] ~docv:"FILE"
          ~doc:
            "Write the run's injection log (with initial routes) to FILE for\n\
             later replay with the `replay' subcommand.")
  in
  let run (cfg : Aqt.Instability.config) validate save_log =
    Printf.printf "r = %s, n = %d, S0 = %d, M = %d, seed = %d\n\n"
      (Ratio.to_string cfg.params.rate)
      cfg.params.n cfg.params.s0 cfg.m cfg.seed;
    let res = Aqt.Instability.run ~resilient:true cfg in
    let tbl = Tbl.create ~headers:[ "cycle"; "start step"; "seed"; "growth" ] in
    Array.iteri
      (fun i (s : Aqt.Instability.cycle_stat) ->
        Tbl.add_row tbl
          [
            Tbl.fi s.cycle;
            Tbl.fi s.start_step;
            Tbl.fi s.seed;
            (if i = 0 then "-" else Tbl.ff res.growth.(i - 1) ^ "x");
          ])
      res.stats;
    Tbl.print tbl;
    Printf.printf "steps: %d, max queue: %d, reroutes: %d\n%!"
      res.outcome.steps_run res.outcome.max_queue
      (Network.reroute_count res.net);
    (* The construction decays until a phase's measured precondition fails,
       which no check on the flags can foresee. *)
    Option.iter
      (fun msg ->
        prerr_endline ("collapsed: " ^ msg);
        exit 1)
      res.collapsed;
    if validate then begin
      let mg = Aqt_graph.Digraph.n_edges res.gadget.graph in
      match
        Aqt_adversary.Rate_check.check_rate ~m:mg ~rate:cfg.params.rate
          (Network.injection_log res.net)
      with
      | Ok () -> print_endline "rate-r constraint: LEGAL (Lemma 3.3 verified)"
      | Error v ->
          Format.printf "rate-r constraint: VIOLATED %a@."
            Aqt_adversary.Rate_check.pp_violation v
    end;
    match save_log with
    | None -> ()
    | Some file ->
        let meta =
          [
            ("n", string_of_int cfg.params.n);
            ("m", string_of_int cfg.m);
            ("rate", Ratio.to_string cfg.params.rate);
          ]
        in
        Aqt_adversary.Log_io.save file
          (Aqt_adversary.Log_io.of_network ~meta res.net);
        Printf.printf "injection log written to %s\n" file
  in
  (* S0 must be at least 2n, and n depends on eps, so the configuration
     checks it before anything is printed. *)
  let checked eps cycles s0 m validate save_log =
    match
      Aqt.Instability.config ~eps ?s0 ?m ~cycles
        ~log_injections:(validate || save_log <> None)
        ()
    with
    | exception Invalid_argument msg when Option.is_some s0 ->
        `Error
          ( true,
            Printf.sprintf "option '--s0': s0 %d at eps %s: %s" (Option.get s0)
              (Ratio.to_string eps) msg )
    | cfg -> `Ok (run cfg validate save_log)
  in
  Cmd.v
    (Cmd.info "instability"
       ~doc:"Run the Theorem 3.17 adversary: FIFO unstable at 1/2+eps"
       ~exits:
         (Cmd.Exit.info 1
            ~doc:
              "on a collapsed construction: a phase's measured precondition \
               failed.  The cycles completed before it are printed, and the \
               phase's message on standard error."
         :: Cmd.Exit.defaults))
    Term.(ret (const checked $ eps_arg $ cycles $ s0 $ m $ validate $ save_log))

(* ------------------------------------------------------------------ *)
(* stability                                                           *)
(* ------------------------------------------------------------------ *)

let policy_arg =
  Arg.(
    value
    & opt (spec_conv (module Scenario_spec.Policy)) Policies.fifo
    & info [ "policy" ] ~docv:"POLICY"
        ~doc:"Queuing policy (fifo|lifo|lis|nis|sis|ftg|ntg|ffs|nts).")

let horizon_arg lo =
  Arg.(
    value
    & opt (at_least ~what:"horizon" lo int) 20_000
    & info [ "horizon" ] ~doc:"Steps to simulate.")

let stability_cmd =
  let d = Arg.(value & opt (at_least ~what:"hops" 1 int) 5 & info [ "hops"; "d" ] ~doc:"Route length.") in
  let w = Arg.(value & opt (at_least ~what:"window" 1 int) 60 & info [ "window"; "w" ] ~doc:"Adversary window.") in
  let rate =
    Arg.(
      value
      & opt (some (spec_conv (module Scenario_spec.Rate))) None
      & info [ "rate" ] ~doc:"Injection rate (default 1/d or 1/(d+1)).")
  in
  let run policy d w rate horizon =
    let rate =
      match rate with
      | Some r -> r
      | None ->
          if policy.Aqt_engine.Policy_type.time_priority then Ratio.make 1 d
          else Ratio.make 1 (d + 1)
    in
    let line = Build.line d in
    let net = Network.create ~log_injections:true ~graph:line.graph ~policy () in
    let adv =
      Stock.windowed_burst ~packed:true ~w ~rate ~routes:[ line.edges ]
        ~horizon ()
    in
    ignore (Sim.run ~net ~driver:adv.driver ~horizon:(horizon + w) ());
    let legal =
      Aqt_adversary.Rate_check.check_windowed ~m:d ~w ~rate
        (Network.injection_log net)
      = Ok ()
    in
    Printf.printf
      "policy=%s d=%d w=%d rate=%s | (w,r)-legal=%b max_queue=%d\n" policy.name
      d w (Ratio.to_string rate) legal
      (Network.max_queue_ever net);
    match Aqt.Stability.verify_run ~w ~rate ~d net with
    | Some v ->
        Printf.printf
          "dwell bound floor(w*r) = %d, observed max dwell = %d -> %s\n"
          v.bound v.max_dwell_seen
          (if v.ok then "CERTIFIED" else "VIOLATION (bug)")
    | None ->
        Printf.printf
          "no theorem applies at rate %s (observed max dwell %d)\n"
          (Ratio.to_string rate) (Network.max_dwell net)
  in
  Cmd.v
    (Cmd.info "stability"
       ~doc:"Certify the Theorem 4.1/4.3 dwell bound on a burst workload")
    Term.(const run $ policy_arg $ d $ w $ rate $ horizon_arg 0)

(* ------------------------------------------------------------------ *)
(* simulate                                                            *)
(* ------------------------------------------------------------------ *)

let net_arg =
  Arg.(
    value
    & opt
        (spec_conv (module Scenario_spec.Network)
           ~check:Scenario_spec.Network.buildable)
        (Scenario_spec.Network.Ring 8)
    & info [ "network" ] ~docv:"NET" ~doc:"Topology: line:K or ring:K.")

let hops_arg =
  Arg.(
    value
    & opt (at_least ~what:"hops" 1 int) 4
    & info [ "hops"; "d" ] ~doc:"Route length.")

let simulate_cmd =
  let rate =
    Arg.(
      value
      & opt (spec_conv (module Scenario_spec.Rate)) (Ratio.make 1 4)
      & info [ "rate" ] ~doc:"Aggregate per-edge injection rate.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed.") in
  let stochastic =
    Arg.(value & flag & info [ "stochastic" ] ~doc:"Bernoulli instead of bursts.")
  in
  let run network policy d rate horizon seed stochastic =
    match Scenario_spec.simulate_rate ~network ~d rate with
    | Error msg -> `Error (true, "option '--rate': " ^ msg)
    | Ok () ->
        let s =
          Scenario_spec.simulate ~capacity:Aqt_capacity.Model.unbounded
            ~network ~d ~policy ~rate ~horizon ~stochastic ~seed
        in
        let net = s.net in
        Printf.printf
          "%s on %d-edge graph, %d routes of length <= %d, rate %s (%s)\n"
          policy.Aqt_engine.Policy_type.name
          (Aqt_graph.Digraph.n_edges s.workload.graph)
          (List.length s.workload.routes)
          d (Ratio.to_string rate) s.adversary;
        Printf.printf
          "steps=%d injected=%d absorbed=%d in-flight=%d\n" s.steps
          (Network.injected_count net)
          (Network.absorbed net) (Network.in_flight net);
        Printf.printf "max queue=%d max dwell=%d mean latency=%.2f\n"
          (Network.max_queue_ever net)
          (Network.max_dwell net)
          (Network.delivered_latency_mean net);
        `Ok ()
  in
  Cmd.v (Cmd.info "simulate" ~doc:"Free-form simulation run")
    Term.(
      ret
        (const run $ net_arg $ policy_arg $ hops_arg $ rate $ horizon_arg 0
       $ seed $ stochastic))

(* ------------------------------------------------------------------ *)
(* sweep                                                               *)
(* ------------------------------------------------------------------ *)

let sweep_cmd =
  let rates =
    Arg.(
      value
      & opt
          (list_conv (spec_conv (module Scenario_spec.Rate)))
          [ Ratio.make 1 8; Ratio.make 1 4; Ratio.make 1 2; Ratio.make 3 4 ]
      & info [ "rates" ] ~doc:"Comma-separated rates to test.")
  in
  let run network d rates horizon =
    let w = Scenario_spec.workload ~d network in
    match Scenario_spec.sweep_rates ~routes:(List.length w.routes) rates with
    | Error msg -> `Error (true, msg)
    | Ok () ->
        let tbl = Tbl.create ~headers:Scenario_spec.sweep_headers in
        Tbl.add_rows tbl
          (Scenario_spec.sweep w ~policies:Policies.all_deterministic ~rates
             ~horizon);
        Tbl.print tbl;
        `Ok ()
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Classify a policy x rate grid as stable/growing")
    Term.(ret (const run $ net_arg $ hops_arg $ rates $ horizon_arg 1))

(* ------------------------------------------------------------------ *)
(* plan                                                                *)
(* ------------------------------------------------------------------ *)

let plan_cmd =
  let s_arg =
    Arg.(value & opt (at_least ~what:"queue" 1 int) 1000 & info [ "queue"; "s" ] ~doc:"The S of C(S, F).")
  in
  let run eps s =
    let params = Aqt.Params.make ~eps () in
    let g = Aqt.Gadget.cyclic ~n:params.n ~m:2 () in
    let graph = g.graph in
    let route_str route =
      let labels = Array.map (Aqt_graph.Digraph.label graph) route in
      if Array.length labels <= 5 then
        String.concat ">" (Array.to_list labels)
      else
        Printf.sprintf "%s>..>%s (%d edges)" labels.(0)
          labels.(Array.length labels - 1) (Array.length labels)
    in
    let flow_rows flows =
      List.map
        (fun f ->
          [
            Aqt_adversary.Flow.tag f;
            route_str (Aqt_adversary.Flow.route f);
            Tbl.fi (Aqt_adversary.Flow.start f);
            Tbl.fi (Aqt_adversary.Flow.stop f);
            Tbl.fi (Aqt_adversary.Flow.total f);
          ])
        flows
    in
    let show title rows =
      Printf.printf "%s\n" title;
      let tbl =
        Tbl.create ~headers:[ "flow"; "route"; "start"; "stop"; "packets" ]
      in
      Tbl.set_align tbl [ Tbl.Left; Tbl.Left; Tbl.Right; Tbl.Right; Tbl.Right ];
      Tbl.add_rows tbl rows;
      Tbl.print tbl;
      print_newline ()
    in
    Printf.printf
      "Adversary schedules for eps=%s (r=%s, n=%d), measured queue S=%d,\n\
       phase-relative times (start of phase = step 1):\n\n"
      (Ratio.to_string eps)
      (Ratio.to_string params.rate)
      params.n s;
    let sp = Aqt.Startup.plan ~params ~gadget:g ~start:1 ~total_seed:(2 * s) in
    show
      (Printf.sprintf
         "Lemma 3.15 startup (duration %d, predicted S' = %d; plus a rate-r \
          stream of %d short+long packets):"
         sp.duration sp.s_target (Aqt_adversary.Flow.total sp.stream_counter))
      (flow_rows sp.short_flows);
    let pp =
      Aqt.Pump.plan ~params ~gadget:g ~k:1 ~start:1 ~total_old:(2 * s)
        ~s_ingress:s
    in
    show
      (Printf.sprintf
         "Lemma 3.6 pump (duration %d, predicted S' = %d, X = %d):" pp.duration
         pp.s_target pp.x)
      (flow_rows pp.flows);
    let st =
      Aqt.Stitch.plan ~rate:params.rate ~relay:(Aqt.Gadget.stitch_route g)
        ~start:1 ~s
    in
    show
      (Printf.sprintf
         "Lemma 3.16 stitch (duration %d = S + rS + r^2S; fresh seeds r^3 S = \
          %d):"
         st.duration st.r3s)
      (flow_rows st.flows)
  in
  Cmd.v
    (Cmd.info "plan"
       ~doc:"Print the Lemma 3.15/3.6/3.16 adversary schedules for a given S")
    Term.(const run $ eps_arg $ s_arg)

(* ------------------------------------------------------------------ *)
(* fluid                                                               *)
(* ------------------------------------------------------------------ *)

let fluid_cmd =
  let s_arg =
    Arg.(
      value & opt (at_least ~what:"queue" 1 int) 1000
      & info [ "queue"; "s" ] ~doc:"Ingress population S of C(S, F).")
  in
  let run eps s =
    let params = Aqt.Params.make ~eps () in
    let p =
      Aqt.Fluid.pump_profile ~r:params.r ~n:params.n ~total_old:(2 * s)
    in
    Printf.printf
      "Fluid trajectories of one pump (Claims 3.9-3.11) at r=%s, n=%d, 2S=%d:\n\n"
      (Ratio.to_string params.rate)
      params.n (2 * s);
    let tbl =
      Tbl.create
        ~headers:
          [ "i"; "R_i"; "t_i"; "peak queue"; "peak at"; "old left at 2S+i" ]
    in
    for i = 1 to params.n do
      let idx = i - 1 in
      Tbl.add_row tbl
        [
          Tbl.fi i;
          Tbl.ff ~dec:4 p.ri.(idx);
          Tbl.ff ~dec:0 p.ti.(idx);
          Tbl.ff ~dec:0 p.peak_queue.(idx);
          Tbl.ff ~dec:0 p.peak_time.(idx);
          Tbl.ff ~dec:0 p.final_old.(idx);
        ]
    done;
    Tbl.print tbl;
    Printf.printf
      "S' = 2S(1-R_n) = %.0f; old packets past the egress by 2S+n: %.0f\n\
       (run `bench/main.exe e14' to compare against the discrete simulation)\n"
      p.s' p.crossed_egress
  in
  Cmd.v
    (Cmd.info "fluid"
       ~doc:"Evaluate the paper's fluid pump analysis for a given S")
    Term.(const run $ eps_arg $ s_arg)

(* ------------------------------------------------------------------ *)
(* replay                                                              *)
(* ------------------------------------------------------------------ *)

let replay_cmd =
  let file =
    Arg.(
      required
      & opt (some non_dir_file) None
      & info [ "log" ] ~docv:"FILE" ~doc:"Injection log (from --save-log).")
  in
  let settle =
    Arg.(value & opt int 5000 & info [ "settle" ] ~doc:"Idle steps at the end.")
  in
  (* The log and its metadata; [Failure] names what is wrong with them. *)
  let read file =
    let log = Aqt_adversary.Log_io.load file in
    let meta_int k =
      match Aqt_adversary.Log_io.meta_value log k with
      | Some v -> (
          match int_of_string_opt v with
          | Some i -> i
          | None -> failwith (Printf.sprintf "bad %S metadata %S" k v))
      | None -> failwith (Printf.sprintf "log has no %S metadata" k)
    in
    let n = meta_int "n" in
    let m = meta_int "m" in
    let rate =
      match Aqt_adversary.Log_io.meta_value log "rate" with
      | Some v -> (
          match Scenario_spec.Rate.of_string v with
          | Ok r -> r
          | Error msg -> failwith ("rate metadata: " ^ msg))
      | None -> Ratio.one
    in
    (log, n, m, rate)
  in
  let run file policy settle =
    match read file with
    | exception Failure msg ->
        `Error (true, Printf.sprintf "option '--log': %s: %s" file msg)
    | exception Sys_error msg -> `Error (true, "option '--log': " ^ msg)
    | log, n, m, rate ->
        let gadget = Aqt.Gadget.cyclic ~n ~m () in
        let results =
          Aqt.Baselines.replay_against ~initial:log.initial ~graph:gadget.graph
            ~rate ~log:log.log ~policies:[ policy ] ~settle ()
        in
        List.iter
          (fun (r : Aqt.Baselines.replay_result) ->
            Printf.printf
              "%s on %s: max_queue=%d backlog=%d absorbed=%d max_dwell=%d\n"
              r.policy
              (Aqt.Gadget.describe gadget)
              r.max_queue r.backlog r.absorbed r.max_dwell)
          results;
        `Ok ()
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Replay a recorded injection log under any policy (Lemma 3.3's A')")
    Term.(ret (const run $ file $ policy_arg $ settle))

(* ------------------------------------------------------------------ *)
(* workloads / spacetime                                               *)
(* ------------------------------------------------------------------ *)

let workloads_cmd =
  let run () =
    let tbl =
      Tbl.create ~headers:[ "name"; "edges"; "routes"; "d"; "max overlap" ]
    in
    List.iter
      (fun (s : Aqt_workload.Workloads.t) ->
        Tbl.add_row tbl
          [
            s.name;
            Tbl.fi (Aqt_graph.Digraph.n_edges s.graph);
            Tbl.fi (List.length s.routes);
            Tbl.fi s.d;
            Tbl.fi (Aqt_workload.Workloads.max_overlap s);
          ])
      (Aqt_workload.Workloads.standard_grid ());
    Tbl.print tbl
  in
  Cmd.v (Cmd.info "workloads" ~doc:"List the standard workload scenarios")
    Term.(const run $ const ())

let spacetime_cmd =
  let seeds = Arg.(value & opt int 122 & info [ "seeds" ] ~doc:"Seed packets.") in
  (* Why a run could not start on the seeds it was given. *)
  let exception Cannot_start of string in
  let run eps seeds =
    let params =
      try Aqt.Params.make ~eps ~s0:(max 20 ((seeds - 2) / 2)) ()
      with Invalid_argument msg -> raise (Cannot_start msg)
    in
    let net, g = Aqt.Startup.seeded ~n:params.n ~m:2 seeds in
    let st = Aqt_engine.Spacetime.make net in
    let run_phase phase =
      let checked net t =
        try phase net t with Failure msg -> raise (Cannot_start msg)
      in
      ignore
        (Aqt_adversary.Phased.run ~wrap:(Aqt_engine.Spacetime.driver_wrap st)
           net checked)
    in
    run_phase (Aqt.Startup.phase ~params ~gadget:g);
    run_phase (fun n t -> Aqt.Pump.phase ~params ~gadget:g ~k:1 n t);
    Aqt_engine.Spacetime.print st
  in
  (* How many seeds are enough depends on eps and on the queues the startup
     leaves for the pump, so each phase checks it as it starts, before
     anything is printed. *)
  let checked eps seeds =
    match run eps seeds with
    | () -> `Ok ()
    | exception Cannot_start msg ->
        `Error
          ( true,
            Printf.sprintf "option '--seeds': %d seed packets at eps %s: %s"
              seeds (Ratio.to_string eps) msg )
  in
  Cmd.v
    (Cmd.info "spacetime"
       ~doc:"Heat map of a startup+pump run on a two-gadget chain")
    Term.(ret (const checked $ eps_arg $ seeds))

(* ------------------------------------------------------------------ *)
(* campaign: cached, journalled orchestration of the experiment suite  *)
(* ------------------------------------------------------------------ *)

let campaign_cmd =
  let module Campaign = Aqt_harness.Campaign in
  let module Registry = Aqt_harness.Registry in
  let dir_arg =
    Arg.(
      value
      & opt string Campaign.default_options.dir
      & info [ "dir" ] ~docv:"DIR" ~doc:"Campaign state directory.")
  in
  let registry () = Aqt_experiments.registry () in
  let only_arg =
    let id =
      name_conv ~what:"experiment" ~hint:"see main.exe list" ~print:Fun.id
        (fun s -> List.find_opt (String.equal s) (Registry.names (registry ())))
    in
    Arg.(
      value
      & opt (list_conv id) []
      & info [ "only" ] ~docv:"IDS"
          ~doc:"Comma-separated experiment ids (default: every registered \
                experiment; see `main.exe list`).")
  in
  let run_cmd =
    let force =
      Arg.(
        value & flag
        & info [ "force" ] ~doc:"Re-run even when a cached result exists.")
    in
    let jobs =
      Arg.(
        value
        & opt (some (at_least ~what:"jobs" 1 int)) None
        & info [ "jobs"; "j" ] ~docv:"N"
            ~doc:"Worker domains (default: cores - 1).")
    in
    let timeout =
      Arg.(
        value
        & opt (some float) None
        & info [ "timeout" ] ~docv:"SECONDS"
            ~doc:"Per-experiment wall-clock budget.  Cooperative: an \
                  overrunning experiment finishes its run but is reported \
                  timed-out and its result is not cached.")
    in
    let retries =
      Arg.(
        value
        & opt int Campaign.default_options.retries
        & info [ "retries" ] ~docv:"N"
            ~doc:"Re-attempts after a crashed experiment.")
    in
    let quiet =
      Arg.(
        value & flag
        & info [ "quiet"; "q" ] ~doc:"No progress lines or summary table.")
    in
    let run dir only force jobs timeout retries quiet =
      let options =
        {
          Campaign.default_options with
          dir;
          only;
          force;
          jobs;
          timeout;
          retries;
          quiet;
        }
      in
      match Campaign.run ~registry:(registry ()) options with
      | { Campaign.failed = 0; _ } -> ()
      | _ -> exit 1
    in
    Cmd.v
      (Cmd.info "run"
         ~doc:
           "Run experiments through the campaign scheduler: cached results \
            are served from $(b,DIR)/cache, the rest fan out across domains, \
            and every event lands in a JSONL journal under $(b,DIR)/journal.")
      Term.(
        const run $ dir_arg $ only_arg $ force $ jobs $ timeout $ retries
        $ quiet)
  in
  let status_cmd =
    let run dir only =
      Campaign.status ~registry:(registry ())
        { Campaign.default_options with dir; only }
    in
    Cmd.v
      (Cmd.info "status"
         ~doc:
           "Per experiment: is a cached result present for the current spec \
            and code salt, how old is it, and how long did it take.")
      Term.(const run $ dir_arg $ only_arg)
  in
  let clean_cmd =
    let max_bytes =
      Arg.(
        value
        & opt (some (at_least ~what:"max-bytes" 0 int)) None
        & info [ "max-bytes" ] ~docv:"BYTES"
            ~doc:
              "Instead of deleting everything, evict the oldest cached \
               results until the cache payload is at most $(docv) (journals \
               are left alone).")
    in
    let run dir max_bytes =
      match max_bytes with
      | None ->
          let n = Campaign.clean { Campaign.default_options with dir } in
          Printf.printf "removed %d file(s) under %s\n" n dir
      | Some max_bytes ->
          let n =
            Campaign.trim { Campaign.default_options with dir } ~max_bytes
          in
          Printf.printf "evicted %d cache file(s) under %s\n" n dir
    in
    Cmd.v
      (Cmd.info "clean"
         ~doc:
           "Delete cached results and journals under DIR, or with \
            $(b,--max-bytes) evict oldest-first down to a size budget.")
      Term.(const run $ dir_arg $ max_bytes)
  in
  Cmd.group
    (Cmd.info "campaign"
       ~doc:
         "Manifest-driven experiment campaigns with result caching, \
          crash-tolerant scheduling and structured run journals")
    [ run_cmd; status_cmd; clean_cmd ]

(* ------------------------------------------------------------------ *)
(* report: regenerate docs/report from the campaign cache              *)
(* ------------------------------------------------------------------ *)

let report_cmd =
  let module Campaign = Aqt_harness.Campaign in
  let module Report = Aqt_report.Report in
  let out_arg =
    Arg.(
      value
      & opt string (Filename.concat "docs" "report")
      & info [ "out" ] ~docv:"DIR" ~doc:"Output directory for SVGs + index.md.")
  in
  let dir_arg =
    Arg.(
      value
      & opt string Campaign.default_options.dir
      & info [ "dir" ] ~docv:"DIR"
          ~doc:"Campaign state directory (cache + journals).")
  in
  let only_arg =
    let id =
      name_conv ~what:"figure" ~hint:"see --list" ~print:Fun.id (fun s ->
          List.find_map
            (fun (f : Report.figure) -> if f.id = s then Some s else None)
            (Report.default_figures ()))
    in
    Arg.(
      value
      & opt (list_conv id) []
      & info [ "only" ] ~docv:"IDS"
          ~doc:"Comma-separated figure ids (default: all; see --list).")
  in
  let list_arg =
    Arg.(
      value & flag
      & info [ "list" ] ~doc:"List figure ids and exit (nothing is run).")
  in
  let run out dir only list =
    if list then
      List.iter
        (fun (f : Report.figure) -> Printf.printf "%-14s %s\n" f.id f.title)
        (Report.default_figures ())
    else begin
      let options = { Campaign.default_options with dir; quiet = true } in
      let paths =
        Report.generate ~only ~registry:(Aqt_experiments.registry ())
          ~options ~out ()
      in
      Printf.printf "wrote %d file(s) under %s\n" (List.length paths) out
    end
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Regenerate the experiment report (docs/report): deterministic SVG \
          figures from the campaign cache, inline seeded simulations and the \
          committed benchmark runs, plus a Markdown index.  Byte-identical across \
          runs; CI diffs the output against the committed copy.")
    Term.(const run $ out_arg $ dir_arg $ only_arg $ list_arg)

(* ------------------------------------------------------------------ *)
(* serve: the rate-admission simulation service                        *)
(* ------------------------------------------------------------------ *)

let serve_cmd =
  let module Server = Aqt_serve.Server in
  let dflt = Server.default_config in
  let port =
    Arg.(
      value & opt (port_conv 0) dflt.Server.port
      & info [ "port"; "p" ] ~docv:"PORT"
          ~doc:"TCP port to listen on (0 picks an ephemeral port).")
  in
  let host =
    Arg.(
      value & opt string dflt.Server.host
      & info [ "host" ] ~docv:"ADDR" ~doc:"Bind address.")
  in
  let workers =
    Arg.(
      value
      & opt (at_least ~what:"workers" 1 int) dflt.Server.workers
      & info [ "workers"; "j" ] ~docv:"N" ~doc:"Worker domains.")
  in
  let rate =
    Arg.(
      value & opt (positive ~what:"rate") dflt.Server.rho
      & info [ "rate" ] ~docv:"RHO"
          ~doc:
            "Admission rate rho in requests/second: over any interval t at \
             most rho*t + BURST requests are admitted, the rest are shed \
             with 429.")
  in
  let burst =
    Arg.(
      value & opt (at_least ~what:"burst" 1 int) dflt.Server.sigma
      & info [ "burst" ] ~docv:"SIGMA"
          ~doc:
            "Burst budget sigma: token-bucket depth and the worker queue's \
             capacity, so the queue depth is bounded by SIGMA by \
             construction.")
  in
  let dir =
    Arg.(
      value & opt string dflt.Server.campaign_dir
      & info [ "dir" ] ~docv:"DIR"
          ~doc:"Campaign state directory (result cache + journals).")
  in
  let snapshot_every =
    Arg.(
      value
      & opt (non_negative ~what:"snapshot-every") dflt.Server.snapshot_every
      & info [ "snapshot-every" ] ~docv:"SECONDS"
          ~doc:"Metrics journal snapshot period (0 disables).")
  in
  let cache_max_bytes =
    Arg.(
      value
      & opt (some (at_least ~what:"cache-max-bytes" 0 int)) None
      & info [ "cache-max-bytes" ] ~docv:"BYTES"
          ~doc:
            "Trim the result cache oldest-first to this size budget on \
             every snapshot tick.")
  in
  let no_journal =
    Arg.(value & flag & info [ "no-journal" ] ~doc:"Do not write a journal.")
  in
  let sweep_rate =
    Arg.(
      value & opt (finite ~what:"sweep-rate") dflt.Server.sweep_rho
      & info [ "sweep-rate" ] ~docv:"RHO"
          ~doc:
            "Separate admission rate for /sweep so grid computations cannot \
             starve cheap endpoints (<= 0 means RHO/10).")
  in
  let sweep_burst =
    Arg.(
      value & opt int dflt.Server.sweep_sigma
      & info [ "sweep-burst" ] ~docv:"SIGMA"
          ~doc:"Burst budget of the /sweep bucket (<= 0 derives from BURST).")
  in
  let client_rate =
    Arg.(
      value & opt (finite ~what:"client-rate") dflt.Server.client_rho
      & info [ "client-rate" ] ~docv:"RHO"
          ~doc:
            "Per-client admission rate, keyed by peer address or \
             $(b,--client-key-header) (<= 0 means RHO).")
  in
  let client_burst =
    Arg.(
      value & opt int dflt.Server.client_sigma
      & info [ "client-burst" ] ~docv:"SIGMA"
          ~doc:"Per-client burst budget (<= 0 means BURST).")
  in
  let client_key_header =
    Arg.(
      value & opt string dflt.Server.client_key_header
      & info [ "client-key-header" ] ~docv:"NAME"
          ~doc:
            "Request header naming the client for per-client admission; \
             empty keys on the peer address.")
  in
  let max_conns =
    Arg.(
      value
      & opt (at_least ~what:"max-conns" 1 int) dflt.Server.max_conns
      & info [ "max-conns" ] ~docv:"N"
          ~doc:"Concurrent connection cap; excess accepts get 503.")
  in
  let pipeline =
    Arg.(
      value
      & opt (at_least ~what:"pipeline" 1 int) dflt.Server.max_pipeline
      & info [ "pipeline" ] ~docv:"N"
          ~doc:
            "Outstanding pipelined requests per connection before the event \
             loop stops reading from it (TCP backpressure).")
  in
  let idle_timeout =
    Arg.(
      value
      & opt (positive ~what:"idle-timeout") dflt.Server.idle_timeout
      & info [ "idle-timeout" ] ~docv:"SECONDS"
          ~doc:"Idle keep-alive connection expiry.")
  in
  let quiet = Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"No chatter.") in
  let run port host workers rate burst dir snapshot_every cache_max_bytes
      no_journal sweep_rate sweep_burst client_rate client_burst
      client_key_header max_conns pipeline idle_timeout quiet =
    let cfg =
      {
        Server.default_config with
        Server.host;
        port;
        workers;
        rho = rate;
        sigma = burst;
        campaign_dir = dir;
        snapshot_every;
        cache_max_bytes;
        journal = not no_journal;
        sweep_rho = sweep_rate;
        sweep_sigma = sweep_burst;
        client_rho = client_rate;
        client_sigma = client_burst;
        client_key_header;
        max_conns;
        max_pipeline = pipeline;
        idle_timeout;
        quiet;
      }
    in
    match
      Server.start ~registry:(Aqt_experiments.registry ())
        ~figures:(Aqt_report.Report.default_figures ())
        cfg
    with
    | srv ->
        let stop _ = Server.request_stop srv in
        Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
        Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
        Server.wait srv
    | exception Invalid_argument msg ->
        Printf.eprintf "aqt_sim serve: %s\n" msg;
        exit 2
    | exception Unix.Unix_error (err, fn, _) ->
        Printf.eprintf "aqt_sim serve: %s: %s\n" fn (Unix.error_message err);
        exit 2
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the simulation service: an HTTP daemon whose (rho,sigma) \
          token-bucket admission is the paper's rate-bounded adversary \
          constraint applied to its own request stream.  Sweeps and \
          experiments are content-addressed into the shared campaign cache; \
          metrics are exported at /metrics in Prometheus text format and \
          journalled periodically.  SIGTERM/SIGINT drain gracefully.")
    Term.(
      const run $ port $ host $ workers $ rate $ burst $ dir $ snapshot_every
      $ cache_max_bytes $ no_journal $ sweep_rate $ sweep_burst $ client_rate
      $ client_burst $ client_key_header $ max_conns $ pipeline $ idle_timeout
      $ quiet)

(* ------------------------------------------------------------------ *)
(* loadgen: latency-measuring load generator                           *)
(* ------------------------------------------------------------------ *)

let loadgen_cmd =
  let module Loadgen = Aqt_serve.Loadgen in
  let dflt = Loadgen.default_config in
  let port =
    Arg.(
      value & opt (port_conv 1) dflt.Loadgen.port
      & info [ "port"; "p" ] ~docv:"PORT" ~doc:"Target server port.")
  in
  let host =
    Arg.(
      value & opt string dflt.Loadgen.host
      & info [ "host" ] ~docv:"ADDR" ~doc:"Target server address.")
  in
  let conns =
    Arg.(
      value & opt (at_least ~what:"conns" 1 int) dflt.Loadgen.conns
      & info [ "conns"; "c" ] ~docv:"N"
          ~doc:"Concurrent keep-alive connections.")
  in
  let requests =
    Arg.(
      value
      & opt (at_least ~what:"requests" 1 int) dflt.Loadgen.requests
      & info [ "requests"; "n" ] ~docv:"N" ~doc:"Total requests to issue.")
  in
  let rate =
    Arg.(
      value & opt (non_negative ~what:"rate") 0.
      & info [ "rate" ] ~docv:"RPS"
          ~doc:
            "Open-loop aggregate send rate in requests/second; 0 (the \
             default) runs closed-loop, self-clocked to the server.")
  in
  let pipeline =
    Arg.(
      value
      & opt (at_least ~what:"pipeline" 1 int) dflt.Loadgen.pipeline
      & info [ "pipeline" ] ~docv:"N"
          ~doc:"Closed-loop outstanding requests per connection.")
  in
  let path =
    Arg.(
      value
      & opt_all string []
      & info [ "path" ] ~docv:"PATH"
          ~doc:
            "Request path, weighted by repetition (default /healthz). \
             Repeatable.")
  in
  let seed =
    Arg.(
      value & opt int dflt.Loadgen.seed
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"Workload PRNG seed: same seed, same request stream.")
  in
  let run_timeout =
    Arg.(
      value
      & opt (positive ~what:"timeout") dflt.Loadgen.run_timeout
      & info [ "timeout" ] ~docv:"SECONDS" ~doc:"Hard wall on the whole run.")
  in
  let csv =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"FILE"
          ~doc:"Write the metric,value summary to $(docv).")
  in
  let journal =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:"Append the run's latency quantiles to $(docv) as JSONL.")
  in
  let selftest =
    Arg.(
      value & flag
      & info [ "selftest" ]
          ~doc:
            "Boot a throwaway server, drive it closed-loop past its \
             (rho,sigma) budget with $(b,--conns) connections and \
             $(b,--requests) requests, check the admitted stream fits the \
             rho*T + sigma envelope and the p999 tail stays bounded, and \
             exit 0 iff all checks pass.")
  in
  let selftest_rate =
    Arg.(
      value & opt (positive ~what:"selftest-rate") 2000.
      & info [ "selftest-rate" ] ~docv:"RHO"
          ~doc:"Admission rate of the throwaway selftest server.")
  in
  let selftest_burst =
    Arg.(
      value & opt (at_least ~what:"selftest-burst" 1 int) 200
      & info [ "selftest-burst" ] ~docv:"SIGMA"
          ~doc:"Burst budget of the throwaway selftest server.")
  in
  let snapshot_every =
    Arg.(
      value & opt (non_negative ~what:"snapshot-every") 0.
      & info [ "snapshot-every" ] ~docv:"SECONDS"
          ~doc:
            "Write one $(b,--journal) event per $(docv) of the run, holding \
             the exact p50/p99/p999 of every request answered by then.  0 \
             (the default) writes only the final one.")
  in
  let quiet = Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"No chatter.") in
  (* Fast-path endpoints (/healthz) bypass admission, so the envelope
     under test must be driven through a dispatched endpoint: a tiny
     seeded /simulate is the cheapest admitted request.  Sheds answer 429
     inline without touching the worker pool, so only the ~rho*T admitted
     requests actually compute. *)
  let admitted_path =
    "/simulate?network=ring:4&policy=fifo&rate=1/4&horizon=60&seed=1"
  in
  let rec remove_tree p =
    if Sys.is_directory p then begin
      Array.iter (fun f -> remove_tree (Filename.concat p f)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p
  in
  (* A throwaway daemon on an ephemeral port, in a temporary directory
     removed once it stops, driven closed-loop well past its (rho,sigma)
     budget. *)
  let selftest_run ~rho ~sigma ~conns ~requests ~quiet =
    let module Server = Aqt_serve.Server in
    let dir = Filename.temp_dir "aqt-loadgen-" "" in
    let srv =
      Server.start
        {
          Server.default_config with
          Server.port = 0;
          workers = 2;
          (* The generator is one peer, and the per-client layer inherits
             (rho,sigma): the envelope under test is the endpoint bucket's. *)
          rho;
          sigma;
          max_conns = conns + 64;
          max_pipeline = 32;
          campaign_dir = dir;
          snapshot_every = 0.;
          journal = false;
          quiet = true;
        }
    in
    Fun.protect
      ~finally:(fun () ->
        Server.stop srv;
        remove_tree dir)
      (fun () ->
        let paths = [ (1, admitted_path) ] in
        let port = Server.port srv in
        Loadgen.run
          { dflt with port; conns; requests; pipeline = 8; paths; quiet })
  in
  let run port host conns requests rate pipeline path seed run_timeout csv
      journal selftest rho sigma snapshot_every quiet =
    (* Opened before the first request, so a bad path costs no run. *)
    let open_csv f =
      Aqt_harness.Journal.mkdir_p (Filename.dirname f);
      open_out f
    in
    match Option.map open_csv csv with
    | exception Sys_error msg -> `Error (true, "option '--csv': " ^ msg)
    | exception Unix.Unix_error (e, _, f) ->
        let msg = Unix.error_message e in
        `Error (true, Printf.sprintf "option '--csv': %s: %s" f msg)
    | csv ->
        let r, checks =
          if selftest then begin
            let r = selftest_run ~rho ~sigma ~conns ~requests ~quiet in
            let checks = Loadgen.envelope_checks ~rho ~sigma ~requests r in
            if not quiet then begin
              List.iter
                (fun c ->
                  Printf.printf "loadgen selftest %-10s %-6s %s\n"
                    c.Loadgen.name
                    (if c.passed then "ok" else "FAILED")
                    c.detail)
                checks;
              print_string (Loadgen.result_csv r)
            end;
            (r, checks)
          end
          else
            let paths =
              match path with
              | [] -> dflt.Loadgen.paths
              | ps -> List.map (fun p -> (1, p)) ps
            in
            let mode = if rate > 0. then Loadgen.Open rate else Closed in
            let cfg =
              { Loadgen.host; port; conns; requests; mode; pipeline; paths;
                seed; run_timeout; quiet }
            in
            match Loadgen.run cfg with
            | r ->
                if not quiet then
                  print_endline
                    (Aqt_util.Jsonx.to_string (Loadgen.result_json r));
                (r, [ Loadgen.complete ~requests r ])
            | exception Invalid_argument msg ->
                Printf.eprintf "aqt_sim loadgen: %s\n" msg;
                exit 2
        in
        Option.iter
          (fun oc ->
            output_string oc (Loadgen.result_csv r);
            close_out oc)
          csv;
        Option.iter
          (fun path -> Loadgen.write_journal ~every:snapshot_every ~path r)
          journal;
        exit (if List.for_all (fun c -> c.Loadgen.passed) checks then 0 else 1)
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Drive an aqt_sim serve daemon with open- or closed-loop keep-alive \
          load over loopback and report p50/p99/p999 latency, throughput and \
          shed rate.  Request framing varies by a heavy-tailed flow CDF; the \
          workload is PRNG-seeded and reproducible.  With $(b,--selftest), \
          validates the server's (rho,sigma) admission envelope end to end.")
    Term.(
      ret
        (const run $ port $ host $ conns $ requests $ rate $ pipeline $ path
       $ seed $ run_timeout $ csv $ journal $ selftest $ selftest_rate
       $ selftest_burst $ snapshot_every $ quiet))

(* ------------------------------------------------------------------ *)
(* check: differential conformance and mutant detection               *)
(* ------------------------------------------------------------------ *)

let check_cmd =
  let open Aqt_check in
  let run_mutant_demo ?families ?soa_domains () =
    (* The self-check that the differ can catch bugs: corrupt the engine
       arms, the Soa arms under --backend soa included, five different ways
       and demand a shrunk reproducer each time.
       Under --family, a mutant whose exposing families were all excluded
       is skipped rather than reported uncaught. *)
    List.for_all
      (fun (name, mutant, exposing) ->
        let scan =
          match families with
          | None -> exposing
          | Some fs -> List.filter (fun f -> List.mem f fs) exposing
        in
        if scan = [] then begin
          Printf.printf
            "mutant %-16s skipped: no requested family can expose it\n" name;
          true
        end
        else
          match
            Check.find_mutant_failure ~families:scan ?soa_domains mutant
          with
          | Some (scenario, failure) ->
              Printf.printf "mutant %-16s caught: %s\n" name
                (Format.asprintf "%a" Diff.pp_failure failure);
              Printf.printf "  shrunk to horizon %d, %d injection(s)\n"
                (Gen.horizon scenario)
                (Array.fold_left
                   (fun acc l -> acc + List.length l)
                   0 scenario.Gen.schedule);
              true
          | None ->
              Printf.printf "mutant %-16s NOT caught by any scanned seed\n"
                name;
              false)
      Check.mutants
  in
  let run seeds base seed backend domains family mutant_demo quiet paper =
    let ok = ref true in
    let families = match family with [] -> None | fs -> Some fs in
    (* [--backend soa] adds struct-of-arrays arms (one per domain count in
       [--domains]) to the lockstep comparison alongside the record
       engine. *)
    let soa_domains =
      match backend with
      | `Record -> None
      | `Soa -> Some (if domains = [] then [ 1 ] else domains)
    in
    (match (paper, seed) with
    | Some cfg, _ -> (
        let scenario = Check.theorem_3_17 cfg in
        Format.printf "%s: %d initial packets, %d injections@."
          scenario.Gen.label
          (List.length scenario.Gen.initial)
          (Array.fold_left
             (fun n l -> n + List.length l)
             0 scenario.Gen.schedule);
        match Diff.run ?soa_domains scenario with
        | None -> Format.printf "theorem 3.17 replay: conforms@."
        | Some f ->
            Format.printf "theorem 3.17 replay: %a@." Diff.pp_failure f;
            ok := false)
    | None, Some k -> (
        let scenario = Gen.generate ?families k in
        Format.printf "%a@." Gen.pp scenario;
        match Diff.run ?soa_domains scenario with
        | None -> Format.printf "seed %d: conforms@." k
        | Some original ->
            let shrunk, failure =
              Shrink.minimize ~run:(Diff.run ?soa_domains) scenario original
            in
            Format.printf "seed %d: %a@.shrunk (%a):@.%a@." k Diff.pp_failure
              original Diff.pp_failure failure Gen.pp shrunk;
            ok := false)
    | None, None ->
        if (not mutant_demo) || seeds > 0 then begin
          let progress =
            if quiet then None
            else
              Some
                (fun done_ ->
                  if done_ mod 50 = 0 then
                    Printf.printf "  ... %d/%d seeds\n%!" done_ seeds)
          in
          let summary =
            Check.run_seeds ?families ?soa_domains ?progress ~base ~n:seeds ()
          in
          Format.printf "%a" Check.pp_summary summary;
          if summary.Check.failures <> [] then ok := false
        end);
    if mutant_demo then
      if not (run_mutant_demo ?families ?soa_domains ()) then ok := false;
    if not !ok then exit 1
  in
  let seeds =
    Arg.(
      value & opt (at_least ~what:"seeds" 0 int) 100
      & info [ "seeds" ] ~docv:"N"
          ~doc:"Number of random scenarios to check (seeds 0..N-1).")
  in
  let base =
    Arg.(
      value & opt int 0
      & info [ "base" ] ~docv:"B" ~doc:"First seed of the range.")
  in
  let seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "seed" ] ~docv:"K"
          ~doc:
            "Replay a single seed verbosely (prints the scenario, then the \
             verdict; shrinks on failure).  Overrides $(b,--seeds).")
  in
  let backend =
    Arg.(
      value & opt engine_conv `Record
      & info [ "backend" ] ~docv:"ENGINE"
          ~doc:
            "$(b,record) (default) checks the record engine only; $(b,soa) \
             additionally runs the struct-of-arrays engine in lockstep, one \
             arm per domain count in $(b,--domains).")
  in
  let domains =
    Arg.(
      value
      & opt (list_conv (at_least ~what:"domain count" 1 int)) []
      & info [ "domains" ] ~docv:"N,..."
          ~doc:
            "Domain counts for the SoA arms (default 1).  Only meaningful \
             with $(b,--backend soa).")
  in
  let family =
    let name =
      name_conv ~what:"family" ~hint:"see --help" ~print:Gen.family_name
        Gen.family_of_string
    in
    Arg.(
      value
      & opt (list_conv name) []
      & info [ "family" ] ~docv:"NAME,..."
          ~doc:
            "Restrict generation to the listed scenario families \
             ($(b,free), $(b,shared-bucket), $(b,windowed), $(b,leaky), \
             $(b,capacity), $(b,local), $(b,feedback), $(b,fabric)).  \
             Default: all eight.  Note the seed-to-scenario mapping \
             depends on the restriction.")
  in
  let mutant_demo =
    Arg.(
      value & flag
      & info [ "mutant-demo" ]
          ~doc:
            "Corrupt the engine arms with each built-in mutant and verify \
             the differ catches and shrinks every one.")
  in
  let quiet =
    Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"No progress lines.")
  in
  (* The construction needs S0 >= 2n, n = 9 at eps 1/5. *)
  let paper_run =
    let eps = Ratio.make 1 5 in
    let min_s0 = 2 * (Aqt.Params.make ~eps ()).n in
    let parse s =
      match List.map int_of_string_opt (String.split_on_char ',' s) with
      | [ Some s0; Some _ ] when s0 < min_s0 ->
          Error (Printf.sprintf "s0 %d must be at least %d" s0 min_s0)
      | [ Some _; Some cycles ] when cycles < 1 ->
          Error (Printf.sprintf "cycles %d must be at least 1" cycles)
      | [ Some s0; Some cycles ] ->
          Ok (Aqt.Instability.config ~eps ~s0 ~cycles ())
      | _ -> Error (Printf.sprintf "%S is not S0,CYCLES" s)
    in
    let print fmt (cfg : Aqt.Instability.config) =
      Format.fprintf fmt "%d,%d" cfg.params.s0 cfg.cycles
    in
    Arg.(
      value
      & opt (some (conv' (parse, print))) None
      & info [ "theorem-3-17" ] ~docv:"S0,CYCLES"
          ~doc:
            "Run Theorem 3.17's FIFO construction (eps 1/5) at seed \
             threshold $(i,S0) for $(i,CYCLES) cycles, and replay it as \
             Lemma 3.3's static adversary through the differ, whole.  \
             Overrides $(b,--seeds) and $(b,--seed).")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Differential conformance check: run seeded random scenarios \
          through a naive reference model and the fast engine in lockstep, \
          verify adversary admissibility and the paper's dwell-bound \
          invariants, and shrink any divergence to a minimal reproducer \
          replayable by seed.")
    Term.(
      const run $ seeds $ base $ seed $ backend $ domains $ family
      $ mutant_demo $ quiet $ paper_run)

(* ------------------------------------------------------------------ *)
(* fabric: datacenter-fabric scenarios (spine-leaf / fat-tree)          *)
(* ------------------------------------------------------------------ *)

let fabric_cmd =
  let module Scenario = Aqt_fabric.Scenario in
  let module Traffic = Aqt_workload.Traffic in
  let module Capacity = Aqt_capacity.Model in
  let print_outcome (o : Scenario.outcome) =
    let c = Tbl.create ~headers:[ "metric"; "value" ] in
    Tbl.add_row c [ "backend"; Scenario_spec.Backend.to_string o.backend ];
    Tbl.add_row c [ "nodes"; Tbl.fi o.nodes ];
    Tbl.add_row c [ "edges"; Tbl.fi o.edges ];
    Tbl.add_row c [ "hosts"; Tbl.fi o.n_hosts ];
    Tbl.add_row c [ "pairs"; Tbl.fi o.n_pairs ];
    Tbl.add_row c [ "flows"; Tbl.fi o.n_flows ];
    Tbl.add_row c [ "injected"; Tbl.fi o.injected ];
    Tbl.add_row c [ "absorbed"; Tbl.fi o.absorbed ];
    Tbl.add_row c [ "dropped"; Tbl.fi o.dropped ];
    Tbl.add_row c [ "in flight"; Tbl.fi o.in_flight ];
    Tbl.add_row c [ "max queue"; Tbl.fi o.max_queue ];
    Tbl.add_row c [ "peak occupancy"; Tbl.fi o.peak_occupancy ];
    Tbl.add_row c [ "max dwell"; Tbl.fi o.max_dwell ];
    Tbl.add_row c [ "mean latency"; Printf.sprintf "%.2f" o.latency_mean ];
    Tbl.add_row c [ "admissible"; (if o.legal then "yes" else "NO") ];
    Tbl.print c
  in
  let run list name_arg topo pattern util conns policy capacity horizon drain
      seed backend domains =
    if list then begin
      let tbl =
        Tbl.create
          ~headers:
            [ "name"; "topology"; "pattern"; "util"; "policy"; "capacity" ]
      in
      List.iter
        (fun (t : Scenario.t) ->
          Tbl.add_row tbl
            [
              t.name;
              Scenario.topo_name t.topo;
              Traffic.pattern_name t.pattern;
              Ratio.to_string t.utilisation;
              t.policy.name;
              Capacity.describe t.capacity;
            ])
        (Scenario.catalog ());
      Tbl.print tbl;
      `Ok ()
    end
    else begin
      let base =
        match name_arg with
        | Some t -> t
        | None ->
            Scenario.make ~topo ~pattern ~utilisation:util
              ~conns_per_pair:conns ~policy ~capacity ~horizon ~drain ~seed ()
      in
      match Scenario_spec.Backend.with_domains domains backend with
      | Error msg -> `Error (true, "option '--domains': " ^ msg)
      | Ok backend ->
          let _, compiled = Scenario.compile base in
          print_endline (Traffic.describe compiled);
          let o = Scenario.run ~backend base in
          print_outcome o;
          if not o.Scenario.legal then exit 1;
          `Ok ()
    end
  in
  let list =
    Arg.(value & flag & info [ "list" ] ~doc:"List the canned scenarios.")
  in
  let name_arg =
    let name =
      name_conv ~what:"scenario" ~hint:"try fabric --list"
        ~print:(fun (t : Scenario.t) -> t.name)
        Scenario.find_catalog
    in
    Arg.(
      value
      & opt (some name) None
      & info [ "name" ] ~docv:"NAME"
          ~doc:"Run a canned scenario from $(b,--list) instead of building \
                one from flags.")
  in
  let topo =
    Arg.(
      value
      & opt (spec_conv (module Scenario_spec.Topology)) (Scenario.Fat_tree { k = 4 })
      & info [ "topo" ] ~docv:"TOPO"
          ~doc:"$(b,spine-leaf:S,L,H) or $(b,fat-tree:K) (K even).")
  in
  let pattern =
    Arg.(
      value
      & opt (spec_conv (module Scenario_spec.Pattern)) Traffic.Permutation
      & info [ "pattern" ] ~docv:"PATTERN"
          ~doc:
            "$(b,permutation), $(b,incast:N), $(b,all-to-all) or \
             $(b,hotspot:N/D).")
  in
  let util =
    Arg.(
      value
      & opt
          (spec_conv (module Scenario_spec.Rate) ~check:(fun u ->
               if Ratio.(u > zero) then Ok u
               else
                 Error
                   (Printf.sprintf "utilisation %s must be positive"
                      (Ratio.to_string u))))
          (Ratio.make 9 10)
      & info [ "util" ] ~docv:"RHO"
          ~doc:"Target utilisation of the busiest host access link.")
  in
  let conns =
    Arg.(
      value & opt (at_least ~what:"conns" 1 int) 1
      & info [ "conns" ] ~docv:"N" ~doc:"Connections per host pair.")
  in
  let policy =
    Arg.(
      value
      & opt (spec_conv (module Scenario_spec.Policy)) Policies.fifo
      & info [ "policy" ] ~docv:"P" ~doc:"Queueing policy.")
  in
  let capacity =
    Arg.(
      value
      & opt (spec_conv (module Scenario_spec.Capacity)) Capacity.unbounded
      & info [ "capacity" ] ~docv:"CAP"
          ~doc:
            "$(b,unbounded), $(b,uniform:K), $(b,shared:TOTAL) or \
             $(b,shared:TOTAL:A/B) (shared Dynamic-Threshold with alpha = \
             A/B).")
  in
  let horizon =
    Arg.(
      value & opt (at_least ~what:"horizon" 1 int) 2000
      & info [ "horizon" ] ~docv:"T" ~doc:"Injection steps.")
  in
  let drain =
    Arg.(
      value & opt (at_least ~what:"drain" 0 int) 200
      & info [ "drain" ] ~docv:"T"
          ~doc:"Injection-free steps before reading counters.")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"K" ~doc:"Workload seed.")
  in
  let backend =
    Arg.(
      value & opt engine_conv `Record
      & info [ "backend" ] ~docv:"ENGINE"
          ~doc:"$(b,record) (default) or $(b,soa).")
  in
  let domains =
    Arg.(
      value & opt int 1
      & info [ "domains" ] ~docv:"N"
          ~doc:"Domain count for $(b,--backend soa).")
  in
  Cmd.v
    (Cmd.info "fabric"
       ~doc:
         "Run a datacenter-fabric scenario: a spine-leaf or fat-tree \
          topology, a flow-level workload compiled to an admissible \
          schedule (ECMP routes, flow-size CDF, utilisation shaping), a \
          queueing policy and a buffer model.  Verifies the injection log \
          against its compiled (rho, sigma) budget and exits nonzero if \
          the admissibility check fails.")
    Term.(
      ret
        (const run $ list $ name_arg $ topo $ pattern $ util $ conns $ policy
        $ capacity $ horizon $ drain $ seed $ backend $ domains))

let () =
  let doc = "adversarial queuing theory simulator (Lotker-Patt-Shamir-Rosen)" in
  let info = Cmd.info "aqt_sim" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            params_cmd; instability_cmd; stability_cmd; simulate_cmd;
            sweep_cmd; plan_cmd; fluid_cmd; replay_cmd; workloads_cmd;
            spacetime_cmd; campaign_cmd; report_cmd; check_cmd; serve_cmd;
            loadgen_cmd; fabric_cmd;
          ]))
