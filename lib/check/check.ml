type failure_report = {
  seed : int;
  original : Diff.failure;
  scenario : Gen.scenario;
  failure : Diff.failure;
}

type summary = { seeds_run : int; failures : failure_report list }

let run_seed ?families ?mutant ?soa_domains seed =
  Diff.run ?mutant ?soa_domains (Gen.generate ?families seed)

let run_seeds ?families ?mutant ?soa_domains ?(base = 0) ?progress ~n () =
  let failures = ref [] in
  for i = 0 to n - 1 do
    let seed = base + i in
    (match run_seed ?families ?mutant ?soa_domains seed with
    | None -> ()
    | Some original ->
        let scenario, failure =
          Shrink.minimize
            ~run:(Diff.run ?mutant ?soa_domains)
            (Gen.generate ?families seed)
            original
        in
        failures := { seed; original; scenario; failure } :: !failures);
    match progress with Some f -> f (i + 1) | None -> ()
  done;
  { seeds_run = n; failures = List.rev !failures }

let mutants =
  [
    ("drop-injection", Diff.Drop_injection 3, Gen.all_families);
    ("flip-tie-order", Diff.Flip_tie_order, Gen.all_families);
    ( "skip-reroutes",
      Diff.Skip_reroutes,
      [ Gen.Free; Gen.Capacity_regime; Gen.Feedback_routing ] );
    ( "ignore-capacity",
      Diff.Ignore_capacity,
      [ Gen.Capacity_regime; Gen.Fabric ] );
    ( "violate-local-budget",
      Diff.Violate_local_budget,
      [ Gen.Local_bursty; Gen.Fabric ] );
  ]

let find_mutant_failure ?families ?(max_seeds = 100) mutant =
  let rec scan seed =
    if seed >= max_seeds then None
    else
      match run_seed ?families ~mutant seed with
      | None -> scan (seed + 1)
      | Some original ->
          Some
            (Shrink.minimize ~run:(Diff.run ~mutant)
               (Gen.generate ?families seed)
               original)
  in
  scan 0

let theorem_3_17 ?horizon (cfg : Aqt.Instability.config) =
  let module N = Aqt_engine.Network in
  let res =
    Aqt.Instability.run ~resilient:true { cfg with log_injections = true }
  in
  let steps = N.now res.net in
  let horizon = match horizon with Some h -> min h steps | None -> steps in
  let schedule = Array.make horizon [] in
  (* The log is in injection order; each step's list is consed back to
     front and reversed at the end. *)
  Array.iter
    (fun (t, route) ->
      if t <= horizon then
        schedule.(t - 1) <- { N.route; tag = "a'" } :: schedule.(t - 1))
    (N.injection_log res.net);
  {
    Gen.seed = 0;
    label =
      Printf.sprintf "theorem-3.17 eps=%s s0=%d cycles=%d, steps 1-%d%s"
        (Aqt_util.Ratio.to_string cfg.params.eps)
        cfg.params.s0 cfg.cycles horizon
        (if res.collapsed = None then "" else " (a phase collapsed)");
    graph = res.gadget.graph;
    policy = Aqt_policy.Policies.fifo;
    tie_order = N.Transit_first;
    initial = Array.to_list (N.initial_final_routes res.net);
    schedule = Aqt_util.Boxed_array.map List.rev schedule;
    reroutes = false;
    capacity = Aqt_capacity.Model.unbounded;
    feedback = None;
    obligations = [];
  }

let pp_summary fmt s =
  if s.failures = [] then
    Format.fprintf fmt
      "check: %d seeds, no divergences, no invariant violations@."
      s.seeds_run
  else begin
    Format.fprintf fmt "check: %d seeds, %d FAILED@.@." s.seeds_run
      (List.length s.failures);
    List.iter
      (fun r ->
        Format.fprintf fmt "seed %d: %a@." r.seed Diff.pp_failure r.original;
        Format.fprintf fmt "shrunk reproducer (%a):@.%a@."
          Diff.pp_failure r.failure Gen.pp r.scenario;
        Format.fprintf fmt "replay: aqt_sim check --seed %d@.@." r.seed)
      s.failures
  end
