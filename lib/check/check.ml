type failure_report = {
  seed : int;
  original : Diff.failure;
  scenario : Gen.scenario;
  failure : Diff.failure;
  replay : string;
}

type summary = { seeds_run : int; failures : failure_report list }

(* The seed's scenario through the differ; a failure comes back with its
   shrunk reproducer. *)
let check_seed ?families ?mutant ?soa_domains seed =
  let scenario = Gen.generate ?families seed in
  let run = Diff.run ?mutant ?soa_domains in
  Option.map
    (fun original -> (original, Shrink.minimize ~run scenario original))
    (run scenario)

(* [aqt_sim check] with the flags that draw the seed's scenario and run
   the arms this run ran: the seed-to-scenario map depends on the family
   restriction, and a Soa arm exists only under [--backend soa]. *)
let replay_command ?families ?soa_domains seed =
  let list f l = String.concat "," (List.map f l) in
  Printf.sprintf "aqt_sim check --seed %d%s%s" seed
    (match families with
    | Some (_ :: _ as fs) -> " --family " ^ list Gen.family_name fs
    | _ -> "")
    (match soa_domains with
    | Some (_ :: _ as ds) ->
        " --backend soa --domains " ^ list string_of_int ds
    | _ -> "")

let run_seeds ?families ?mutant ?soa_domains ?(base = 0) ?progress ~n () =
  let failures = ref [] in
  for i = 0 to n - 1 do
    let seed = base + i in
    (match check_seed ?families ?mutant ?soa_domains seed with
    | None -> ()
    | Some (original, (scenario, failure)) ->
        let replay = replay_command ?families ?soa_domains seed in
        failures :=
          { seed; original; scenario; failure; replay } :: !failures);
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

let find_mutant_failure ?families ?soa_domains ?(max_seeds = 100) mutant =
  let rec scan seed =
    if seed >= max_seeds then None
    else
      match check_seed ?families ~mutant ?soa_domains seed with
      | None -> scan (seed + 1)
      | Some (_, shrunk) -> Some shrunk
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
        Format.fprintf fmt "replay: %s@.@." r.replay)
      s.failures
  end
