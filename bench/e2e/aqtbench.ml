(* aqtbench: the repository's end-to-end benchmark.

     aqtbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
              [--smoke] [--out FILE] [--bless]

   runs one workload, prints every metric as "name value unit n=N", checks
   every output against an oracle, writes a JSON result with provenance,
   and ends its standard output with one JSON line:
   {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
   metrics are the end-to-end ones; --trace 1 runs the same workload with
   spans recorded, then the layer replays, and reports the per-layer ones.
   --workload all runs every workload, each in a fresh child process.
   aqtbench --mix prints what the /simulate pool is cut from. *)

module Jsonx = Aqt_util.Jsonx
module O = Outcome
module W = Workloads

let workloads = [ "campaign"; "ring1e6"; "serve_sweep" ]

let usage =
  "aqtbench --workload campaign|ring1e6|serve_sweep|all [--seed N] [--seconds S]\n\
  \         [--trace 0|1] [--smoke] [--out FILE] [--bless]"

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  smoke : bool;
  bless : bool;
  out : string option;
}

(* Relative to the repository root, where the benchmark runs. *)
let work_dir = ".bench_build/aqtbench"
let schema = "BENCHMARK.json"

let parse_args argv =
  let die msg =
    prerr_endline ("aqtbench: " ^ msg ^ "\nusage: " ^ usage);
    exit 2
  in
  let int_arg k v = match int_of_string_opt v with Some i -> i | None -> die (k ^ " expects an integer") in
  let rec go a = function
    | "--workload" :: v :: rest -> go { a with workload = v } rest
    | "--seed" :: v :: rest -> go { a with seed = int_arg "--seed" v } rest
    | "--seconds" :: v :: rest -> go { a with seconds = float_of_int (int_arg "--seconds" v) } rest
    | "--trace" :: v :: rest -> (
        match v with
        | "0" -> go { a with trace = false } rest
        | "1" -> go { a with trace = true } rest
        | _ -> die "--trace expects 0 or 1")
    | "--smoke" :: rest -> go { a with smoke = true } rest
    | "--bless" :: rest -> go { a with bless = true } rest
    | "--out" :: v :: rest -> go { a with out = Some v } rest
    | [] -> a
    | x :: _ -> die ("unexpected argument " ^ x)
  in
  let a =
    go
      {
        workload = "";
        seed = 1;
        seconds = 25.;
        trace = false;
        smoke = false;
        bless = false;
        out = None;
      }
      argv
  in
  if not (List.mem a.workload ("all" :: workloads)) then die "unknown or missing --workload";
  if a.seconds < 1. then die "--seconds must be at least 1";
  a

(* ------------------------------------------------------------------ *)
(* Provenance                                                          *)
(* ------------------------------------------------------------------ *)

let read_file f = String.trim (In_channel.with_open_bin f In_channel.input_all)

(* The checked-out commit, read from .git without running git; absent when
   the benchmark runs outside a git checkout. *)
let git_commit () =
  try
    let head = read_file ".git/HEAD" in
    match String.split_on_char ' ' head with
    | [ "ref:"; r ] -> (
        let loose = Filename.concat ".git" r in
        if Sys.file_exists loose then Jsonx.Str (read_file loose)
        else
          read_file ".git/packed-refs" |> String.split_on_char '\n'
          |> List.find_map (fun l ->
                 match String.split_on_char ' ' l with
                 | [ sha; name ] when name = r -> Some (Jsonx.Str sha)
                 | _ -> None)
          |> Option.value ~default:Jsonx.Null)
    | _ -> Jsonx.Str head
  with Sys_error _ -> Jsonx.Null

let git_dirty () =
  if not (Sys.file_exists ".git") then Jsonx.Null
  else
    try
      let ic =
        Unix.open_process_args_in "git" [| "git"; "status"; "--porcelain"; "--untracked-files=no" |]
      in
      let out = In_channel.input_all ic in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 -> Jsonx.Bool (String.trim out <> "")
      | _ -> Jsonx.Null
    with Unix.Unix_error _ -> Jsonx.Null

let params (a : args) =
  let f x = Jsonx.Float x and i x = Jsonx.Int x in
  match a.workload with
  | "campaign" ->
      [
        ("jobs", i 2); ("set_ups", i (W.campaign_setups ~smoke:a.smoke));
        ("set_up_pace_s", f W.setup_pace_s); ("min_cold_runs", i 2);
      ]
  | "ring1e6" ->
      let k, n = W.ring_size ~smoke:a.smoke in
      [
        ("edges", i k); ("routes", i n); ("hops", i W.ring_hops); ("warmup_steps", i W.ring_warmup);
        ("backend", Jsonx.Str "soa-d1"); ("set_ups", i (if a.smoke then 1 else 3));
      ]
  | _ ->
      let cfg = Daemon.config ~dir:"" in
      let open_s, closed_s, warm_s = W.serve_phases ~smoke:a.smoke ~seconds:a.seconds in
      [
        ("workers", i cfg.Aqt_serve.Server.workers); ("rho", f cfg.rho); ("sigma", i cfg.sigma);
        ("sweep_rho", f cfg.sweep_rho); ("sweep_sigma", i cfg.sweep_sigma);
        ("simulate_rate", f W.sim_rate); ("sweep_rate", f W.sweep_rate);
        ("simulate_pool", i Inputs.sim_pool_size);
        ("sweep_pool", i Inputs.sweep_pool_size); ("pool_seed", i Inputs.pool_seed);
        ("warm_s", f warm_s); ("open_s", f open_s); ("closed_s", f closed_s);
        ("connections", i 2); ("closed_depth", i 4); ("set_up_daemons", i (W.serve_setups ~smoke:a.smoke));
        ("set_up_pace_s", f W.setup_pace_s);
      ]

(* ------------------------------------------------------------------ *)
(* One workload                                                        *)
(* ------------------------------------------------------------------ *)

(* Names and units BENCHMARK.json declares for this mode; the run's metrics
   must match them exactly. *)
let check_schema (a : args) (ms : O.metric list) =
  if not (Sys.file_exists schema) then [ "schema: no " ^ schema ]
  else
    let declared =
      Jsonx.to_list (Jsonx.get (if a.trace then "per_layer" else "end_to_end") (W.read_json schema))
      |> List.map (fun m -> (Jsonx.to_str (Jsonx.get "name" m), Jsonx.to_str (Jsonx.get "unit" m)))
    in
    let got = List.map (fun (m : O.metric) -> (m.name, m.unit)) ms in
    let missing = List.filter (fun d -> not (List.mem d got)) declared in
    let extra = List.filter (fun g -> not (List.mem g declared)) got in
    List.map (fun (n, u) -> Printf.sprintf "schema: %s (%s) not reported" n u) missing
    @ List.map (fun (n, u) -> Printf.sprintf "schema: %s (%s) not declared in %s" n u schema) extra

let run_traced_layers (o : O.t) ~session ~cold_s =
  (* Wall seconds of each replay, for the record. *)
  let spent = ref [] in
  let timed name f =
    let t0 = Spans.now () in
    let r = f () in
    spent := (name, Jsonx.Float (Spans.now () -. t0)) :: !spent;
    r
  in
  (* The serve rows come from the workload's own session, or from a short
     one of the same shape run for them. *)
  let serve_s =
    match session with
    | Some s -> s
    | None ->
        let s =
          timed "serve_panel" (fun () ->
              W.serve_session o ~setups:1 ~warm:(if o.smoke then 0.1 else 0.5)
                ~open_s:(if o.smoke then 0.4 else 4.) ~closed_s:0. ~scrape:true)
        in
        timed "serve_check" (fun () -> W.check_session o s);
        s
  in
  Layers.scrape_rows o serve_s;
  Layers.latency_rows o serve_s;
  Layers.sweep_rows o serve_s;
  Layers.status_rows o serve_s;
  timed "serve_rows" (fun () -> Layers.serve_rows o serve_s);
  timed "engine_small" (fun () -> Layers.engine_small o serve_s.W.pool);
  timed "core" (fun () -> Layers.core o serve_s.W.sweeps);
  timed "harness" (fun () -> Layers.harness o ~cold_s);
  Gc.full_major ();
  timed "engine_big" (fun () -> Layers.engine_big o ~need_d1:(o.workload <> "ring1e6"));
  O.info o "replay_s" (Jsonx.Obj (List.rev !spent));
  (* Client p50 minus the per-request layer rows: event loop, queue wait,
     loopback and the client itself. *)
  let v name = match O.find o name with Some m -> m.O.value | None -> nan in
  let p50 = Stats.median (W.latencies serve_s ~cls:Client.simulate) *. 1000. in
  O.layer o "serve.remainder_ms" "ms"
    (p50
    -. (v "serve.parse_us" /. 1e3)
    -. (v "serve.admit_ns" /. 1e6)
    -. (v "engine.small.record_us" /. 1e3)
    -. (v "serve.encode_us" /. 1e3))

let run_one (a : args) =
  let work = Filename.concat work_dir a.workload in
  let o =
    {
      O.workload = a.workload;
      seed = a.seed;
      seconds = a.seconds;
      trace = a.trace;
      smoke = a.smoke;
      bless = a.bless;
      work;
      spans = Spans.create ~enabled:a.trace;
      attempted = 0;
      failed = 0;
      errors = [];
      metrics = [];
      info = [];
      speed = None;
    }
  in
  O.mkdir_p work;
  (* A run that dies part-way still reports, as not correct. *)
  (try
     let steal0, ticks0 = Daemon.host_ticks () in
     let t0 = Spans.now () in
     (* The samplers run while the workload does, traced or not, so both
        runs meet the same conditions; --smoke times nothing. *)
     if not a.smoke then o.speed <- Some (Speed.start ~dir:work);
     let host = ref None in
     let session, cold_s =
       Fun.protect
         ~finally:(fun () -> host := Option.map Speed.stop o.speed)
         (fun () ->
           match a.workload with
           | "campaign" -> (None, Some (W.campaign o))
           | "ring1e6" ->
               W.ring1e6 o;
               (None, None)
           | _ -> (Some (W.serve o), None))
     in
     let wall = Spans.now () -. t0 in
     Option.iter
       (fun (factor, chunks) ->
         if chunks < 20 then O.fail o "host-speed samplers recorded only %d chunks" chunks;
         O.info o "host_factor" (Jsonx.Float factor);
         O.info o "host_chunks" (Jsonx.Int chunks))
       !host;
     o.speed <- None;
     (* The share of this machine's CPU time the host gave to other tenants
        while the workload ran: what the CPU-time metrics leave out. *)
     let steal1, ticks1 = Daemon.host_ticks () in
     O.info o "host_steal_share"
       (Jsonx.Float (float_of_int (steal1 - steal0) /. float_of_int (max 1 (ticks1 - ticks0))));
     if a.trace then begin
       (* An estimate, not the difference between a traced and an untraced
          run: tracing costs well under 0.1% of a run, and runs differ from
          one another by several percent. *)
       let in_run = Spans.count o.spans in
       let t1 = Spans.now () in
       Option.iter (W.request_spans o) session;
       let rebuilt = Spans.now () -. t1 in
       O.layer o "trace.overhead_pct" "%"
         (100. *. ((float_of_int in_run *. Spans.cost_s ()) +. rebuilt) /. wall);
       run_traced_layers o ~session ~cold_s;
       let file = Filename.concat work (Printf.sprintf "spans-s%d.jsonl" a.seed) in
       Spans.write_jsonl o.spans file;
       O.info o "spans" (Jsonx.Str file)
     end
   with e -> O.fail o "aborted: %s" (Printexc.to_string e));
  let kind = if a.trace then O.Layer else O.E2e in
  let all = List.rev o.metrics in
  let reported = List.filter (fun (m : O.metric) -> m.kind = kind) all in
  List.iter
    (fun (m : O.metric) ->
      if not (Float.is_finite m.value) then O.fail o "metric %s was not measured" m.name)
    reported;
  let schema_errors = check_schema a reported in
  let correct = o.failed = 0 && schema_errors = [] in
  List.iter prerr_endline (List.rev o.errors @ schema_errors);
  List.iter (fun (m : O.metric) -> Printf.printf "%s %.6g %s n=%d\n" m.name m.value m.unit m.n) all;
  List.iter
    (fun (k, v) -> match v with Jsonx.List _ -> () | _ -> Printf.printf "# %s %s\n" k (Jsonx.to_string v))
    (List.rev o.info);
  let metric_json ~full (m : O.metric) =
    ( m.name,
      Jsonx.Obj
        ([
           ("value", Jsonx.Float (if Float.is_finite m.value then m.value else 0.));
           ("unit", Jsonx.Str m.unit);
         ]
        @
        if full then
          [
            ("n", Jsonx.Int m.n);
            ("kind", Jsonx.Str (match m.kind with O.E2e -> "end_to_end" | O.Layer -> "per_layer"));
          ]
        else []) )
  in
  let result =
    Jsonx.Obj
      [
        ("workload", Jsonx.Str a.workload);
        ("seed", Jsonx.Int a.seed);
        ("seconds", Jsonx.Float a.seconds);
        ("trace", Jsonx.Bool a.trace);
        ("smoke", Jsonx.Bool a.smoke);
        ("params", Jsonx.Obj (params a));
        ( "provenance",
          Jsonx.Obj
            [
              ("commit", git_commit ());
              ("dirty", git_dirty ());
              ("nproc", Jsonx.Int (Domain.recommended_domain_count ()));
              ("ocaml", Jsonx.Str Sys.ocaml_version);
              ("unix_time", Jsonx.Float (Unix.gettimeofday ()));
            ] );
        ("correct", Jsonx.Bool correct);
        ("attempted", Jsonx.Int o.attempted);
        ("failed", Jsonx.Int o.failed);
        ("errors", Jsonx.List (List.rev_map (fun e -> Jsonx.Str e) o.errors));
        ("metrics", Jsonx.Obj (List.map (metric_json ~full:true) all));
        ("info", Jsonx.Obj (List.rev o.info));
      ]
  in
  let out =
    match a.out with
    | Some f -> f
    | None -> Filename.concat work (Printf.sprintf "result-s%d-t%d.json" a.seed (Bool.to_int a.trace))
  in
  W.write_json out result;
  let last =
    Jsonx.Obj
      [
        ("correct", Jsonx.Bool correct);
        ("attempted", Jsonx.Int (max 1 o.attempted));
        ("failed", Jsonx.Int o.failed);
        ("metrics", Jsonx.Obj (List.map (metric_json ~full:false) reported));
      ]
  in
  print_endline (Jsonx.to_string last);
  if correct then 0 else 1

(* ------------------------------------------------------------------ *)
(* --workload all                                                      *)
(* ------------------------------------------------------------------ *)

(* Each workload (both modes under --smoke) in a fresh child process. *)
let run_all (a : args) argv =
  let passthrough =
    let rec strip = function
      | "--workload" :: _ :: rest | "--trace" :: _ :: rest | "--out" :: _ :: rest -> strip rest
      | x :: rest -> x :: strip rest
      | [] -> []
    in
    strip argv
  in
  let modes = if a.smoke then [ "0"; "1" ] else [ (if a.trace then "1" else "0") ] in
  let runs = List.concat_map (fun w -> List.map (fun m -> (w, m)) modes) workloads in
  let ok =
    List.fold_left
      (fun ok (w, m) ->
        let args = Array.of_list ((Sys.executable_name :: "--workload" :: w :: "--trace" :: m :: passthrough)) in
        let ic = Unix.open_process_args_in Sys.executable_name args in
        let lines = In_channel.input_all ic |> String.trim |> String.split_on_char '\n' in
        let status = Unix.close_process_in ic in
        let last = List.nth lines (List.length lines - 1) in
        let j = try Some (Jsonx.of_string last) with Failure _ -> None in
        let field k = Option.bind j (Jsonx.member k) in
        let correct = field "correct" = Some (Jsonx.Bool true) in
        let count k = match field k with Some (Jsonx.Int n) -> n | _ -> -1 in
        Printf.printf "%s --trace %s: correct %b, %d failed of %d\n%!" w m correct (count "failed")
          (count "attempted");
        if not correct then List.iter print_endline lines;
        ok && correct && status = Unix.WEXITED 0)
      true runs
  in
  Printf.printf "{\"correct\": %b, \"runs\": %d}\n" ok (List.length runs);
  if ok then 0 else 1

(* --mix: the /simulate mix the pool is cut from.  Engine-work quantiles
   of a large draw from the mix and of the pool, and the in-process compute
   time of every pool input in three passes: the mean sets the open loop's
   rate (see README). *)
let mix_report () =
  let line name xs =
    Printf.printf "%-22s mean %10.4g  p10 %10.4g  p50 %10.4g  p90 %10.4g  p99 %10.4g  max %10.4g\n%!"
      name (Stats.mean xs) (Stats.quantile xs 0.1) (Stats.median xs) (Stats.quantile xs 0.9)
      (Stats.quantile xs 0.99) (Stats.quantile xs 1.)
  in
  let rng = Aqt_util.Prng.create 1 in
  line "mix work (hops)" (Array.init 100_000 (fun _ -> Inputs.sim_work (Inputs.free_sim rng)));
  let pool = Inputs.sim_pool ~smoke:false in
  line "pool work (hops)" (Array.map Inputs.sim_work pool);
  for pass = 1 to 3 do
    let ms =
      Array.map
        (fun s ->
          let t0 = Spans.now () in
          ignore (Inputs.simulate_once s);
          1000. *. (Spans.now () -. t0))
        pool
    in
    line (Printf.sprintf "pass %d compute (ms)" pass) ms
  done

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match List.tl (Array.to_list Sys.argv) with
  | [ "--daemon"; dir ] -> Daemon.serve ~dir
  | [ "--mix" ] -> mix_report ()
  | [ "--cold"; dir; jobs; names ] ->
      W.cold_child ~dir ~jobs:(int_of_string jobs) ~order:(String.split_on_char ',' names)
  | [ "--setup-probe"; dir; names ] ->
      W.campaign_ready ~dir ~order:(String.split_on_char ',' names);
      exit 0
  | argv ->
      let a = parse_args argv in
      exit (if a.workload = "all" then run_all a argv else run_one a)
