(* The traced run's layer replays.  Each one times a single layer through
   its public functions on the run's own seeded inputs, so every traced run
   reports every per-layer metric, whichever workload it drives. *)

module Jsonx = Aqt_util.Jsonx
module Prng = Aqt_util.Prng
module Ratio = Aqt_util.Ratio
module Fbuf = Stats.Fbuf
module Registry = Aqt_harness.Registry
module Campaign = Aqt_harness.Campaign
module Cache = Aqt_harness.Cache
module Journal = Aqt_harness.Journal
module Scheduler = Aqt_harness.Scheduler
module Backend = Aqt_engine.Backend
module Http = Aqt_serve.Http
module Bucket = Aqt_serve.Bucket
module W = Workloads
module O = Outcome

let now = Spans.now

(* Mean seconds per call of [f] over [reps] passes of [n] calls. *)
let per_call ~reps ~n f =
  let t0 = now () in
  for _ = 1 to reps do
    for i = 0 to n - 1 do
      f i
    done
  done;
  (now () -. t0) /. float_of_int (reps * n)

(* ------------------------------------------------------------------ *)
(* engine                                                              *)
(* ------------------------------------------------------------------ *)

(* Each /simulate input of the pool, recomputed with its injection log and
   the log replayed through Backend.run_steps on both engines; the replays
   must reproduce the recomputed counters. *)
let engine_small (o : O.t) (pool : Inputs.sim array) =
  let record = Fbuf.create () and soa = Fbuf.create () in
  Array.iter
    (fun s ->
      let want, log = Inputs.simulate s in
      List.iter
        (fun (backend, acc) ->
          O.attempt o 1;
          let got, dt = Inputs.replay ~backend s ~steps:want.Inputs.steps log in
          Fbuf.push acc dt;
          if got <> want then
            O.fail o "engine replay (%s) of %s disagrees with Sim.run"
              (match backend with `Record -> "record" | `Soa _ -> "soa")
              (Inputs.sim_target s))
        [ (`Record, record); (`Soa 1, soa) ])
    pool;
  let n = Array.length pool in
  O.layer o ~n "engine.small.record_us" "us" (1e6 *. Stats.median (Fbuf.to_array record));
  O.layer o ~n "engine.small.soa_us" "us" (1e6 *. Stats.median (Fbuf.to_array soa))

(* The 10^6-edge ring on Soa d=1 (unless the workload measured it), Soa
   d=2 and the record engine; every one must land on the pinned counters. *)
let engine_big (o : O.t) ~need_d1 =
  let k, _ = W.ring_size ~smoke:o.smoke in
  let steps = if o.smoke then 10 else 60 in
  let t0 = now () in
  let graph = Aqt_graph.Build.ring k in
  let build_s = now () -. t0 in
  let timed backend steps =
    Gc.full_major ();
    let r = W.ring_setup o ~graph ~backend () in
    let run = W.ring_steps o r steps in
    Backend.shutdown r.W.b;
    (r, run)
  in
  if need_d1 then begin
    let r, run = timed (`Soa 1) steps in
    W.setup_rows o [ (build_s, r.W.create_s, r.W.warmup_s) ];
    W.d1_rows o run
  end;
  W.engine_rows o "engine.soa_d2" (snd (timed (`Soa 2) steps));
  let times, _, _, _ = snd (timed `Record (if o.smoke then 5 else 10)) in
  O.layer o ~n:(Array.length times) "engine.record.step_ms" "ms" (1000. *. Stats.median times)

(* ------------------------------------------------------------------ *)
(* core                                                                *)
(* ------------------------------------------------------------------ *)

let core (o : O.t) (sweeps : Inputs.sweep array) =
  let eps = Ratio.make 1 5 in
  let cfg =
    if o.smoke then Aqt.Instability.config ~eps ~s0:400 ~cycles:1 ()
    else Aqt.Instability.config ~eps ~cycles:3 ()
  in
  let t0 = now () in
  let r = Aqt.Instability.run cfg in
  let dt = now () -. t0 in
  O.attempt o 1;
  if r.Aqt.Instability.collapsed <> None then O.fail o "core: the instability construction collapsed";
  O.layer o "core.instability_s" "s" dt;
  O.layer o "core.instability.steps_per_s" "1/s"
    (float_of_int r.Aqt.Instability.outcome.Aqt_engine.Sim.steps_run /. dt);
  let cells = Fbuf.create () in
  Array.iter
    (fun w ->
      List.iter
        (fun cell ->
          let t0 = now () in
          ignore (Inputs.sweep_cell w cell);
          Fbuf.push cells (now () -. t0))
        (Inputs.sweep_cells w))
    (if o.smoke then Array.sub sweeps 0 2 else sweeps);
  O.layer o ~n:(Fbuf.length cells) "core.sweep_cell_ms" "ms"
    (1000. *. Stats.median (Fbuf.to_array cells))

(* ------------------------------------------------------------------ *)
(* harness                                                             *)
(* ------------------------------------------------------------------ *)

(* One cold campaign with one job: per-experiment compute, then its
   results pushed again through serialisation, the cache and the journal.
   Cache.store serialises, so serialise_ms is part of cache_store_ms.
   [cold_s] is the two-job wall time, measured here unless the workload
   measured it. *)
let harness (o : O.t) ~cold_s =
  let registry = Aqt_experiments.registry () in
  let order = Inputs.campaign_order ~smoke:o.smoke (Prng.create o.seed) in
  let pins = Jsonx.get "digests" (W.pinned "campaign.json") in
  let cold_s =
    match cold_s with
    | Some w -> w
    | None ->
        let w, _, _, tasks = W.cold_in_child ~dir:(O.fresh_dir o "harness-j2") ~order ~jobs:2 in
        W.check_campaign o ~pins ~seen:(Hashtbl.create 32) tasks;
        w
  in
  let dir = O.fresh_dir o "harness" in
  let wall, s = W.cold_campaign ~registry ~dir ~order ~jobs:1 in
  W.check_campaign o ~pins ~seen:(Hashtbl.create 32) (W.digests s);
  let compute = ref 0. in
  let results =
    List.filter_map
      (fun (r : Scheduler.task_result) ->
        compute := !compute +. r.duration;
        Option.map (fun res -> (r.name, r.duration, res)) r.result)
      s.Campaign.results
  in
  (* Every registered experiment but e1 and bench has a row; one the smoke
     campaign skips reports n = 0. *)
  List.iter
    (fun name ->
      match List.find_opt (fun (n, _, _) -> n = name) results with
      | Some (_, d, _) -> O.layer o (Printf.sprintf "harness.compute_s.%s" name) "s" d
      | None -> O.layer o ~n:0 (Printf.sprintf "harness.compute_s.%s" name) "s" 0.)
    (Inputs.campaign_heavy @ Array.to_list Inputs.campaign_light);
  let serialise = ref 0. and store = ref 0. in
  let cache = Cache.create ~dir:(O.fresh_dir o "harness-cache") in
  let lookups = Fbuf.create () in
  List.iter
    (fun (name, duration, res) ->
      let t0 = now () in
      ignore (Jsonx.to_string (Registry.result_to_json res));
      let t1 = now () in
      let entry = Option.get (Registry.find registry name) in
      let key = Cache.key ~salt:Campaign.default_options.Campaign.salt entry in
      Cache.store cache ~key ~name ~spec:entry.Registry.spec ~duration res;
      let t2 = now () in
      if Cache.lookup cache ~key = None then O.fail o "harness: %s missing from the cache" name;
      Fbuf.push lookups (now () -. t2);
      serialise := !serialise +. (t1 -. t0);
      store := !store +. (t2 -. t1))
    results;
  let events = Journal.load s.Campaign.journal_file in
  let j = Journal.create (Filename.concat (O.fresh_dir o "harness-journal") "replay.jsonl") in
  let writes =
    Array.of_list
      (List.map
         (fun e ->
           let t0 = now () in
           Journal.write j e;
           now () -. t0)
         events)
  in
  Journal.close j;
  let n = List.length results in
  O.layer o ~n "harness.serialise_ms" "ms" (1000. *. !serialise);
  O.layer o ~n "harness.cache_store_ms" "ms" (1000. *. !store);
  O.layer o ~n "harness.cache_lookup_ms" "ms" (1000. *. Stats.median (Fbuf.to_array lookups));
  O.layer o ~n:(Array.length writes) "harness.journal_write_us" "us" (1e6 *. Stats.median writes);
  O.layer o "harness.cold_j1_s" "s" wall;
  O.layer o "harness.cold_j2_s" "s" cold_s;
  O.layer o "harness.remainder_s" "s" (wall -. !compute -. !store -. Stats.sum writes);
  O.layer o "harness.parallel_efficiency" "ratio" (wall /. (2. *. cold_s))

(* ------------------------------------------------------------------ *)
(* serve                                                               *)
(* ------------------------------------------------------------------ *)

(* Parse, admission and encode of the session's exact bytes. *)
let serve_rows (o : O.t) (s : W.session) =
  let c = s.W.client in
  let reqs = s.W.reqs in
  let p = Http.Parser.create () in
  let parse =
    per_call ~reps:50 ~n:(Array.length reqs) (fun i ->
        Http.Parser.feed_string p reqs.(i);
        match Http.Parser.next p with
        | `Request _ -> ()
        | _ -> O.fail o "serve: request bytes do not parse")
  in
  let body_of = Hashtbl.create 64 and sched = Fbuf.create () in
  for id = 0 to Client.count c - 1 do
    if Client.cls c id = Client.simulate then begin
      if Client.status c id = 200 then Hashtbl.replace body_of (Client.tag c id) (Client.body c id);
      if Client.stream c id = W.s_open then Fbuf.push sched (Client.sched c id)
    end
  done;
  let bodies = Array.of_seq (Hashtbl.to_seq_values body_of) in
  let headers = [ ("Content-Type", "application/json") ] in
  let encode =
    per_call ~reps:50 ~n:(Array.length bodies) (fun i ->
        ignore (Http.encode_response ~headers ~keep_alive:true ~status:200 ~body:bodies.(i) ()))
  in
  (* Admission under a fake clock replaying the open loop's scheduled
     instants; each pass starts a second after the last one ended. *)
  let sched = Fbuf.to_array sched in
  let clock = ref 0. and base = ref 0. in
  let cfg = Daemon.config ~dir:"" in
  let bucket =
    Bucket.create ~now:(fun () -> !clock) ~rho:cfg.Aqt_serve.Server.rho ~sigma:cfg.sigma ()
  in
  let admit =
    per_call ~reps:20 ~n:(Array.length sched) (fun i ->
        if i = 0 then base := !clock +. 1.;
        clock := !base +. sched.(i) -. sched.(0);
        if not (Bucket.try_take bucket) then O.fail o "serve: the admission replay shed a request")
  in
  O.layer o ~n:(Array.length reqs) "serve.parse_us" "us" (1e6 *. parse);
  O.layer o ~n:(Array.length bodies) "serve.encode_us" "us" (1e6 *. encode);
  O.layer o ~n:(Array.length sched) "serve.admit_ns" "ns" (1e9 *. admit)

(* Prometheus text into (series, value). *)
let parse_metrics body =
  List.filter_map
    (fun l ->
      if l = "" || l.[0] = '#' then None
      else
        match String.rindex_opt l ' ' with
        | Some i ->
            Option.map
              (fun v -> (String.sub l 0 i, v))
              (float_of_string_opt (String.sub l (i + 1) (String.length l - i - 1)))
        | None -> None)
    (String.split_on_char '\n' body)

(* The session's /metrics scrapes, oldest first (at least the two taken
   around the timed phases). *)
let scrapes (s : W.session) =
  let c = s.W.client in
  List.filter_map
    (fun id ->
      if Client.cls c id = Client.scrape && Client.status c id = 200 then
        Some (parse_metrics (Client.body c id))
      else None)
    (List.init (Client.count c) Fun.id)

let series m k = Option.value ~default:0. (List.assoc_opt k m)

let sum_series m prefix =
  List.fold_left (fun a (k, v) -> if String.starts_with ~prefix k then a +. v else a) 0. m

(* What the daemon's own /metrics said over the timed phases. *)
let scrape_rows (o : O.t) (s : W.session) =
  let ms = scrapes s in
  let first = List.hd ms and last = List.nth ms (List.length ms - 1) in
  let delta k = series last k -. series first k in
  let depths = Array.of_list (List.map (fun m -> series m "serve_queue_depth") ms) in
  let n = List.length ms in
  O.layer o ~n "serve.server_mean_ms" "ms"
    (1000. *. delta "serve_request_seconds_sum" /. delta "serve_request_seconds_count");
  O.layer o ~n "serve.queue_depth_mean" "count" (Stats.mean depths);
  O.layer o ~n "serve.queue_depth_peak" "count" (Array.fold_left Float.max 0. depths);
  O.layer o ~n "serve.worker_minor_words_per_req" "words"
    ((sum_series last "serve_worker_minor_words" -. sum_series first "serve_worker_minor_words")
    /. delta "serve_requests_total");
  let lag = W.gen_lag s in
  O.layer o ~n:(Array.length lag) "client.gen_lag_p99_ms" "ms" (1000. *. Stats.quantile lag 0.99)

(* Each class's non-200 answers as shares of its requests: sheds (429 from
   an admission bucket), rejections (503, queue full or draining) and every
   other failure, dead connections included. *)
let status_rows (o : O.t) (s : W.session) =
  let c = s.W.client in
  List.iter
    (fun (cls, name) ->
      let total = ref 0 and shed = ref 0 and reject = ref 0 and error = ref 0 in
      for id = 0 to Client.count c - 1 do
        if Client.cls c id = cls then begin
          incr total;
          match Client.status c id with
          | 200 -> ()
          | 429 -> incr shed
          | 503 -> incr reject
          | _ -> incr error
        end
      done;
      let share k = float_of_int !k /. float_of_int (max 1 !total) in
      O.layer o ~n:!total (Printf.sprintf "serve.%s.shed_share" name) "ratio" (share shed);
      O.layer o ~n:!total (Printf.sprintf "serve.%s.reject_share" name) "ratio" (share reject);
      O.layer o ~n:!total (Printf.sprintf "serve.%s.error_share" name) "ratio" (share error))
    [ (Client.simulate, "simulate"); (Client.sweep, "sweep") ]

(* Client latencies of the open loop, from the scheduled instant: wall
   time, so they carry the host's noise and have no bound. *)
let latency_rows (o : O.t) (s : W.session) =
  let sim = W.latencies s ~cls:Client.simulate and sw = W.latencies s ~cls:Client.sweep in
  O.layer o ~n:(Array.length sim) "serve.simulate_p50_ms" "ms" (1000. *. Stats.median sim);
  O.layer o ~n:(Array.length sim) "serve.simulate_p90_ms" "ms" (1000. *. Stats.quantile sim 0.9);
  O.layer o ~n:(Array.length sw) "serve.sweep_p50_ms" "ms" (1000. *. Stats.median sw)

let sweep_rows (o : O.t) (s : W.session) =
  let ms = scrapes s in
  let first = List.hd ms and last = List.nth ms (List.length ms - 1) in
  let delta k = series last k -. series first k in
  let hits = delta "serve_cache_hits_total" and misses = delta "serve_cache_misses_total" in
  O.layer o ~n:(int_of_float (hits +. misses)) "harness.cache_hit_ratio" "ratio"
    (if hits +. misses > 0. then hits /. (hits +. misses) else 0.)
