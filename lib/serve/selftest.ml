module Prng = Aqt_util.Prng
module Jsonx = Aqt_util.Jsonx

let fresh_dir () =
  let base = Filename.get_temp_dir_name () in
  let rec go i =
    let d =
      Filename.concat base
        (Printf.sprintf "aqt-serve-selftest-%d-%d" (Unix.getpid ()) i)
    in
    match Unix.mkdir d 0o755 with
    | () -> d
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> go (i + 1)
  in
  go 0

(* [clients] domains, [each] sequential requests per domain; returns every
   response status, [-1] standing for "no complete response" (the failure
   the no-hangs check looks for). *)
let fire ?(pause = 0.) ~clients ~each ~port path =
  let work ci () =
    let rng = Prng.stream (Prng.create 0xC11E57) ci in
    List.init each (fun _ ->
        if pause > 0. then Unix.sleepf (pause +. Prng.float rng (pause /. 4.));
        match Http.request ~timeout:10. ~port path with
        | Ok r -> r.Http.status
        | Error _ -> -1)
  in
  let doms = List.init clients (fun ci -> Domain.spawn (work ci)) in
  List.concat_map Domain.join doms

let count x statuses = List.length (List.filter (Int.equal x) statuses)

let sweep_path =
  "/sweep?network=ring:6&d=3&horizon=400&rates=1/4&policy=fifo"

(* The cheapest admitted request: /healthz is fast-path (bypasses
   admission entirely), so every phase that exercises the buckets
   drives a tiny seeded /simulate through the worker pool instead. *)
let sim_path = "/simulate?network=ring:6&policy=fifo&rate=1/4&horizon=200&seed=5"

let cached_field body =
  match Jsonx.member "cached" (Jsonx.of_string body) with
  | Some (Jsonx.Bool b) -> Some b
  | _ -> None

let run ?(quiet = false) () =
  let cfg =
    {
      Server.default_config with
      Server.port = 0;
      workers = 4;
      rho = 200.;
      sigma = 20;
      read_timeout = 2.;
      write_timeout = 2.;
      campaign_dir = fresh_dir ();
      snapshot_every = 0.;
      journal = false;
      (* Loopback is one peer: park the per-client layer out of the way
         so each phase exercises exactly one bucket.  The per-client
         layer has its own tests (header-keyed isolation). *)
      client_rho = 1000.;
      client_sigma = 200;
      quiet = true;
    }
  in
  let srv = Server.start cfg in
  let port = Server.port srv in
  let m = Server.metrics srv in
  let shed = Metrics.counter m "serve_shed_total" in
  let conns_total = Metrics.counter m "serve_connections_total" in
  let accepted = Metrics.counter m "serve_requests_total" in
  let hits = Metrics.counter m "serve_cache_hits_total" in
  let depth = Metrics.gauge m "serve_queue_depth" in
  let latency = Metrics.histogram m "serve_request_seconds" in
  let failures = ref [] in
  let phase label ok detail =
    if not ok then failures := label :: !failures;
    if not quiet then
      Printf.printf "selftest %-10s %-6s %s\n%!" label
        (if ok then "ok" else "FAILED")
        detail
  in

  (* Phase 1: aggregate client rate ~160/s < rho = 200/s, burst 4 <= sigma:
     an admissible workload must never be shed. *)
  let statuses = fire ~pause:0.025 ~clients:4 ~each:20 ~port sim_path in
  let total = List.length statuses in
  let ok200 = count 200 statuses in
  phase "admissible" (ok200 = total)
    (Printf.sprintf "%d/%d answered 200, latency p50=%.4fs p99=%.4fs" ok200
       total
       (Metrics.quantile latency 0.50)
       (Metrics.quantile latency 0.99));

  (* Phase 1b: one keep-alive connection, many sequential requests —
     connection reuse means the accept counter moves by exactly one. *)
  Unix.sleepf 0.2;
  let conns0 = Metrics.counter_value conns_total in
  let ka_ok, ka_total =
    match Http.Client.connect ~port () with
    | Error _ -> (0, 25)
    | Ok cl ->
        let ok = ref 0 in
        for _ = 1 to 25 do
          Unix.sleepf 0.01;
          match Http.Client.request cl "/healthz" with
          | Ok r when r.Http.status = 200 -> incr ok
          | Ok _ | Error _ -> ()
        done;
        Http.Client.close cl;
        (!ok, 25)
  in
  let conn_delta = Metrics.counter_value conns_total - conns0 in
  phase "keepalive"
    (ka_ok = ka_total && conn_delta = 1)
    (Printf.sprintf "%d/%d answered 200 over %d connection(s)" ka_ok ka_total
       conn_delta);

  (* Phase 2: fire at roughly twice the (rho,sigma) budget: bounded shedding,
     every request still gets an answer, queue depth never exceeds sigma. *)
  Unix.sleepf 0.3 (* let the bucket refill to sigma *);
  let statuses = fire ~clients:4 ~each:60 ~port sim_path in
  let total = List.length statuses in
  let ok200 = count 200 statuses in
  let shed429 = count 429 statuses in
  let hung = count (-1) statuses in
  let peak = Metrics.gauge_peak depth in
  phase "overload"
    (ok200 > 0 && shed429 > 0 && hung = 0
    && peak <= float_of_int cfg.Server.sigma
    && Metrics.counter_value shed > 0)
    (Printf.sprintf "%d x 200, %d x 429, %d hung of %d; queue peak %.0f <= sigma=%d"
       ok200 shed429 hung total peak cfg.Server.sigma);

  (* Phase 3: the same sweep twice; the repeat must come from the cache. *)
  Unix.sleepf 0.2;
  let hits0 = Metrics.counter_value hits in
  let cold = Http.request ~timeout:10. ~port sweep_path in
  let warm = Http.request ~timeout:10. ~port sweep_path in
  let cold_cached =
    match cold with Ok r when r.Http.status = 200 -> cached_field r.Http.body | _ -> None
  and warm_cached =
    match warm with Ok r when r.Http.status = 200 -> cached_field r.Http.body | _ -> None
  in
  let hit_delta = Metrics.counter_value hits - hits0 in
  phase "cache"
    (cold_cached = Some false && warm_cached = Some true && hit_delta >= 1)
    (Printf.sprintf "cold cached=%s, warm cached=%s, cache hits +%d"
       (match cold_cached with Some b -> string_of_bool b | None -> "?")
       (match warm_cached with Some b -> string_of_bool b | None -> "?")
       hit_delta);

  (* Phase 3b: hammer /sweep past its own (smaller) endpoint bucket while
     trickling the default-bucket /simulate within budget and /healthz on
     the fast path: the sweep class must shed, the cheap admitted
     endpoint must not notice, and liveness must stay untouched. *)
  Unix.sleepf 0.3 (* refill both endpoint buckets *);
  let sweeper =
    Domain.spawn (fun () ->
        match Http.Client.connect ~port () with
        | Error _ -> (0, 0)
        | Ok cl ->
            let shed = ref 0 and answered = ref 0 in
            for _ = 1 to 30 do
              Unix.sleepf 0.005;
              match Http.Client.request cl sweep_path with
              | Ok r ->
                  incr answered;
                  if r.Http.status = 429 then incr shed
              | Error _ -> ()
            done;
            Http.Client.close cl;
            (!answered, !shed))
  in
  let trickle path =
    Domain.spawn (fun () ->
        List.init 15 (fun _ ->
            Unix.sleepf 0.015;
            match Http.request ~timeout:10. ~port path with
            | Ok r -> r.Http.status
            | Error _ -> -1))
  in
  let hz_d = trickle "/healthz" and sim_d = trickle sim_path in
  let hz = Domain.join hz_d and sim = Domain.join sim_d in
  let sweep_answered, sweep_shed = Domain.join sweeper in
  let hz_ok = count 200 hz and sim_ok = count 200 sim in
  phase "isolation"
    (sweep_answered = 30 && sweep_shed > 0
    && hz_ok = List.length hz
    && sim_ok = List.length sim)
    (Printf.sprintf
       "/sweep: %d/30 answered, %d x 429; concurrent /simulate %d/%d and \
        /healthz %d/%d x 200"
       sweep_answered sweep_shed sim_ok (List.length sim) hz_ok
       (List.length hz));

  (* Phase 4: request stop while requests are in flight; each must still be
     answered in full and shutdown must drain. *)
  Unix.sleepf 0.2;
  let before = Metrics.counter_value accepted in
  let doms =
    List.init 3 (fun _ ->
        Domain.spawn (fun () ->
            Http.request ~timeout:10. ~port
              "/simulate?network=ring:8&policy=fifo&rate=1/4&horizon=200000&seed=7"))
  in
  let deadline = Unix.gettimeofday () +. 5. in
  while
    Metrics.counter_value accepted < before + 3 && Unix.gettimeofday () < deadline
  do
    Unix.sleepf 0.002
  done;
  let t0 = Unix.gettimeofday () in
  Server.request_stop srv;
  let answers = List.map Domain.join doms in
  Server.wait srv;
  let drain = Unix.gettimeofday () -. t0 in
  let complete =
    List.for_all
      (function Ok r -> r.Http.status = 200 && r.Http.body <> "" | Error _ -> false)
      answers
  in
  phase "drain"
    (complete && Server.stopped srv)
    (Printf.sprintf "3/3 in-flight answered, drained in %.3fs" drain);

  !failures = []
