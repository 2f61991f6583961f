(* The three workloads.  Each drives the repository only through public
   entry points (Campaign.run, Backend, Server.start plus HTTP) and checks
   every answer it gets. *)

module Jsonx = Aqt_util.Jsonx
module Prng = Aqt_util.Prng
module Fbuf = Stats.Fbuf
module Registry = Aqt_harness.Registry
module Campaign = Aqt_harness.Campaign
module Cache = Aqt_harness.Cache
module Journal = Aqt_harness.Journal
module Scheduler = Aqt_harness.Scheduler
module Backend = Aqt_engine.Backend
module Network = Aqt_engine.Network
module Soa = Aqt_engine.Soa
module Build = Aqt_graph.Build
module Policies = Aqt_policy.Policies
module Http = Aqt_serve.Http
module O = Outcome

let now = Spans.now

let read_json file = Jsonx.of_string (In_channel.with_open_bin file In_channel.input_all)

let write_json file j =
  Out_channel.with_open_bin file (fun oc -> output_string oc (Jsonx.to_string j ^ "\n"))

(* Pinned oracle values, relative to the repository root. *)
let expected_dir = "bench/e2e/expected"
let pinned name = read_json (Filename.concat expected_dir name)

(* Merge [key] into a pinned-values file ([--bless]). *)
let bless name key v =
  let file = Filename.concat expected_dir name in
  let old = if Sys.file_exists file then Jsonx.to_obj (read_json file) else [] in
  write_json file (Jsonx.Obj (List.remove_assoc key old @ [ (key, v) ]))

(* The timing every workload reports: CPU seconds the processes under test
   spent on [n] operations, as milliseconds per operation, divided by the
   host factor over the window they ran in (see Speed).  CPU time, so that
   neither the load client nor the time a process waits for a CPU
   counts. *)
let cpu_row (o : O.t) ~n ~what ~host cpu =
  O.e2e_time o ~n ~host "cpu_ms_per_op" "ms" (1000. *. cpu /. float_of_int n);
  O.info o "op" (Jsonx.Str what)

let floats xs = Jsonx.List (List.map (fun x -> Jsonx.Float x) (Array.to_list xs))

(* ------------------------------------------------------------------ *)
(* campaign                                                            *)
(* ------------------------------------------------------------------ *)

(* gc_* fields count allocation: they differ run to run, results do not. *)
let rec strip_gc = function
  | Jsonx.Obj kv ->
      Jsonx.Obj
        (List.filter_map
           (fun (k, v) -> if String.starts_with ~prefix:"gc_" k then None else Some (k, strip_gc v))
           kv)
  | Jsonx.List l -> Jsonx.List (List.map strip_gc l)
  | j -> j

let result_digest r =
  Digest.to_hex (Digest.string (Jsonx.to_string (strip_gc (Registry.result_to_json r))))

(* Everything a campaign needs before its first experiment starts; run in
   a fresh process by the set-up probe, so set-up includes process start. *)
let campaign_ready ~dir ~order =
  let registry = Aqt_experiments.registry () in
  List.iter
    (fun n ->
      match Registry.find registry n with
      | Some e -> ignore (Cache.key ~salt:Campaign.default_options.Campaign.salt e)
      | None -> failwith ("unknown experiment " ^ n))
    order;
  ignore (Cache.create ~dir:(Filename.concat dir "cache"));
  Journal.close (Journal.create (Filename.concat dir "journal/ready.jsonl"))

(* CPU seconds of the set-up probe process, and whether it succeeded. *)
let setup_probe ~dir ~order =
  let c0 = Daemon.children_cpu_s () in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "--setup-probe"; dir; String.concat "," order |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  let _, st = Unix.waitpid [] pid in
  (Daemon.children_cpu_s () -. c0, st = Unix.WEXITED 0)

(* One cold campaign in [dir]: wall seconds and the summary. *)
let cold_campaign ~registry ~dir ~order ~jobs =
  let options = { Campaign.default_options with dir; only = order; jobs = Some jobs; quiet = true } in
  let t0 = now () in
  let s = Campaign.run ~registry options in
  (now () -. t0, s)

(* Each task's name, outcome and result digest. *)
let digests (s : Campaign.summary) =
  List.map
    (fun (r : Scheduler.task_result) ->
      (r.name, Journal.outcome_to_string r.outcome, Option.map result_digest r.result))
    s.Campaign.results

(* The child's side of [cold_in_child]: one JSON line on the stdout it was
   given; anything an experiment prints goes to stderr. *)
let cold_child ~dir ~jobs ~order =
  let out = Unix.out_channel_of_descr (Unix.dup Unix.stdout) in
  Unix.dup2 Unix.stderr Unix.stdout;
  let wall, s = cold_campaign ~registry:(Aqt_experiments.registry ()) ~dir ~order ~jobs in
  let task (name, outcome, digest) =
    Jsonx.Obj
      [
        ("name", Jsonx.Str name);
        ("outcome", Jsonx.Str outcome);
        ("digest", match digest with Some d -> Jsonx.Str d | None -> Jsonx.Null);
      ]
  in
  output_string out
    (Jsonx.to_string
       (Jsonx.Obj
          [
            ("wall", Jsonx.Float wall);
            ("rss_mb", Jsonx.Float (Daemon.peak_rss_mb 0));
            ("tasks", Jsonx.List (List.map task (digests s)));
          ])
    ^ "\n");
  close_out out

(* One cold campaign as a user runs one: in a fresh process (this
   executable with --cold), so each starts from an empty heap and reports
   its own peak RSS.  Returns the campaign's wall seconds, the process's
   CPU seconds, its peak RSS in MiB and the tasks' digests. *)
let cold_in_child ~dir ~order ~jobs =
  let exe = Sys.executable_name in
  let c0 = Daemon.children_cpu_s () in
  let ic =
    Unix.open_process_args_in exe
      [| exe; "--cold"; dir; string_of_int jobs; String.concat "," order |]
  in
  let out = In_channel.input_all ic in
  match (Unix.close_process_in ic, Jsonx.of_string out) with
  | Unix.WEXITED 0, j ->
      let f k = Jsonx.to_float (Jsonx.get k j) in
      let task t =
        let str k = Jsonx.to_str (Jsonx.get k t) in
        ( str "name",
          str "outcome",
          match Jsonx.get "digest" t with Jsonx.Str d -> Some d | _ -> None )
      in
      ( f "wall",
        Daemon.children_cpu_s () -. c0,
        f "rss_mb",
        List.map task (Jsonx.to_list (Jsonx.get "tasks" j)) )
  | _ | (exception Failure _) -> failwith "cold campaign process failed"

(* Check each experiment's result digest against the pinned one; with
   [--bless], record it instead. *)
let check_campaign (o : O.t) ~pins ~seen tasks =
  let done_ = Journal.outcome_to_string Journal.Done in
  List.iter
    (fun (name, outcome, digest) ->
      O.attempt o 1;
      match digest with
      | Some d when outcome = done_ -> (
          Hashtbl.replace seen name d;
          match Jsonx.member name pins with
          | Some (Jsonx.Str p) when p = d -> ()
          | _ when o.bless -> ()
          | _ -> O.fail o "campaign: %s result digest %s differs from the pinned one" name d)
      | _ -> O.fail o "campaign: %s %s" name outcome)
    tasks

(* Set-up probes take a few milliseconds each, so they are paced to span
   enough of the samplers' chunks for a host factor of their own. *)
let setup_pace_s = 0.025
let campaign_setups ~smoke = if smoke then 1 else 50

let campaign (o : O.t) =
  let order = Inputs.campaign_order ~smoke:o.smoke (Prng.create o.seed) in
  O.info o "order" (Jsonx.List (List.map (fun n -> Jsonx.Str n) order));
  let setups, host =
    O.window o (fun () ->
        Array.init (campaign_setups ~smoke:o.smoke) (fun i ->
            let dir = O.fresh_dir o (Printf.sprintf "setup%d" i) in
            let cpu, ok = setup_probe ~dir ~order in
            if not ok then O.fail o "campaign: set-up probe failed";
            if not o.smoke then Unix.sleepf setup_pace_s;
            cpu))
  in
  O.e2e_time o ~n:(Array.length setups) ~host "setup_s" "s" (Stats.median setups);
  let pins =
    match Jsonx.get "digests" (pinned "campaign.json") with
    | p -> p
    | exception (Sys_error _ | Failure _) when o.bless -> Jsonx.Obj []
  in
  let seen = Hashtbl.create 32 in
  let walls = Fbuf.create () and cpus = Fbuf.create () and rss = Fbuf.create () in
  let t0 = now () in
  let rec go i =
    let dir = O.fresh_dir o (Printf.sprintf "cold%d" i) in
    let span = Spans.start o.spans "campaign.run" in
    let wall, cpu, mb, tasks = cold_in_child ~dir ~order ~jobs:2 in
    Spans.stop o.spans span;
    Fbuf.push walls wall;
    Fbuf.push cpus cpu;
    Fbuf.push rss mb;
    check_campaign o ~pins ~seen tasks;
    let elapsed = now () -. t0 in
    (* At least two cold runs; another only if it fits the time budget. *)
    if i = 0 || ((not o.smoke) && elapsed *. float_of_int (i + 2) /. float_of_int (i + 1) <= o.seconds)
    then go (i + 1)
  in
  let (), host = O.window o (fun () -> go 0) in
  if o.bless then
    bless "campaign.json" "digests"
      (Jsonx.Obj
         (List.sort compare
            (Hashtbl.fold (fun k d acc -> (k, Jsonx.Str d) :: List.remove_assoc k acc) seen
               (Jsonx.to_obj pins))));
  let walls = Fbuf.to_array walls and cpus = Fbuf.to_array cpus in
  cpu_row o ~n:(List.length order * Array.length cpus) ~what:"one experiment of a cold campaign process"
    ~host (Stats.sum cpus);
  O.e2e o ~n:(Fbuf.length rss) "peak_rss_mb" "MiB" (Stats.median (Fbuf.to_array rss));
  O.info o "cold_s" (floats walls);
  O.info o "cold_cpu_s" (floats cpus);
  Stats.median walls

(* ------------------------------------------------------------------ *)
(* ring1e6                                                             *)
(* ------------------------------------------------------------------ *)

let ring_hops = 100
let ring_warmup = 110

(* Edges and routes: 1000 routes on 10^6 edges, about 0.1 load. *)
let ring_size ~smoke = if smoke then (20_000, 20) else (1_000_000, 1000)

type ring_counters = {
  now_ : int;
  injected : int;
  absorbed : int;
  in_flight : int;
  dropped : int;
  max_queue : int;
  max_dwell : int;
  forwarded : int;
}

let forwarded b k =
  let sent = match b with Backend.Record n -> Network.sent_on_edge n | Backend.Soa s -> Soa.sent_on_edge s in
  let acc = ref 0 in
  for e = 0 to k - 1 do
    acc := !acc + sent e
  done;
  !acc

let ring_counters b k =
  {
    now_ = Backend.now b;
    injected = Backend.injected_count b;
    absorbed = Backend.absorbed b;
    in_flight = Backend.in_flight b;
    dropped = Backend.dropped b;
    max_queue = Backend.max_queue_ever b;
    max_dwell = Backend.max_dwell b;
    forwarded = forwarded b k;
  }

let ring_fields c =
  [
    ("now", c.now_); ("injected", c.injected); ("absorbed", c.absorbed); ("in_flight", c.in_flight);
    ("dropped", c.dropped); ("max_queue", c.max_queue); ("max_dwell", c.max_dwell);
    ("forwarded", c.forwarded);
  ]

(* The pinned counters at the end of warm-up, advanced to step [t]: every
   further step injects one packet per route and forwards every packet in
   flight exactly once, since routes never share an edge. *)
let ring_expected (o : O.t) ~t =
  let _, n = ring_size ~smoke:o.smoke in
  let p = Jsonx.get (if o.smoke then "smoke" else "full") (pinned "ring1e6.json") in
  let f k = Jsonx.to_int (Jsonx.get k p) in
  let dt = t - f "now" in
  {
    now_ = t;
    injected = f "injected" + (n * dt);
    absorbed = f "absorbed" + (n * dt);
    in_flight = f "in_flight";
    dropped = f "dropped";
    max_queue = f "max_queue";
    max_dwell = f "max_dwell";
    forwarded = f "forwarded" + (n * ring_hops * dt);
  }

let check_ring (o : O.t) ~what b k =
  let c = ring_counters b k in
  if o.bless && c.now_ = ring_warmup then
    bless "ring1e6.json"
      (if o.smoke then "smoke" else "full")
      (Jsonx.Obj (List.map (fun (k, v) -> (k, Jsonx.Int v)) (ring_fields c)))
  else begin
    let e = ring_expected o ~t:c.now_ in
    List.iter2
      (fun (f, got) (_, want) ->
        if got <> want then O.fail o "ring1e6 %s: %s = %d, expected %d" what f got want)
      (ring_fields c) (ring_fields e);
    if c.injected <> c.absorbed + c.in_flight + c.dropped then
      O.fail o "ring1e6 %s: injected %d <> absorbed + in flight + dropped" what c.injected
  end

type ring = {
  injs : Backend.injection list;
  b : Backend.t;
  build_s : float;
  create_s : float;
  warmup_s : float;
  setup_cpu_s : float;
}

(* Build (unless [graph] is given), create and warm up one ring backend. *)
let ring_setup (o : O.t) ?graph ~backend () =
  let k, n = ring_size ~smoke:o.smoke in
  let c0 = Sys.time () in
  let t0 = now () in
  let ring = match graph with Some g -> g | None -> Build.ring k in
  let starts = Inputs.ring_starts (Prng.create o.seed) ~k ~n ~hops:ring_hops in
  let injs =
    Array.to_list
      (Array.map
         (fun s ->
           { Backend.route = Array.init ring_hops (fun j -> ring.Build.edges.((s + j) mod k)); tag = "" })
         starts)
  in
  let t1 = now () in
  let b = Backend.create ~backend ~graph:ring.Build.graph ~policy:Policies.fifo () in
  let t2 = now () in
  for _ = 1 to ring_warmup do
    Backend.step b injs
  done;
  let t3 = now () in
  let setup_cpu_s = Sys.time () -. c0 in
  check_ring o ~what:(Backend.kind b ^ " after warm-up") b k;
  { injs; b; build_s = t1 -. t0; create_s = t2 -. t1; warmup_s = t3 -. t2; setup_cpu_s }

(* Time [steps] steps (or [seconds] of them); returns per-step wall
   seconds, forwards, minor words and this process's CPU seconds over the
   loop. *)
let ring_steps (o : O.t) r ?(seconds = infinity) steps =
  let k, _ = ring_size ~smoke:o.smoke in
  let times = Fbuf.create () in
  let f0 = forwarded r.b k in
  let w0 = Gc.minor_words () in
  let c0 = Sys.time () in
  let t0 = now () in
  while Fbuf.length times < steps && now () -. t0 < seconds do
    let span = Spans.start o.spans "backend.step" in
    let a = now () in
    Backend.step r.b r.injs;
    Fbuf.push times (now () -. a);
    Spans.stop o.spans span
  done;
  let cpu = Sys.time () -. c0 in
  let words = Gc.minor_words () -. w0 in
  check_ring o ~what:(Backend.kind r.b ^ " after the timed steps") r.b k;
  (Fbuf.to_array times, forwarded r.b k - f0, words, cpu)

(* Per-layer rows of one engine configuration. *)
let engine_rows (o : O.t) prefix (times, fwd, _, _) =
  let n = Array.length times in
  let step = Stats.median times in
  O.layer o ~n (prefix ^ ".step_ms") "ms" (1000. *. step);
  O.layer o ~n (prefix ^ ".ns_per_fwd") "ns" (1e9 *. step /. (float_of_int fwd /. float_of_int n))

let d1_rows (o : O.t) ((times, _, words, _) as run) =
  engine_rows o "engine.soa_d1" run;
  O.layer o ~n:(Array.length times) "engine.soa_d1.minor_words_per_step" "words"
    (words /. float_of_int (Array.length times))

(* Set-up rows: medians of (build, create, warm-up) seconds. *)
let setup_rows (o : O.t) parts =
  let n = List.length parts in
  let med f = Stats.median (Array.of_list (List.map f parts)) in
  O.layer o ~n "graph.build_s" "s" (med (fun (b, _, _) -> b));
  O.layer o ~n "engine.create_s" "s" (med (fun (_, c, _) -> c));
  O.layer o ~n "engine.warmup_s" "s" (med (fun (_, _, w) -> w))

let ring1e6 (o : O.t) =
  let setups = if o.smoke then 1 else 3 in
  let parts = ref [] and cpus = ref [] in
  (* Each set-up starts after the previous ring is collected, so peak RSS
     reflects one ring. *)
  let rec go i =
    if i > 0 then Gc.full_major ();
    let r = ring_setup o ~backend:(`Soa 1) () in
    parts := (r.build_s, r.create_s, r.warmup_s) :: !parts;
    cpus := r.setup_cpu_s :: !cpus;
    if i + 1 = setups then r
    else begin
      Backend.shutdown r.b;
      go (i + 1)
    end
  in
  let r, host = O.window o (fun () -> go 0) in
  O.e2e_time o ~n:setups ~host "setup_s" "s" (Stats.median (Array.of_list !cpus));
  let ((times, fwd, _, cpu) as run), host =
    O.window o (fun () -> ring_steps o r ~seconds:o.seconds (if o.smoke then 20 else max_int))
  in
  let n = Array.length times in
  O.attempt o n;
  cpu_row o ~n ~what:"one engine step: 1000 injections, 100 000 forwards" ~host cpu;
  O.e2e o "peak_rss_mb" "MiB" (Daemon.peak_rss_mb 0);
  O.info o "step_p50_ms" (Jsonx.Float (1000. *. Stats.median times));
  O.info o "fwd_per_s" (Jsonx.Float (float_of_int fwd /. Stats.sum times));
  if o.trace then begin
    setup_rows o !parts;
    d1_rows o run
  end;
  Backend.shutdown r.b

(* ------------------------------------------------------------------ *)
(* serve_sweep                                                         *)
(* ------------------------------------------------------------------ *)

(* /simulate requests per second in the open loop.  The pool's inputs take
   about 47 ms each on average, computed alone in process (aqtbench --mix),
   so 7 req/s asks a sixth of the two workers' time.  The shared host has
   run the daemon at a third of its usual speed for minutes at a time, and
   the loop must not saturate then. *)
let sim_rate = 7.
let sweep_rate = 2.
let scrape_rate = 4.

(* Stream ids. *)
let s_warm = 0
let s_open = 1
let s_closed = 4

type session = {
  client : Client.t;
  pool : Inputs.sim array;
  reqs : string array;
  sweeps : Inputs.sweep array;
  open_span : float * float;
  open_cpu_s : float;  (* the daemon's CPU seconds over the open loop *)
  open_host : O.host;  (* the host over the open loop *)
  closed_span : float * float;
  setups : float array;  (* CPU seconds of each set-up daemon *)
  setup_host : O.host;  (* the host while they ran *)
  rss : float;
}

let metrics_req = Http.encode_request "/metrics"

let serve_session (o : O.t) ~setups ~warm ~open_s ~closed_s ~scrape =
  let rng = Prng.create o.seed in
  let pool = Inputs.sim_pool ~smoke:o.smoke in
  let sweep_pool = Inputs.sweep_pool ~smoke:o.smoke in
  let reqs = Array.map (fun s -> Http.encode_request (Inputs.sim_target s)) pool in
  let sweep_reqs = Array.map (fun w -> Http.encode_request (Inputs.sweep_target w)) sweep_pool in
  (* Each stream draws from its own generator, so the order of requests
     does not depend on how the client's loop interleaves the streams.  The
     warm-up has its own order, and the open loop starts a fresh pass. *)
  let warm_order = Inputs.cycle (Prng.stream rng 0) (Array.length pool) in
  let sim_order = Inputs.cycle (Prng.stream rng 1) (Array.length pool) in
  let sweep_order = Inputs.sweep_sequence (Prng.stream rng 2) (Array.length sweep_pool) in
  let next_sim order () =
    let i = order () in
    (Client.simulate, i, reqs.(i))
  in
  let next_sweep () =
    let i = sweep_order () in
    (Client.sweep, i, sweep_reqs.(i))
  in
  let next_scrape () = (Client.scrape, -1, metrics_req) in
  let start_one i =
    let dir = O.fresh_dir o (Printf.sprintf "serve%d" i) in
    let d = Daemon.start ~dir in
    let c = Client.create ~port:d.Daemon.port ~conns:2 in
    let ok =
      Client.call c ~ci:0 ~cls:Client.probe "/healthz" <> None
      && Client.call c ~ci:0 ~cls:Client.probe "/simulate?network=ring:8&horizon=100" <> None
    in
    if not ok then O.fail o "serve: daemon set-up probe failed";
    (d, c)
  in
  let stop d c =
    Client.close c;
    if Daemon.stop d <> 0 then O.fail o "serve: daemon exited uncleanly"
  in
  (* Set-up daemons are started, probed and stopped, so each one's CPU time
     is known exactly once it is reaped; the run then starts its own. *)
  let setup_cpus, setup_host =
    O.window o (fun () ->
        Array.init setups (fun i ->
            let c0 = Daemon.children_cpu_s () in
            let d, c = start_one i in
            stop d c;
            let cpu = Daemon.children_cpu_s () -. c0 in
            if not o.smoke then Unix.sleepf setup_pace_s;
            cpu))
  in
  let d, c = start_one setups in
  let src via kind next = { Client.via; kind; next } in
  let scrapes = if scrape then [ src [ 1 ] (Client.Open scrape_rate) next_scrape ] else [] in
  let sweeps = [ src [ 1 ] (Client.Open sweep_rate) next_sweep ] in
  let phase name first duration sources =
    let t0 = now () in
    Spans.wrap o.spans name (fun () -> Client.run c ~first_stream:first ~duration sources);
    (t0, t0 +. duration)
  in
  ignore
    (phase "serve.warmup" s_warm warm [ src [ 0; 1 ] (Client.Open sim_rate) (next_sim warm_order) ]);
  if scrape then ignore (Client.call c ~ci:1 ~cls:Client.scrape "/metrics");
  let cpu0 = Daemon.cpu_s d.Daemon.pid in
  let open_span, open_host =
    O.window o (fun () ->
        phase "serve.open" s_open open_s
          ((src [ 0; 1 ] (Client.Open sim_rate) (next_sim sim_order) :: sweeps) @ scrapes))
  in
  let open_cpu_s = Daemon.cpu_s d.Daemon.pid -. cpu0 in
  let closed_span =
    if closed_s <= 0. then (0., 0.)
    else
      phase "serve.closed" s_closed closed_s
        ((src [ 0; 1 ] (Client.Closed 4) (next_sim sim_order) :: sweeps) @ scrapes)
  in
  if scrape then ignore (Client.call c ~ci:1 ~cls:Client.scrape "/metrics");
  let rss = Daemon.peak_rss_mb d.Daemon.pid in
  stop d c;
  {
    client = c;
    pool;
    reqs;
    sweeps = sweep_pool;
    open_span;
    open_cpu_s;
    open_host;
    closed_span;
    setups = setup_cpus;
    setup_host;
    rss;
  }

(* Every answer is checked against an in-process recomputation: /simulate
   counters against Sim.run on the same input, /sweep rows against
   Sweep.classify on the same cells, cached sweep bodies against the
   uncached body for the same spec. *)
let check_session (o : O.t) s =
  let c = s.client in
  let sweep = Hashtbl.create 16 and uncached = Hashtbl.create 16 in
  let cached = ref [] in
  for id = 0 to Client.count c - 1 do
    O.attempt o 1;
    let tag = Client.tag c id in
    match Client.status c id with
    | 200 when Client.cls c id = Client.simulate && tag >= 0 -> (
        let want = fst (Inputs.simulate s.pool.(tag)) in
        match Inputs.counters_of_body (Client.body c id) with
        | got when got = want -> ()
        | got ->
            O.fail o "serve: %s answered %s, recomputed %s" (Inputs.sim_target s.pool.(tag))
              (String.concat "," (List.map string_of_int (Inputs.counters_list got)))
              (String.concat "," (List.map string_of_int (Inputs.counters_list want)))
        | exception Failure msg -> O.fail o "serve: unreadable /simulate body: %s" msg)
    | 200 when Client.cls c id = Client.sweep -> (
        let w = s.sweeps.(tag) in
        let want =
          match Hashtbl.find_opt sweep tag with
          | Some r -> r
          | None ->
              let r = List.map (Inputs.sweep_cell w) (Inputs.sweep_cells w) in
              Hashtbl.add sweep tag r;
              r
        in
        match Inputs.sweep_of_body (Client.body c id) with
        | rows, was_cached, result ->
            if rows <> want then O.fail o "serve: %s rows differ from Sweep.classify" (Inputs.sweep_target w);
            if was_cached then cached := (tag, result) :: !cached
            else Hashtbl.replace uncached tag result
        | exception Failure msg -> O.fail o "serve: unreadable /sweep body: %s" msg)
    | 200 -> ()
    | st -> O.fail o "serve: status %d for request %d (class %d)" st id (Client.cls c id)
  done;
  List.iter
    (fun (tag, result) ->
      match Hashtbl.find_opt uncached tag with
      | Some r when r <> result ->
          O.fail o "serve: cached %s differs from its uncached body" (Inputs.sweep_target s.sweeps.(tag))
      | _ -> ())
    !cached

let in_stream c id lo hi = Client.stream c id >= lo && Client.stream c id < hi

(* Latency of one class within the open phase, from the scheduled instant;
   a failed request counts as the whole phase late. *)
let latencies s ~cls =
  let c = s.client in
  let t0, t1 = s.open_span in
  let xs = Fbuf.create () in
  for id = 0 to Client.count c - 1 do
    if Client.cls c id = cls && in_stream c id s_open s_closed then
      Fbuf.push xs
        (if Client.status c id = 200 then Client.finish c id -. Client.sched c id else t1 -. t0)
  done;
  Fbuf.to_array xs

let gen_lag s =
  let c = s.client in
  let xs = Fbuf.create () in
  for id = 0 to Client.count c - 1 do
    if in_stream c id s_open s_closed then Fbuf.push xs (Client.sent c id -. Client.sched c id)
  done;
  Fbuf.to_array xs

(* Completed /simulate 200s per second of the closed loop: those answered
   before it ended, over the time from its start to the last of them. *)
let closed_rate s =
  let c = s.client in
  let t0, t1 = s.closed_span in
  let k = ref 0 and last = ref t0 in
  for id = 0 to Client.count c - 1 do
    let f = Client.finish c id in
    if Client.cls c id = Client.simulate && Client.stream c id >= s_closed && Client.status c id = 200
       && f <= t1
    then begin
      incr k;
      last := Float.max !last f
    end
  done;
  float_of_int !k /. (!last -. t0)

(* Request spans, rebuilt after the run from the instants the client keeps
   anyway: recording them costs the run nothing. *)
let request_spans (o : O.t) s =
  let c = s.client in
  for id = 0 to Client.count c - 1 do
    let sched = Client.sched c id and sent = Client.sent c id and fin = Client.finish c id in
    let name = [| "http.simulate"; "http.sweep"; "http.metrics"; "http.probe" |].(Client.cls c id) in
    let p = Spans.add o.spans ~req:id name ~start:sched ~stop:fin in
    ignore (Spans.add o.spans ~parent:p ~req:id "client.wait" ~start:sched ~stop:sent);
    ignore (Spans.add o.spans ~parent:p ~req:id "http.exchange" ~start:sent ~stop:fin)
  done

(* The open loop sends whole passes over the /simulate pool, as many as fit
   in the run, so every run asks the daemon for the same work whatever the
   order; a short closed loop follows. *)
let serve_phases ~smoke ~seconds =
  if smoke then (0.4, 0.2, 0.1)
  else
    let pass = float_of_int Inputs.sim_pool_size /. sim_rate in
    (pass *. Float.max 1. (Float.floor (seconds /. pass)), 2., 1.)

(* /simulate and /sweep requests of the open loop answered with a 200. *)
let open_answered s =
  let c = s.client in
  let k = ref 0 in
  for id = 0 to Client.count c - 1 do
    if in_stream c id s_open s_closed && Client.status c id = 200 && Client.cls c id <> Client.scrape
    then incr k
  done;
  !k

let serve_setups ~smoke = if smoke then 1 else 25

let serve (o : O.t) =
  let open_s, closed_s, warm = serve_phases ~smoke:o.smoke ~seconds:o.seconds in
  let s =
    serve_session o ~setups:(serve_setups ~smoke:o.smoke) ~warm ~open_s ~closed_s ~scrape:o.trace
  in
  check_session o s;
  O.e2e_time o ~n:(Array.length s.setups) ~host:s.setup_host "setup_s" "s" (Stats.median s.setups);
  cpu_row o ~n:(open_answered s) ~what:"one open-loop request (/simulate or /sweep), daemon CPU"
    ~host:s.open_host s.open_cpu_s;
  O.e2e o "peak_rss_mb" "MiB" s.rss;
  let lag = gen_lag s in
  let lag99 = Stats.quantile lag 0.99 in
  O.info o "gen_lag_p99_ms" (Jsonx.Float (1000. *. lag99));
  O.info o "valid" (Jsonx.Bool (lag99 <= 0.001));
  let sim = latencies s ~cls:Client.simulate and sw = latencies s ~cls:Client.sweep in
  O.info o "simulate_p50_ms" (Jsonx.Float (1000. *. Stats.median sim));
  O.info o "simulate_p90_ms" (Jsonx.Float (1000. *. Stats.quantile sim 0.9));
  O.info o "sweep_p50_ms" (Jsonx.Float (1000. *. Stats.median sw));
  O.info o "sweeps" (Jsonx.Int (Array.length sw));
  O.info o "closed_req_per_s" (Jsonx.Float (closed_rate s));
  s
