module Ratio = Aqt_util.Ratio
module Prng = Aqt_util.Prng
module Clock = Aqt_util.Clock
module Jsonx = Aqt_util.Jsonx
module Parallel = Aqt_util.Parallel
module Network = Aqt_engine.Network
module Policies = Aqt_policy.Policies
module Scenario_spec = Aqt_fabric.Scenario_spec
module Spec = Aqt_harness.Spec
module Registry = Aqt_harness.Registry
module Cache = Aqt_harness.Cache
module Journal = Aqt_harness.Journal
module Campaign = Aqt_harness.Campaign
module Report = Aqt_report.Report
module Capacity = Aqt_capacity.Model
module Tradeoff = Aqt_capacity.Tradeoff

type config = {
  host : string;
  port : int;
  workers : int;
  rho : float;
  sigma : int;
  read_timeout : float;
  write_timeout : float;
  campaign_dir : string;
  snapshot_every : float;
  journal : bool;
  cache_max_bytes : int option;
  quiet : bool;
  sweep_rho : float;
  sweep_sigma : int;
  client_rho : float;
  client_sigma : int;
  client_key_header : string;
  max_conns : int;
  max_pipeline : int;
  idle_timeout : float;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 8080;
    workers = max 2 (Domain.recommended_domain_count () - 2);
    rho = 50.;
    sigma = 32;
    read_timeout = 5.;
    write_timeout = 5.;
    campaign_dir = Campaign.default_options.Campaign.dir;
    snapshot_every = 10.;
    journal = true;
    cache_max_bytes = None;
    quiet = false;
    sweep_rho = 0.;
    sweep_sigma = 0;
    client_rho = 0.;
    client_sigma = 0;
    client_key_header = "";
    max_conns = 4096;
    max_pipeline = 8;
    idle_timeout = 30.;
  }

(* Bound on live per-client buckets; the least-recently-used idle bucket
   is evicted beyond it. *)
let client_buckets_max = 1024

(* ------------------------------------------------------------------ *)
(* Metrics handles                                                     *)
(* ------------------------------------------------------------------ *)

type handles = {
  requests : Metrics.counter;
  conns_total : Metrics.counter;
  shed : Metrics.counter;
  shed_client : Metrics.counter;
  rejected : Metrics.counter;
  cache_hits : Metrics.counter;
  cache_misses : Metrics.counter;
  read_errors : Metrics.counter;
  write_errors : Metrics.counter;
  in_flight : Metrics.gauge;
  queue_depth : Metrics.gauge;
  open_conns : Metrics.gauge;
  tokens : Metrics.gauge;
  sweep_tokens : Metrics.gauge;
  client_keys : Metrics.gauge;
  latency : Metrics.histogram;
  sim_dropped : Metrics.counter;
  sim_displaced : Metrics.counter;
  sim_peak_occupancy : Metrics.gauge;
}

let make_handles m =
  {
    requests =
      Metrics.counter m "serve_requests_total"
        ~help:"Requests parsed off client connections.";
    conns_total =
      Metrics.counter m "serve_connections_total"
        ~help:"Connections accepted by the listener.";
    shed =
      Metrics.counter m "serve_shed_total"
        ~help:"Requests shed with 429 by a (rho,sigma) admission bucket.";
    shed_client =
      Metrics.counter m "serve_shed_client_total"
        ~help:"The subset of sheds charged to a per-client bucket.";
    rejected =
      Metrics.counter m "serve_rejected_total"
        ~help:"Admitted requests rejected with 503 (queue full or draining).";
    cache_hits =
      Metrics.counter m "serve_cache_hits_total"
        ~help:"Sweep/experiment responses served from the result cache.";
    cache_misses =
      Metrics.counter m "serve_cache_misses_total"
        ~help:"Sweep/experiment responses that had to be computed.";
    read_errors =
      Metrics.counter m "serve_read_errors_total"
        ~help:"Requests that died before a response (timeout, close, parse).";
    write_errors =
      Metrics.counter m "serve_write_errors_total"
        ~help:"Responses the peer did not take (gone or send deadline).";
    in_flight =
      Metrics.gauge m "serve_in_flight" ~help:"Requests being served now.";
    queue_depth =
      Metrics.gauge m "serve_queue_depth"
        ~help:"Admitted requests waiting for a worker.";
    open_conns =
      Metrics.gauge m "serve_open_connections"
        ~help:"Connections currently held by the event loop.";
    tokens =
      Metrics.gauge m "serve_admission_tokens"
        ~help:"Default endpoint bucket level at the last snapshot tick.";
    sweep_tokens =
      Metrics.gauge m "serve_sweep_admission_tokens"
        ~help:"/sweep endpoint bucket level at the last snapshot tick.";
    client_keys =
      Metrics.gauge m "serve_client_buckets"
        ~help:"Live per-client admission buckets.";
    latency =
      Metrics.histogram m "serve_request_seconds"
        ~help:"Arrival-to-response latency of served requests.";
    sim_dropped =
      Metrics.counter m "serve_sim_dropped_total"
        ~help:"Packets dropped by finite-capacity buffers across /simulate runs.";
    sim_displaced =
      Metrics.counter m "serve_sim_displaced_total"
        ~help:"Buffered packets evicted by drop-head arrivals across /simulate runs.";
    sim_peak_occupancy =
      Metrics.gauge m "serve_sim_peak_occupancy"
        ~help:"Peak total buffered packets of the most recent /simulate run.";
  }

(* ------------------------------------------------------------------ *)
(* Server state                                                        *)
(* ------------------------------------------------------------------ *)

(* Handler outcome, before encoding. *)
type out = { status : int; ctype : string; content : string }

(* A fully-ordered response ready to enter a connection's write queue. *)
type resp = {
  rseq : int;
  rstatus : int;
  rkeep : bool;
  rarrival : float;
  rbytes : string;
}

(* Per-connection state machine, owned by the event-loop domain. *)
type conn = {
  fd : Unix.file_descr;
  id : int;
  peer : string;
  accepted_at : float;
  parser : Http.Parser.t;
  outq : string Queue.t;
  mutable cur : string; (* partially-written head of outq *)
  mutable cur_off : int;
  mutable next_seq : int; (* next request sequence number *)
  mutable emit_seq : int; (* next response allowed into outq *)
  mutable pending : resp list; (* completed out of order *)
  mutable inflight : int; (* dispatched to workers, not yet back *)
  mutable close_after : bool; (* stop reading; close once flushed *)
  mutable eof : bool;
  mutable dl_gen : int; (* invalidates stale timer-wheel entries *)
  mutable alive : bool;
}

type job = {
  jid : int;
  jseq : int;
  jarrival : float;
  jhead : bool;
  jkeep : bool;
  jreq : Http.request;
}

type completion = {
  cid : int;
  cseq : int;
  carrival : float;
  chead : bool;
  ckeep : bool;
  cout : out;
}

type t = {
  cfg : config;
  registry : Registry.t;
  figures : Report.figure list;
  listen_fd : Unix.file_descr;
  bound_port : int;
  (* admission *)
  bucket : Bucket.t; (* default endpoint class *)
  sweep_bucket : Bucket.t; (* /sweep endpoint class *)
  client_buckets : Bucket.Keyed.t;
  client_key_header : string; (* lower-cased; "" = key on peer address *)
  (* worker dispatch *)
  jobs : job Queue.t;
  qlock : Mutex.t;
  qcond : Condition.t;
  mutable draining : bool; (* under qlock *)
  (* completions, workers -> event loop *)
  comps : completion Queue.t;
  comp_lock : Mutex.t;
  (* lifecycle *)
  stop_flag : bool Atomic.t;
  stopped_flag : bool Atomic.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  (* event-loop-owned connection state (no lock needed) *)
  conns : (int, conn) Hashtbl.t; (* by conn id *)
  by_fd : (int, conn) Hashtbl.t; (* by raw fd *)
  wheel : (int * int) Timewheel.t; (* (conn id, dl_gen) *)
  rbuf : Bytes.t; (* shared read scratch *)
  metrics : Metrics.t;
  m : handles;
  cache : Cache.t;
  journal : Journal.writer option;
  figure_memo : (string, string) Hashtbl.t;
  flock : Mutex.t;
  base_rng : Prng.t;
  mutable worker_domains : unit Domain.t list;
  mutable loop_domain : unit Domain.t option;
  mutable next_conn_id : int;
}

let port t = t.bound_port
let metrics t = t.metrics
let stopped t = Atomic.get t.stopped_flag

external fd_int : Unix.file_descr -> int = "%identity"

let status_counter t status =
  Metrics.counter t.metrics
    (Printf.sprintf "serve_responses_total{status=\"%d\"}" status)
    ~help:"Responses written, by status code."

(* ------------------------------------------------------------------ *)
(* Request parameter parsing                                           *)
(* ------------------------------------------------------------------ *)

exception Bad_request of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad_request s)) fmt

let q_str q key default = Option.value (List.assoc_opt key q) ~default

let q_int q key default =
  match List.assoc_opt key q with
  | None -> default
  | Some v -> (
      match int_of_string_opt (String.trim v) with
      | Some i -> i
      | None -> bad "parameter %s: expected an integer, got %S" key v)

(* A token of the shared scenario vocabulary; its message is the 400's. *)
let token ?(what = "") (type a) (module T : Scenario_spec.TOKEN with type t = a) s =
  match T.of_string s with Ok x -> x | Error msg -> bad "%s%s" what msg

let max_net_size = 4096

(* The daemon's own size bounds: a ring here needs three nodes. *)
let parse_net s =
  let n = token (module Scenario_spec.Network) s in
  let lo = match n with Scenario_spec.Network.Line _ -> 1 | Ring _ -> 3 in
  let k = Scenario_spec.Network.size n in
  if k < lo || k > max_net_size then
    bad "network %S: size out of range [%d, %d]" s lo max_net_size;
  n

let max_horizon = 200_000

let check_horizon h =
  if h < 1 || h > max_horizon then
    bad "horizon %d out of range [1, %d]" h max_horizon;
  h

let check_hops d = if d < 1 || d > 64 then bad "hops %d out of range [1, 64]" d else d

let text ?(status = 200) content =
  { status; ctype = "text/plain; charset=utf-8"; content }

let json ?(status = 200) j =
  { status; ctype = "application/json"; content = Jsonx.to_string j ^ "\n" }

(* ------------------------------------------------------------------ *)
(* /sweep                                                              *)
(* ------------------------------------------------------------------ *)

type sweep_params = {
  sp_net : Scenario_spec.Network.t;
  sp_d : int;
  sp_horizon : int;
  sp_rates : Ratio.t list;
  sp_policies : Aqt_engine.Policy_type.t list;
}

let check_rates rates =
  if rates = [] then bad "at least one rate is required";
  if List.length rates > 16 then bad "at most 16 rates per sweep";
  List.iter
    (fun r ->
      if Ratio.(r <= zero) then bad "rate %s must be positive" (Ratio.to_string r))
    rates;
  rates

let parse_policies s =
  match String.trim s with
  | "" | "all" -> Policies.all_deterministic
  | s ->
      List.map (token (module Scenario_spec.Policy)) (String.split_on_char ',' s)

let sweep_params_of_query q =
  {
    sp_net = parse_net (q_str q "network" "ring:8");
    sp_d = check_hops (q_int q "d" 4);
    sp_horizon = check_horizon (q_int q "horizon" 20_000);
    sp_rates =
      check_rates
        (List.map (token ~what:"rates: " (module Scenario_spec.Rate))
           (String.split_on_char ',' (q_str q "rates" "1/8,1/4,1/2,3/4")));
    sp_policies = parse_policies (q_str q "policy" "all");
  }

(* POST /sweep body: {"network": "ring:8", "d": 4, "horizon": 20000,
   "rates": ["1/4", 0.5], "policies": ["fifo", "lis"] | "all"} *)
let sweep_params_of_json body =
  let j =
    try Jsonx.of_string body with Failure msg -> bad "body is not JSON: %s" msg
  in
  let obj = match j with Jsonx.Obj _ -> j | _ -> bad "body must be a JSON object" in
  let str_field key default =
    match Jsonx.member key obj with
    | None | Some Jsonx.Null -> default
    | Some (Jsonx.Str s) -> s
    | Some _ -> bad "field %s must be a string" key
  in
  let int_field key default =
    match Jsonx.member key obj with
    | None | Some Jsonx.Null -> default
    | Some (Jsonx.Int i) -> i
    | Some _ -> bad "field %s must be an integer" key
  in
  let rate_of = function
    | Jsonx.Str s -> token ~what:"rates: " (module Scenario_spec.Rate) s
    | Jsonx.Int i -> Ratio.of_int i
    | Jsonx.Float f when Float.is_finite f -> Ratio.of_float_approx f
    | _ -> bad "rates must be strings or numbers"
  in
  let rates =
    match Jsonx.member "rates" obj with
    | None | Some Jsonx.Null ->
        [ Ratio.make 1 8; Ratio.make 1 4; Ratio.make 1 2; Ratio.make 3 4 ]
    | Some (Jsonx.List l) -> List.map rate_of l
    | Some v -> [ rate_of v ]
  in
  let policies =
    match Jsonx.member "policies" obj with
    | None | Some Jsonx.Null -> parse_policies (str_field "policy" "all")
    | Some (Jsonx.Str s) -> parse_policies s
    | Some (Jsonx.List l) ->
        List.map
          (function
            | Jsonx.Str s -> token (module Scenario_spec.Policy) s
            | _ -> bad "policies must be strings")
          l
    | Some _ -> bad "field policies must be a string or a list"
  in
  {
    sp_net = parse_net (str_field "network" "ring:8");
    sp_d = check_hops (int_field "d" 4);
    sp_horizon = check_horizon (int_field "horizon" 20_000);
    sp_rates = check_rates rates;
    sp_policies = policies;
  }

let sweep_spec p =
  [
    ("version", Spec.Int 1);
    ("network", Spec.Str (Scenario_spec.Network.to_string p.sp_net));
    ("d", Spec.Int p.sp_d);
    ("horizon", Spec.Int p.sp_horizon);
    ( "rates",
      Spec.List
        (List.map (fun r -> Spec.Ratio (Ratio.num r, Ratio.den r)) p.sp_rates) );
    ( "policies",
      Spec.List
        (List.map
           (fun (pol : Aqt_engine.Policy_type.t) -> Spec.Str pol.name)
           p.sp_policies) );
  ]

(* Same grid as `aqt_sim sweep`, built into a Registry.result so it can be
   content-addressed into the shared campaign cache.  Cells are
   independent (policy, rate) classifications, so they shard across
   domains; each cell interns its own routes, which costs a little
   duplicate work in exchange for no shared mutable state. *)
let compute_sweep ?(shards = 1) p =
  let w = Scenario_spec.workload ~d:p.sp_d p.sp_net in
  let cells =
    List.concat_map
      (fun policy -> List.map (fun rate -> (policy, rate)) p.sp_rates)
      p.sp_policies
  in
  let run_cell (policy, rate) =
    Scenario_spec.sweep_cell
      ~route_table:(Aqt_engine.Route_intern.create ())
      w ~policy ~rate ~horizon:p.sp_horizon
  in
  let workers = max 1 (min shards (List.length cells)) in
  let rows = Parallel.map ~workers run_cell cells in
  let rb = Registry.Rb.create () in
  Registry.Rb.table rb ~id:"serve_sweep" ~headers:Scenario_spec.sweep_headers
    rows;
  Registry.Rb.metric rb "cells" (float_of_int (List.length cells));
  Registry.Rb.result rb

let result_payload ~name ~key ~cached ~duration result =
  Jsonx.Obj
    [
      ("name", Jsonx.Str name);
      ("key", Jsonx.Str key);
      ("cached", Jsonx.Bool cached);
      ("duration", Jsonx.Float duration);
      ("result", Registry.result_to_json result);
    ]

let serve_cached t ~name ~spec ~compute =
  let key = Spec.hash ~salt:Campaign.default_options.Campaign.salt ~name spec in
  match Cache.lookup t.cache ~key with
  | Some c ->
      Metrics.inc t.m.cache_hits;
      (* The hit refreshes the entry's mtime, turning trim's
         oldest-first eviction into LRU. *)
      Cache.touch t.cache ~key;
      json
        (result_payload ~name ~key ~cached:true ~duration:c.Cache.duration
           c.Cache.result)
  | None ->
      Metrics.inc t.m.cache_misses;
      let t0 = Clock.monotonic () in
      let result = compute () in
      let duration = Clock.monotonic () -. t0 in
      Cache.store t.cache ~key ~name ~spec ~duration result;
      json (result_payload ~name ~key ~cached:false ~duration result)

(* The per-route rate check needs the network, the hops and the rates
   together, so it runs once all three are parsed: before the cache
   lookup and before any cell. *)
let sweep_handler t p =
  let routes = Scenario_spec.route_count ~d:p.sp_d p.sp_net in
  Result.iter_error (bad "%s") (Scenario_spec.sweep_rates ~routes p.sp_rates);
  serve_cached t ~name:"serve.sweep" ~spec:(sweep_spec p) ~compute:(fun () ->
      compute_sweep ~shards:t.cfg.workers p)

(* ------------------------------------------------------------------ *)
(* /experiment/<name>                                                  *)
(* ------------------------------------------------------------------ *)

let experiment_handler t name =
  match Registry.find t.registry name with
  | None -> text ~status:404 (Printf.sprintf "unknown experiment %S\n" name)
  | Some entry ->
      serve_cached t ~name:entry.Registry.name ~spec:entry.Registry.spec
        ~compute:entry.Registry.run

(* ------------------------------------------------------------------ *)
(* /figure/<id>                                                        *)
(* ------------------------------------------------------------------ *)

let render_figure t (fig : Report.figure) =
  let options =
    {
      Campaign.default_options with
      Campaign.dir = t.cfg.campaign_dir;
      quiet = true;
    }
  in
  let ctx = Report.build_ctx ~registry:t.registry ~options [ fig ] in
  fig.Report.render ctx

let figure_handler t id =
  let svg body = { status = 200; ctype = "image/svg+xml"; content = body } in
  (* One mutex serializes renders: figure campaigns journal into the shared
     campaign dir, and a render is expensive enough that piling every worker
     onto a cold figure would only waste domains. *)
  Mutex.lock t.flock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.flock)
    (fun () ->
      match Hashtbl.find_opt t.figure_memo id with
      | Some body ->
          Metrics.inc t.m.cache_hits;
          svg body
      | None -> (
          match
            List.find_opt (fun (f : Report.figure) -> f.Report.id = id) t.figures
          with
          | None -> text ~status:404 (Printf.sprintf "unknown figure %S\n" id)
          | Some fig ->
              Metrics.inc t.m.cache_misses;
              let body = render_figure t fig in
              (* Only registered figures are memoised, so the memo holds
                 at most one render per figure. *)
              Hashtbl.replace t.figure_memo id body;
              svg body))

(* ------------------------------------------------------------------ *)
(* /simulate                                                           *)
(* ------------------------------------------------------------------ *)

let simulate_handler t rng q =
  let network = parse_net (q_str q "network" "ring:8") in
  let d = check_hops (q_int q "d" 4) in
  let horizon = check_horizon (q_int q "horizon" 5_000) in
  let rate = token ~what:"rate: " (module Scenario_spec.Rate) (q_str q "rate" "1/4") in
  if Ratio.(rate <= zero) then bad "rate must be positive";
  let policy = token (module Scenario_spec.Policy) (q_str q "policy" "fifo") in
  let stochastic =
    match String.lowercase_ascii (q_str q "stochastic" "false") with
    | "1" | "true" | "yes" -> true
    | "0" | "false" | "no" -> false
    | v -> bad "parameter stochastic: expected a boolean, got %S" v
  in
  let speedup = q_int q "speedup" 1 in
  if speedup < 1 then bad "speedup must be >= 1";
  let drop =
    let v = q_str q "drop" "drop-tail" in
    match Capacity.policy_of_string v with
    | Some p -> p
    | None -> bad "parameter drop: expected drop-tail or drop-head, got %S" v
  in
  let capacity =
    match List.assoc_opt "cap" q with
    | None | Some "" | Some "inf" ->
        if speedup = 1 then Capacity.unbounded
        else Capacity.make ~speedup Capacity.Unbounded
    | Some v -> (
        match int_of_string_opt v with
        | Some c when c >= 0 -> Capacity.uniform ~policy:drop ~speedup c
        | _ -> bad "parameter cap: expected a non-negative integer, got %S" v)
  in
  let seed =
    match List.assoc_opt "seed" q with
    | Some v -> (
        match int_of_string_opt v with
        | Some s -> s
        | None -> bad "parameter seed: expected an integer, got %S" v)
    | None ->
        (* The worker's own decorrelated stream: each worker draws distinct
           seeds, and the chosen seed is reported so the run can be replayed. *)
        Int64.to_int (Prng.bits64 rng) land 0x3FFFFFFF
  in
  let s =
    Scenario_spec.simulate ~capacity ~network ~d ~policy ~rate ~horizon
      ~stochastic ~seed
  in
  let net = s.Scenario_spec.net in
  let injected = Network.injected_count net in
  let dropped = Network.dropped net in
  let edge_drops =
    List.filter_map
      (fun e ->
        match Network.dropped_on_edge net e with
        | 0 -> None
        | n -> Some (e, n))
      (List.init (Aqt_graph.Digraph.n_edges s.workload.graph) Fun.id)
  in
  (* Per-edge drop counters carry the edge id as an inline Prometheus
     label; simulate networks are small, so the label set stays modest.
     The aggregate counters accumulate across runs; the occupancy gauge
     tracks the latest run (its _peak snapshot the all-time high). *)
  Metrics.inc ~by:dropped t.m.sim_dropped;
  Metrics.inc ~by:(Network.displaced net) t.m.sim_displaced;
  Metrics.set_gauge t.m.sim_peak_occupancy
    (float_of_int (Network.peak_occupancy net));
  List.iter
    (fun (e, n) ->
      Metrics.inc ~by:n
        (Metrics.counter t.metrics
           (Printf.sprintf "serve_sim_edge_drops_total{edge=\"%d\"}" e)
           ~help:"Per-edge drop totals across /simulate runs."))
    edge_drops;
  json
    (Jsonx.Obj
       [
         ("network", Jsonx.Str (Scenario_spec.Network.to_string network));
         ("policy", Jsonx.Str policy.Aqt_engine.Policy_type.name);
         ("rate", Jsonx.Str (Ratio.to_string rate));
         ("adversary", Jsonx.Str s.adversary);
         ("seed", Jsonx.Int seed);
         ("capacity", Jsonx.Str (Capacity.describe capacity));
         ("speedup", Jsonx.Int speedup);
         ("steps", Jsonx.Int s.steps);
         ("injected", Jsonx.Int injected);
         ("absorbed", Jsonx.Int (Network.absorbed net));
         ("in_flight", Jsonx.Int (Network.in_flight net));
         ("dropped", Jsonx.Int dropped);
         ("displaced", Jsonx.Int (Network.displaced net));
         ("drop_rate", Jsonx.Float (Tradeoff.drop_rate ~injected ~dropped));
         ("peak_occupancy", Jsonx.Int (Network.peak_occupancy net));
         ( "edge_drops",
           Jsonx.Obj
             (List.map
                (fun (e, n) -> (string_of_int e, Jsonx.Int n))
                edge_drops) );
         ("max_queue", Jsonx.Int (Network.max_queue_ever net));
         ("max_dwell", Jsonx.Int (Network.max_dwell net));
         ("mean_latency", Jsonx.Float (Network.delivered_latency_mean net));
       ])

(* ------------------------------------------------------------------ *)
(* Routing                                                             *)
(* ------------------------------------------------------------------ *)

let index_body t =
  let b = Buffer.create 512 in
  Buffer.add_string b "aqt_sim serve: rate-admission simulation service\n\n";
  Printf.bprintf b
    "admission: rho=%g req/s sigma=%d (default), sweep rho=%g sigma=%d,\n\
    \           per-client rho=%g sigma=%d (keyed by %s, max %d keys)\n"
    (Bucket.rho t.bucket) (Bucket.sigma t.bucket)
    (Bucket.rho t.sweep_bucket) (Bucket.sigma t.sweep_bucket)
    t.cfg.client_rho t.cfg.client_sigma
    (if t.client_key_header = "" then "peer address"
     else t.client_key_header ^ " header")
    client_buckets_max;
  Printf.bprintf b
    "workers: %d, queue capacity: %d, max conns: %d, pipeline depth: %d\n\n"
    t.cfg.workers t.cfg.sigma t.cfg.max_conns t.cfg.max_pipeline;
  Buffer.add_string b
    "endpoints:\n\
    \  GET  /healthz              liveness\n\
    \  GET  /metrics              Prometheus text format\n\
    \  GET  /sweep?network=ring:8&d=4&horizon=20000&rates=1/4,1/2&policy=all\n\
    \  POST /sweep                same parameters as a JSON body\n\
    \  GET  /experiment/<name>    cached run of a registered experiment\n\
    \  GET  /figure/<id>          report figure as SVG\n\
    \  GET  /simulate?network=ring:8&policy=fifo&rate=1/4&horizon=5000\n\
    \       [&seed=N][&cap=K&drop=drop-tail|drop-head&speedup=S]\n";
  Buffer.contents b

let strip_prefix ~prefix s =
  if String.starts_with ~prefix s then
    Some (String.sub s (String.length prefix) (String.length s - String.length prefix))
  else None

let route t rng (req : Http.request) =
  let get_like = req.Http.meth = "GET" || req.Http.meth = "HEAD" in
  match req.Http.path with
  | "/healthz" when get_like -> text "ok\n"
  | "/metrics" when get_like ->
      {
        status = 200;
        ctype = "text/plain; version=0.0.4; charset=utf-8";
        content = Metrics.render t.metrics;
      }
  | "/" when get_like -> text (index_body t)
  | "/sweep" when get_like -> sweep_handler t (sweep_params_of_query req.Http.query)
  | "/sweep" when req.Http.meth = "POST" ->
      sweep_handler t (sweep_params_of_json req.Http.body)
  | "/simulate" when get_like -> simulate_handler t rng req.Http.query
  | ("/healthz" | "/metrics" | "/" | "/sweep" | "/simulate") ->
      text ~status:405 "method not allowed\n"
  | path -> (
      match strip_prefix ~prefix:"/experiment/" path with
      | Some name when get_like -> experiment_handler t name
      | Some _ -> text ~status:405 "method not allowed\n"
      | None -> (
          match strip_prefix ~prefix:"/figure/" path with
          | Some id when get_like -> figure_handler t id
          | Some _ -> text ~status:405 "method not allowed\n"
          | None -> text ~status:404 "not found\n"))

(* The event loop answers these inline, bypassing admission entirely;
   everything else passes the buckets and goes to the worker pool.
   They are cheap, allocation-light and never block — and a liveness
   probe that sheds under load gets a healthy daemon killed by its
   orchestrator. *)
let fast_path = function "/healthz" | "/metrics" | "/" -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* Connection lifecycle (event-loop domain only)                       *)
(* ------------------------------------------------------------------ *)

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let close_conn t c =
  if c.alive then begin
    c.alive <- false;
    Hashtbl.remove t.conns c.id;
    Hashtbl.remove t.by_fd (fd_int c.fd);
    (try Unix.shutdown c.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    close_quietly c.fd;
    Metrics.add_gauge t.m.open_conns (-1.)
  end

(* Re-arm the connection's single deadline for its current state.  The
   generation counter lazily invalidates whatever was already filed. *)
let rearm t c =
  if c.alive then begin
    c.dl_gen <- c.dl_gen + 1;
    let now = Clock.monotonic () in
    let dl =
      if c.cur <> "" || not (Queue.is_empty c.outq) then
        now +. t.cfg.write_timeout
      else if Http.Parser.buffered c.parser > 0 then now +. t.cfg.read_timeout
      else now +. t.cfg.idle_timeout
    in
    Timewheel.add t.wheel ~deadline:dl (c.id, c.dl_gen)
  end

(* A fired deadline with a current generation: no progress since the
   arm, so act on whatever the connection is stuck in. *)
let timeout_action t c =
  if c.cur <> "" || not (Queue.is_empty c.outq) then begin
    (* Peer is not draining its responses. *)
    Metrics.inc t.m.write_errors;
    close_conn t c
  end
  else if c.inflight > 0 || c.pending <> [] then
    (* A worker is still computing; that is not the peer's fault. *)
    rearm t c
  else if Http.Parser.buffered c.parser > 0 then begin
    (* Mid-request stall: answer 408 and hang up. *)
    Metrics.inc t.m.read_errors;
    let bytes =
      Http.encode_response ~keep_alive:false ~status:408
        ~body:"request read timed out\n" ()
    in
    Metrics.inc (status_counter t 408);
    Queue.push bytes c.outq;
    c.close_after <- true;
    rearm t c
  end
  else close_conn t c (* idle keep-alive expiry *)

(* Write as much of the out-queue as the socket accepts. *)
let rec flush t c =
  if c.alive then begin
    if c.cur = "" && not (Queue.is_empty c.outq) then begin
      c.cur <- Queue.pop c.outq;
      c.cur_off <- 0
    end;
    if c.cur <> "" then begin
      match
        Unix.write_substring c.fd c.cur c.cur_off
          (String.length c.cur - c.cur_off)
      with
      | n ->
          c.cur_off <- c.cur_off + n;
          if c.cur_off >= String.length c.cur then begin
            c.cur <- "";
            c.cur_off <- 0
          end;
          rearm t c;
          flush t c
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> flush t c
      | exception Unix.Unix_error _ ->
          Metrics.inc t.m.write_errors;
          close_conn t c
    end;
    if
      c.alive && c.close_after && c.cur = ""
      && Queue.is_empty c.outq
      && c.inflight = 0 && c.pending = []
    then close_conn t c
  end

(* Pipelined responses must leave in request order: a response for the
   wrong sequence number parks in [pending] until its turn. *)
let rec emit t c (r : resp) =
  if not c.alive then ()
  else if r.rseq = c.emit_seq then begin
    Queue.push r.rbytes c.outq;
    c.emit_seq <- c.emit_seq + 1;
    Metrics.inc (status_counter t r.rstatus);
    Metrics.observe t.m.latency (Clock.monotonic () -. r.rarrival);
    if not r.rkeep then c.close_after <- true;
    match List.partition (fun p -> p.rseq = c.emit_seq) c.pending with
    | [ nxt ], rest ->
        c.pending <- rest;
        emit t c nxt
    | _ -> ()
  end
  else c.pending <- r :: c.pending

let make_resp t ~seq ~arrival ~head ~keep (o : out) =
  let keep = keep && not (Atomic.get t.stop_flag) in
  let headers =
    ("Content-Type", o.ctype)
    ::
    (if o.status = 429 || o.status = 503 then [ ("Retry-After", "1") ] else [])
  in
  {
    rseq = seq;
    rstatus = o.status;
    rkeep = keep;
    rarrival = arrival;
    rbytes =
      Http.encode_response ~headers ~head_only:head ~keep_alive:keep
        ~status:o.status ~body:o.content ();
  }

(* ------------------------------------------------------------------ *)
(* Admission                                                           *)
(* ------------------------------------------------------------------ *)

(* Two layers, both (rho,sigma) buckets: the per-client bucket bounds
   any single peer, then the per-endpoint bucket bounds the aggregate
   into the handler class.  The expensive class (/sweep, /experiment,
   /figure) has its own (smaller) endpoint bucket so grid computations
   cannot starve cheap endpoints.  An endpoint-layer shed refunds the
   client token: aggregate overload must not drain the budget of a
   client still inside its own envelope. *)
let expensive_class path =
  path = "/sweep"
  || String.starts_with ~prefix:"/experiment/" path
  || String.starts_with ~prefix:"/figure/" path

let admit t c (req : Http.request) =
  let key =
    match
      if t.client_key_header = "" then None
      else Http.header req t.client_key_header
    with
    | Some v -> v
    | None -> c.peer
  in
  if not (Bucket.Keyed.try_take t.client_buckets key) then begin
    Metrics.inc t.m.shed;
    Metrics.inc t.m.shed_client;
    Error (text ~status:429 "shed: client (rho,sigma) budget exhausted\n")
  end
  else
    let b =
      if expensive_class req.Http.path then t.sweep_bucket else t.bucket
    in
    if not (Bucket.try_take b) then begin
      Bucket.Keyed.refund t.client_buckets key;
      Metrics.inc t.m.shed;
      Error (text ~status:429 "shed: (rho,sigma) admission budget exhausted\n")
    end
    else Ok ()

(* ------------------------------------------------------------------ *)
(* Dispatch and request handling                                       *)
(* ------------------------------------------------------------------ *)

let dispatch t c ~seq ~arrival ~head ~keep req =
  let job = { jid = c.id; jseq = seq; jarrival = arrival; jhead = head;
              jkeep = keep; jreq = req } in
  Mutex.lock t.qlock;
  if t.draining || Queue.length t.jobs >= t.cfg.sigma then begin
    Mutex.unlock t.qlock;
    Metrics.inc t.m.rejected;
    let msg =
      if Atomic.get t.stop_flag then "shutting down\n" else "queue full\n"
    in
    emit t c (make_resp t ~seq ~arrival ~head ~keep:false (text ~status:503 msg))
  end
  else begin
    Queue.push job t.jobs;
    Metrics.set_gauge t.m.queue_depth (float_of_int (Queue.length t.jobs));
    Condition.signal t.qcond;
    Mutex.unlock t.qlock;
    c.inflight <- c.inflight + 1
  end

let on_request t c (req : Http.request) =
  Metrics.inc t.m.requests;
  let arrival = Clock.monotonic () in
  let seq = c.next_seq in
  c.next_seq <- seq + 1;
  let head = req.Http.meth = "HEAD" in
  let keep = Http.wants_keep_alive req in
  if Atomic.get t.stop_flag then
    emit t c
      (make_resp t ~seq ~arrival ~head ~keep:false
         (text ~status:503 "shutting down\n"))
  else if fast_path req.Http.path then begin
    (* Inline and unadmitted: liveness probes and metrics scrapes must
       answer especially while the daemon is shedding everything else. *)
    let o =
      try route t t.base_rng req
      with
      | Bad_request msg -> text ~status:400 ("bad request: " ^ msg ^ "\n")
      | Failure msg -> text ~status:500 ("internal error: " ^ msg ^ "\n")
      | Invalid_argument msg ->
          text ~status:500 ("internal error: " ^ msg ^ "\n")
    in
    emit t c (make_resp t ~seq ~arrival ~head ~keep o)
  end
  else
    match admit t c req with
    | Error o -> emit t c (make_resp t ~seq ~arrival ~head ~keep o)
    | Ok () -> dispatch t c ~seq ~arrival ~head ~keep req

let paused t c = c.inflight >= t.cfg.max_pipeline

(* Pull every complete request out of the connection's parser.  Pauses
   at [max_pipeline] outstanding dispatches — the poll registration
   drops read interest, which is TCP backpressure on the peer. *)
let rec drain_parser t c =
  if c.alive && not c.close_after && not (paused t c) then
    match Http.Parser.next c.parser with
    | `Await -> ()
    | `Request req ->
        on_request t c req;
        drain_parser t c
    | `Error e ->
        Metrics.inc t.m.read_errors;
        let o =
          match e with
          | Http.Too_large what ->
              text ~status:413 (Printf.sprintf "too large: %s\n" what)
          | Http.Malformed what ->
              text ~status:400 (Printf.sprintf "malformed request: %s\n" what)
          | Http.Timeout | Http.Closed ->
              text ~status:400 "malformed request\n"
        in
        let seq = c.next_seq in
        c.next_seq <- seq + 1;
        emit t c (make_resp t ~seq ~arrival:(Clock.monotonic ()) ~head:false
                    ~keep:false o)

let on_eof t c =
  c.eof <- true;
  if c.inflight = 0 && c.pending = [] && c.cur = "" && Queue.is_empty c.outq
  then begin
    if Http.Parser.buffered c.parser > 0 then Metrics.inc t.m.read_errors;
    close_conn t c
  end
  else c.close_after <- true

let on_readable t c =
  let continue = ref true in
  let budget = ref 65536 in
  while !continue && !budget > 0 && c.alive do
    match Unix.read c.fd t.rbuf 0 (Bytes.length t.rbuf) with
    | 0 ->
        continue := false;
        on_eof t c
    | n ->
        budget := !budget - n;
        Http.Parser.feed c.parser t.rbuf 0 n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        continue := false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error _ ->
        Metrics.inc t.m.read_errors;
        close_conn t c;
        continue := false
  done;
  if c.alive then begin
    drain_parser t c;
    flush t c;
    rearm t c
  end

(* ------------------------------------------------------------------ *)
(* Completions: worker -> event loop                                   *)
(* ------------------------------------------------------------------ *)

let wake t =
  try ignore (Unix.write t.wake_w (Bytes.make 1 'x') 0 1)
  with Unix.Unix_error _ -> ()

let push_completion t comp =
  Mutex.lock t.comp_lock;
  Queue.push comp t.comps;
  Mutex.unlock t.comp_lock;
  wake t

let process_completions t =
  let rec pop () =
    Mutex.lock t.comp_lock;
    let x = if Queue.is_empty t.comps then None else Some (Queue.pop t.comps) in
    Mutex.unlock t.comp_lock;
    match x with
    | None -> ()
    | Some comp ->
        (match Hashtbl.find_opt t.conns comp.cid with
        | None -> () (* connection died while the worker computed *)
        | Some c ->
            c.inflight <- c.inflight - 1;
            emit t c
              (make_resp t ~seq:comp.cseq ~arrival:comp.carrival
                 ~head:comp.chead ~keep:comp.ckeep comp.cout);
            (* Un-pausing may expose already-buffered pipelined
               requests that arrived while we were at depth. *)
            drain_parser t c;
            flush t c;
            rearm t c);
        pop ()
  in
  pop ()

(* ------------------------------------------------------------------ *)
(* Workers                                                             *)
(* ------------------------------------------------------------------ *)

let worker_loop t i () =
  let rng = Prng.stream t.base_rng i in
  let gc_words =
    Metrics.gauge t.metrics
      (Printf.sprintf "serve_worker_minor_words{worker=\"%d\"}" i)
      ~help:"Minor heap words allocated by each worker domain."
  in
  let rec loop () =
    Mutex.lock t.qlock;
    while Queue.is_empty t.jobs && not t.draining do
      Condition.wait t.qcond t.qlock
    done;
    let job =
      if Queue.is_empty t.jobs then None
      else begin
        let j = Queue.pop t.jobs in
        Metrics.set_gauge t.m.queue_depth (float_of_int (Queue.length t.jobs));
        Some j
      end
    in
    Mutex.unlock t.qlock;
    match job with
    | None -> () (* draining and empty: exit *)
    | Some j ->
        Metrics.add_gauge t.m.in_flight 1.;
        let o =
          (* A handler bug must never take a worker domain down with it. *)
          try route t rng j.jreq with
          | Bad_request msg -> text ~status:400 ("bad request: " ^ msg ^ "\n")
          | Failure msg -> text ~status:500 ("internal error: " ^ msg ^ "\n")
          | Invalid_argument msg ->
              text ~status:500 ("internal error: " ^ msg ^ "\n")
          | e ->
              text ~status:500
                ("internal error: " ^ Printexc.to_string e ^ "\n")
        in
        Metrics.add_gauge t.m.in_flight (-1.);
        push_completion t
          {
            cid = j.jid;
            cseq = j.jseq;
            carrival = j.jarrival;
            chead = j.jhead;
            ckeep = j.jkeep;
            cout = o;
          };
        Metrics.set_gauge gc_words (Gc.minor_words ());
        loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Accept                                                              *)
(* ------------------------------------------------------------------ *)

let handle_accept t =
  let rec go () =
    match Unix.accept ~cloexec:true t.listen_fd with
    | fd, addr ->
        Metrics.inc t.m.conns_total;
        if Hashtbl.length t.conns >= t.cfg.max_conns then begin
          (* Over the connection cap: best-effort 503 and hang up —
             shed work must not consume the loop it is protecting. *)
          Metrics.inc t.m.rejected;
          Metrics.inc (status_counter t 503);
          let bytes =
            Http.encode_response
              ~headers:[ ("Retry-After", "1") ]
              ~keep_alive:false ~status:503 ~body:"too many connections\n" ()
          in
          (try
             Unix.set_nonblock fd;
             ignore (Unix.write_substring fd bytes 0 (String.length bytes))
           with Unix.Unix_error _ -> ());
          close_quietly fd
        end
        else begin
          Unix.set_nonblock fd;
          (try Unix.setsockopt fd Unix.TCP_NODELAY true
           with Unix.Unix_error _ -> ());
          let peer =
            match addr with
            | Unix.ADDR_INET (a, _) -> Unix.string_of_inet_addr a
            | Unix.ADDR_UNIX s -> s
          in
          let id = t.next_conn_id in
          t.next_conn_id <- id + 1;
          let c =
            {
              fd;
              id;
              peer;
              accepted_at = Clock.monotonic ();
              parser = Http.Parser.create ();
              outq = Queue.create ();
              cur = "";
              cur_off = 0;
              next_seq = 0;
              emit_seq = 0;
              pending = [];
              inflight = 0;
              close_after = false;
              eof = false;
              dl_gen = 0;
              alive = true;
            }
          in
          Hashtbl.replace t.conns id c;
          Hashtbl.replace t.by_fd (fd_int fd) c;
          Metrics.add_gauge t.m.open_conns 1.;
          rearm t c
        end;
        go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) ->
        go ()
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Event loop                                                          *)
(* ------------------------------------------------------------------ *)

let write_snapshot t =
  Metrics.set_gauge t.m.tokens (Bucket.level t.bucket);
  Metrics.set_gauge t.m.sweep_tokens (Bucket.level t.sweep_bucket);
  Metrics.set_gauge t.m.client_keys
    (float_of_int (Bucket.Keyed.keys t.client_buckets));
  match t.journal with
  | None -> ()
  | Some j ->
      Journal.write j
        (Journal.Snapshot
           {
             at = Clock.wall ();
             label = "serve.metrics";
             values = Metrics.snapshot t.metrics;
           })

let drain_wake t =
  let b = Bytes.create 64 in
  let rec go () =
    match Unix.read t.wake_r b 0 64 with
    | _ -> go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let finalize t =
  let cs = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [] in
  List.iter (close_conn t) cs;
  List.iter Domain.join t.worker_domains;
  t.worker_domains <- [];
  write_snapshot t;
  (match t.journal with Some j -> Journal.close j | None -> ());
  close_quietly t.wake_r;
  close_quietly t.wake_w;
  if not t.cfg.quiet then Printf.printf "serve: drained, bye\n%!";
  Atomic.set t.stopped_flag true

(* How long a graceful drain may take before stragglers are cut off. *)
let drain_grace = 75.

let event_loop t () =
  let ep = Evpoll.create () in
  let tick = if t.cfg.snapshot_every > 0. then t.cfg.snapshot_every else 3600. in
  let next_snapshot = ref (Clock.monotonic () +. tick) in
  let draining_started = ref false in
  let drain_deadline = ref Float.infinity in
  let finished = ref false in
  let listen_int = fd_int t.listen_fd and wake_int = fd_int t.wake_r in
  while not !finished do
    if Atomic.get t.stop_flag && not !draining_started then begin
      draining_started := true;
      drain_deadline := Clock.monotonic () +. drain_grace;
      close_quietly t.listen_fd;
      Mutex.lock t.qlock;
      t.draining <- true;
      Condition.broadcast t.qcond;
      Mutex.unlock t.qlock;
      (* Stop reading everywhere; in-flight work still completes and
         its responses still flush. *)
      let cs = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [] in
      List.iter
        (fun c ->
          c.close_after <- true;
          flush t c)
        cs
    end;
    Evpoll.clear ep;
    if not !draining_started then
      Evpoll.add ep t.listen_fd ~read:true ~write:false;
    Evpoll.add ep t.wake_r ~read:true ~write:false;
    Hashtbl.iter
      (fun _ c ->
        let want_read = (not c.close_after) && (not c.eof) && not (paused t c) in
        let want_write = c.cur <> "" || not (Queue.is_empty c.outq) in
        if want_read || want_write then
          Evpoll.add ep c.fd ~read:want_read ~write:want_write)
      t.conns;
    let timeout_ms = if !draining_started then 20 else 100 in
    ignore (Evpoll.wait ep ~timeout_ms);
    Evpoll.iter_ready ep (fun fd ~readable ~writable ~error ->
        let fdi = fd_int fd in
        if fdi = wake_int then begin
          if readable then drain_wake t
        end
        else if fdi = listen_int && not !draining_started then begin
          if readable then handle_accept t
        end
        else
          match Hashtbl.find_opt t.by_fd fdi with
          | None -> ()
          | Some c ->
              if error then close_conn t c
              else begin
                if writable && c.alive then flush t c;
                if readable && c.alive then on_readable t c
              end);
    process_completions t;
    let now = Clock.monotonic () in
    Timewheel.advance t.wheel ~now (fun (cid, gen) ->
        match Hashtbl.find_opt t.conns cid with
        | Some c when c.alive && c.dl_gen = gen -> timeout_action t c
        | _ -> ());
    if now >= !next_snapshot then begin
      next_snapshot := now +. tick;
      if t.cfg.snapshot_every > 0. then write_snapshot t;
      match t.cfg.cache_max_bytes with
      | Some max_bytes -> ignore (Cache.trim t.cache ~max_bytes)
      | None -> ()
    end;
    if !draining_started then begin
      Mutex.lock t.qlock;
      let queued = Queue.length t.jobs in
      Mutex.unlock t.qlock;
      let busy = ref (queued > 0) in
      Hashtbl.iter
        (fun _ c ->
          if
            c.inflight > 0 || c.pending <> [] || c.cur <> ""
            || not (Queue.is_empty c.outq)
          then busy := true)
        t.conns;
      if (not !busy) || now > !drain_deadline then finished := true
    end
  done;
  finalize t

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let journal_path dir =
  let tm = Unix.gmtime (Clock.wall ()) in
  Filename.concat
    (Filename.concat dir "journal")
    (Printf.sprintf "serve-%04d%02d%02d-%02d%02d%02d-%d.jsonl"
       (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1) tm.Unix.tm_mday
       tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec (Unix.getpid ()))

let start ?(registry = Registry.create ()) ?(figures = []) cfg =
  if cfg.workers < 1 then invalid_arg "Server.start: workers must be >= 1";
  if cfg.rho <= 0. || not (Float.is_finite cfg.rho) then
    invalid_arg "Server.start: rho must be positive";
  if cfg.sigma < 1 then invalid_arg "Server.start: sigma must be >= 1";
  if cfg.read_timeout <= 0. || cfg.write_timeout <= 0. then
    invalid_arg "Server.start: timeouts must be positive";
  if cfg.idle_timeout <= 0. then
    invalid_arg "Server.start: idle_timeout must be positive";
  if cfg.max_pipeline < 1 then
    invalid_arg "Server.start: max_pipeline must be >= 1";
  if cfg.max_conns < 1 then invalid_arg "Server.start: max_conns must be >= 1";
  (* Resolve the <= 0 "inherit" sentinels once, so both the buckets and
     the index page see the effective values. *)
  let cfg =
    {
      cfg with
      sweep_rho = (if cfg.sweep_rho > 0. then cfg.sweep_rho else cfg.rho /. 10.);
      sweep_sigma =
        (if cfg.sweep_sigma > 0 then cfg.sweep_sigma else max 4 (cfg.sigma / 4));
      client_rho = (if cfg.client_rho > 0. then cfg.client_rho else cfg.rho);
      client_sigma =
        (if cfg.client_sigma > 0 then cfg.client_sigma else cfg.sigma);
    }
  in
  (* Writes to half-closed keep-alive sockets must surface as EPIPE,
     not kill the process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let listen_fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  let t =
    try
      Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
      let addr =
        try Unix.inet_addr_of_string cfg.host
        with Failure _ -> invalid_arg ("Server.start: bad host " ^ cfg.host)
      in
      Unix.bind listen_fd (Unix.ADDR_INET (addr, cfg.port));
      Unix.listen listen_fd 511;
      Unix.set_nonblock listen_fd;
      let bound_port =
        match Unix.getsockname listen_fd with
        | Unix.ADDR_INET (_, p) -> p
        | _ -> cfg.port
      in
      let wake_r, wake_w = Unix.pipe ~cloexec:true () in
      Unix.set_nonblock wake_r;
      Unix.set_nonblock wake_w;
      let metrics = Metrics.create () in
      {
        cfg;
        registry;
        figures;
        listen_fd;
        bound_port;
        bucket = Bucket.create ~rho:cfg.rho ~sigma:cfg.sigma ();
        sweep_bucket =
          Bucket.create ~rho:cfg.sweep_rho ~sigma:cfg.sweep_sigma ();
        client_buckets =
          Bucket.Keyed.create ~max_entries:client_buckets_max ~rho:cfg.client_rho
            ~sigma:cfg.client_sigma ();
        client_key_header = String.lowercase_ascii cfg.client_key_header;
        jobs = Queue.create ();
        qlock = Mutex.create ();
        qcond = Condition.create ();
        draining = false;
        comps = Queue.create ();
        comp_lock = Mutex.create ();
        stop_flag = Atomic.make false;
        stopped_flag = Atomic.make false;
        wake_r;
        wake_w;
        conns = Hashtbl.create 256;
        by_fd = Hashtbl.create 256;
        wheel =
          Timewheel.create ~slots:1024 ~tick:0.05 ~now:(Clock.monotonic ()) ();
        rbuf = Bytes.create 16384;
        metrics;
        m = make_handles metrics;
        cache = Cache.create ~dir:(Filename.concat cfg.campaign_dir "cache");
        journal =
          (if cfg.journal then Some (Journal.create (journal_path cfg.campaign_dir))
           else None);
        figure_memo = Hashtbl.create 8;
        flock = Mutex.create ();
        base_rng = Prng.create 0x53455256;
        worker_domains = [];
        loop_domain = None;
        next_conn_id = 0;
      }
    with e ->
      close_quietly listen_fd;
      raise e
  in
  t.worker_domains <- List.init cfg.workers (fun i -> Domain.spawn (worker_loop t i));
  t.loop_domain <- Some (Domain.spawn (event_loop t));
  if not cfg.quiet then
    Printf.printf
      "serve: listening on %s:%d (workers=%d rho=%g sigma=%d queue=%d \
       max_conns=%d pipeline=%d)\n\
       %!"
      cfg.host t.bound_port cfg.workers cfg.rho cfg.sigma cfg.sigma
      cfg.max_conns cfg.max_pipeline;
  t

let request_stop t =
  if not (Atomic.exchange t.stop_flag true) then
    try ignore (Unix.write t.wake_w (Bytes.make 1 'x') 0 1)
    with Unix.Unix_error _ -> ()

let wait t =
  (* Poll instead of blocking in join so the calling thread keeps servicing
     OCaml signal handlers (SIGTERM/SIGINT call request_stop). *)
  while not (Atomic.get t.stopped_flag) do
    Unix.sleepf 0.05
  done;
  match t.loop_domain with
  | Some d ->
      t.loop_domain <- None;
      Domain.join d
  | None -> ()

let stop t =
  request_stop t;
  wait t
