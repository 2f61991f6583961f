(* lib/serve: HTTP codec, (rho,sigma) admission bucket, metrics registry,
   and loopback integration against live daemons. *)

module Http = Aqt_serve.Http
module Bucket = Aqt_serve.Bucket
module Metrics = Aqt_serve.Metrics
module Server = Aqt_serve.Server
module Registry = Aqt_harness.Registry
module Spec = Aqt_harness.Spec
module Journal = Aqt_harness.Journal
module Jsonx = Aqt_util.Jsonx
module Prng = Aqt_util.Prng

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let temp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "aqt_serve_test_%d_%d" (Unix.getpid ()) !counter)

(* ------------------------------------------------------------------ *)
(* HTTP codec: the parser the daemon runs, fed in memory               *)
(* ------------------------------------------------------------------ *)

(* A fresh request parser holding exactly [bytes]. *)
let parser_of ?max_line ?max_headers ?max_body bytes =
  let p = Http.Parser.create ?max_line ?max_headers ?max_body () in
  Http.Parser.feed_string p bytes;
  p

(* The first outcome of parsing [bytes]. *)
let feed ?max_line ?max_headers ?max_body bytes =
  Http.Parser.next (parser_of ?max_line ?max_headers ?max_body bytes)

let outcome_to_string = function
  | `Request _ -> "accepted"
  | `Await -> "awaiting more bytes"
  | `Error e -> Http.error_to_string e

let http_percent_decode () =
  check_string "space and plus" "a b c" (Http.percent_decode "a%20b+c");
  check_string "hex" "A/Z" (Http.percent_decode "%41%2fZ");
  check_string "bad escape passes through" "%zz%4" (Http.percent_decode "%zz%4");
  check_string "empty" "" (Http.percent_decode "")

let http_parse_query () =
  check_bool "pairs" true
    (Http.parse_query "a=1&b=two%20words&flag&=x"
    = [ ("a", "1"); ("b", "two words"); ("flag", ""); ("", "x") ]);
  check_bool "empty" true (Http.parse_query "" = []);
  check_bool "stray separators" true (Http.parse_query "&&a=1&" = [ ("a", "1") ])

let http_request_roundtrip () =
  match
    feed "GET /p%61th?x=1&y=a+b HTTP/1.1\r\nHost: h\r\nX-Foo:  bar \r\n\r\n"
  with
  | `Request req ->
      check_string "meth" "GET" req.Http.meth;
      check_string "path decoded" "/path" req.Http.path;
      check_bool "query" true (req.Http.query = [ ("x", "1"); ("y", "a b") ]);
      check_bool "header lower-cased and trimmed" true
        (Http.header req "X-FOO" = Some "bar");
      check_string "no body" "" req.Http.body
  | o -> Alcotest.failf "parse failed: %s" (outcome_to_string o)

let http_post_body () =
  match
    feed "POST /sweep HTTP/1.1\r\nContent-Length: 11\r\n\r\n{\"d\": 3}..."
  with
  | `Request req ->
      check_string "meth" "POST" req.Http.meth;
      check_string "body" "{\"d\": 3}..." req.Http.body
  | o -> Alcotest.failf "parse failed: %s" (outcome_to_string o)

let http_tolerances () =
  (match feed "\r\nGET / HTTP/1.1\r\n\r\n" with
  | `Request req -> check_string "leading blank line tolerated" "/" req.Http.path
  | o -> Alcotest.failf "blank line: %s" (outcome_to_string o));
  match feed "get / HTTP/1.0\nhost: h\n\n" with
  | `Request req ->
      check_string "bare LF + case" "GET" req.Http.meth;
      check_bool "host header" true (Http.header req "host" = Some "h")
  | o -> Alcotest.failf "bare LF: %s" (outcome_to_string o)

let expect_malformed label input =
  match feed input with
  | `Error (Http.Malformed _) -> ()
  | o -> Alcotest.failf "%s: expected Malformed, got %s" label (outcome_to_string o)

let http_malformed () =
  expect_malformed "no spaces" "GARBAGE\r\n\r\n";
  expect_malformed "http/0.9" "GET /\r\n\r\n";
  expect_malformed "bad version" "GET / SPDY/9\r\n\r\n";
  expect_malformed "nameless header" "GET / HTTP/1.1\r\n: v\r\n\r\n";
  expect_malformed "colonless header" "GET / HTTP/1.1\r\nnocolon\r\n\r\n";
  expect_malformed "chunked rejected"
    "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n";
  expect_malformed "bad content-length"
    "POST / HTTP/1.1\r\nContent-Length: banana\r\n\r\n";
  expect_malformed "negative content-length"
    "POST / HTTP/1.1\r\nContent-Length: -4\r\n\r\n"

let http_limits () =
  (match feed ~max_line:32 ("GET /" ^ String.make 64 'a' ^ " HTTP/1.1\r\n\r\n") with
  | `Error (Http.Too_large "line") -> ()
  | o -> Alcotest.failf "long line: %s" (outcome_to_string o));
  (match
     feed ~max_headers:2
       "GET / HTTP/1.1\r\na: 1\r\nb: 2\r\nc: 3\r\n\r\n"
   with
  | `Error (Http.Too_large "headers") -> ()
  | _ -> Alcotest.fail "header count cap");
  match feed ~max_body:8 "POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\n123456789" with
  | `Error (Http.Too_large "body") -> ()
  | _ -> Alcotest.fail "body cap"

(* The parser never sees the socket: input cut short waits for more
   bytes, every one of them kept, and calling EOF is the reader's job. *)
let http_closed () =
  let expect_await label input =
    let p = parser_of input in
    match Http.Parser.next p with
    | `Await ->
        check_int (label ^ ": bytes still buffered") (String.length input)
          (Http.Parser.buffered p)
    | o -> Alcotest.failf "%s: expected `Await, got %s" label (outcome_to_string o)
  in
  expect_await "empty input" "";
  expect_await "truncated headers" "GET / HTTP/1.1\r\nHost: h\r\n"

let http_encode_response () =
  let wire =
    Http.encode_response
      ~headers:[ ("Content-Type", "application/json") ]
      ~status:200 ~body:"{\"ok\":true}" ()
  in
  check_bool "status line" true
    (String.starts_with ~prefix:"HTTP/1.1 200 OK\r\n" wire);
  check_bool "content-length" true (contains wire "Content-Length: 11\r\n");
  check_bool "connection close" true
    (contains wire "Connection: close\r\n\r\n");
  check_bool "body last" true (String.ends_with ~suffix:"{\"ok\":true}" wire);
  let head = Http.encode_response ~head_only:true ~status:200 ~body:"abc" () in
  check_bool "HEAD keeps length header" true
    (contains head "Content-Length: 3\r\n");
  check_bool "HEAD omits body" true (String.ends_with ~suffix:"\r\n\r\n" head)

(* ------------------------------------------------------------------ *)
(* Bucket (fake clock)                                                 *)
(* ------------------------------------------------------------------ *)

let bucket_burst_then_refill () =
  let now = ref 0. in
  let b = Bucket.create ~now:(fun () -> !now) ~rho:2. ~sigma:3 () in
  check_bool "starts full: sigma admitted" true
    (Bucket.try_take b && Bucket.try_take b && Bucket.try_take b);
  check_bool "then empty" false (Bucket.try_take b);
  now := 0.5;
  check_bool "refills at rho" true (Bucket.try_take b);
  check_bool "but only one token accrued" false (Bucket.try_take b);
  now := 100.;
  check_bool "level capped at sigma" true (Bucket.level b <= 3.);
  check_bool "burst again" true
    (Bucket.try_take b && Bucket.try_take b && Bucket.try_take b);
  check_bool "capped burst" false (Bucket.try_take b)

let bucket_rate_bound () =
  (* The (rho,sigma) law itself: over [0,T] at most rho*T + sigma admitted,
     whatever the arrival pattern. *)
  let now = ref 0. in
  let b = Bucket.create ~now:(fun () -> !now) ~rho:5. ~sigma:4 () in
  let admitted = ref 0 in
  let horizon = 1000 in
  for step = 0 to horizon - 1 do
    now := float_of_int step *. 0.01;
    (* a greedy adversary hammers three times per tick *)
    for _ = 1 to 3 do
      if Bucket.try_take b then incr admitted
    done
  done;
  let t = float_of_int (horizon - 1) *. 0.01 in
  check_bool "admitted <= rho*T + sigma" true
    (float_of_int !admitted <= (5. *. t) +. 4.);
  check_bool "admission keeps pace with rho" true
    (float_of_int !admitted >= 5. *. t *. 0.9)

let bucket_refund_clamped () =
  (* Regression: a refund must never credit past sigma.  A full bucket
     plus a spurious-looking refund (admit, long idle refill, then the
     endpoint layer sheds and refunds) must still cap at sigma — an
     over-credit would let a later burst exceed the (rho,sigma) law. *)
  let now = ref 0. in
  let b = Bucket.create ~now:(fun () -> !now) ~rho:2. ~sigma:3 () in
  check_bool "take from full" true (Bucket.try_take b);
  now := 100.;
  (* refill brings the level back to sigma before the refund lands *)
  Bucket.refund b;
  check_bool "refund clamped to sigma" true (Bucket.level b <= 3.);
  let admitted = ref 0 in
  for _ = 1 to 10 do
    if Bucket.try_take b then incr admitted
  done;
  check_int "burst still bounded by sigma" 3 !admitted;
  (* Refund into a non-full bucket is an exact +1, not a fractional
     re-derivation from the clock. *)
  let c = Bucket.create ~now:(fun () -> !now) ~rho:1. ~sigma:2 () in
  check_bool "drain" true (Bucket.try_take c && Bucket.try_take c);
  Bucket.refund c;
  check_bool "one token back" true (Bucket.try_take c);
  check_bool "exactly one" false (Bucket.try_take c)

let bucket_validation () =
  Alcotest.check_raises "rho <= 0"
    (Invalid_argument "Bucket.create: rho must be > 0") (fun () ->
      ignore (Bucket.create ~rho:0. ~sigma:1 ()));
  Alcotest.check_raises "sigma < 1"
    (Invalid_argument "Bucket.create: sigma must be >= 1") (fun () ->
      ignore (Bucket.create ~rho:1. ~sigma:0 ()))

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let count_occurrences hay needle =
  let nl = String.length needle in
  let rec go i acc =
    if i + nl > String.length hay then acc
    else if String.sub hay i nl = needle then go (i + 1) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

let metrics_counter_and_gauge () =
  let m = Metrics.create () in
  let c = Metrics.counter m "x_total" ~help:"things" in
  Metrics.inc c;
  Metrics.inc ~by:2 c;
  check_int "counter value" 3 (Metrics.counter_value c);
  check_bool "get-or-create returns the same" true
    (Metrics.counter_value (Metrics.counter m "x_total") = 3);
  let g = Metrics.gauge m "depth" in
  Metrics.set_gauge g 4.;
  Metrics.add_gauge g (-1.);
  check_bool "gauge value" true (Metrics.gauge_value g = 3.);
  check_bool "peak survives the decrement" true (Metrics.gauge_peak g = 4.);
  let out = Metrics.render m in
  check_bool "HELP line" true (contains out "# HELP x_total things\n");
  check_bool "TYPE line" true (contains out "# TYPE x_total counter\n");
  check_bool "counter sample" true (contains out "x_total 3\n");
  check_bool "gauge sample" true (contains out "depth 3\n")

let metrics_kind_mismatch () =
  let m = Metrics.create () in
  ignore (Metrics.counter m "x");
  Alcotest.check_raises "kind clash"
    (Invalid_argument "Metrics: x exists with another kind") (fun () ->
      ignore (Metrics.gauge m "x"))

let metrics_label_family () =
  let m = Metrics.create () in
  Metrics.inc (Metrics.counter m "rsp_total{status=\"200\"}" ~help:"by status");
  Metrics.inc (Metrics.counter m "rsp_total{status=\"404\"}" ~help:"by status");
  let out = Metrics.render m in
  check_int "one TYPE line per family" 1
    (count_occurrences out "# TYPE rsp_total counter\n");
  check_bool "both series" true
    (contains out "rsp_total{status=\"200\"} 1\n"
    && contains out "rsp_total{status=\"404\"} 1\n")

let metrics_histogram () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "lat" ~buckets:[ 0.01; 0.1; 1.0 ] in
  List.iter (Metrics.observe h) [ 0.005; 0.005; 0.05; 0.5; 5.0 ];
  check_int "count" 5 (Metrics.histogram_count h);
  let out = Metrics.render m in
  check_bool "cumulative buckets" true
    (contains out "lat_bucket{le=\"0.01\"} 2\n"
    && contains out "lat_bucket{le=\"0.1\"} 3\n"
    && contains out "lat_bucket{le=\"1\"} 4\n"
    && contains out "lat_bucket{le=\"+Inf\"} 5\n");
  check_bool "count line" true (contains out "lat_count 5\n");
  (* p50 falls in the (0.01, 0.1] bucket; quantiles never exceed the last
     finite bound. *)
  let p50 = Metrics.quantile h 0.5 in
  check_bool "p50 in bucket" true (p50 > 0.01 && p50 <= 0.1);
  check_bool "p99 bounded by last finite bucket" true
    (Metrics.quantile h 0.99 <= 1.0);
  check_bool "empty histogram quantile" true
    (Metrics.quantile (Metrics.histogram m "lat2") 0.5 = 0.)

let metrics_snapshot () =
  let m = Metrics.create () in
  Metrics.inc (Metrics.counter m "a_total");
  Metrics.set_gauge (Metrics.gauge m "g") 2.5;
  Metrics.observe (Metrics.histogram m "h") 0.02;
  let snap = Metrics.snapshot m in
  check_bool "counter" true (List.assoc_opt "a_total" snap = Some 1.);
  check_bool "gauge + peak" true
    (List.assoc_opt "g" snap = Some 2.5
    && List.assoc_opt "g_peak" snap = Some 2.5);
  check_bool "histogram summary keys" true
    (List.mem_assoc "h_count" snap && List.mem_assoc "h_sum" snap
   && List.mem_assoc "h_p99" snap)

(* ------------------------------------------------------------------ *)
(* Integration: live daemon on an ephemeral port                       *)
(* ------------------------------------------------------------------ *)

let test_registry () =
  let r = Registry.create () in
  Registry.register r
    {
      Registry.name = "tiny";
      title = "tiny test experiment";
      tags = [];
      spec = [ ("version", Spec.Int 1) ];
      run =
        (fun () ->
          let rb = Registry.Rb.create () in
          Registry.Rb.note rb "hello";
          Registry.Rb.metric rb "answer" 42.;
          Registry.Rb.result rb);
    };
  r

let test_figure =
  {
    Aqt_report.Report.id = "unit";
    title = "unit figure";
    caption = "";
    experiments = [];
    render = (fun _ -> "<svg xmlns=\"http://www.w3.org/2000/svg\"></svg>");
  }

let boot ?(rho = 10_000.) ?(sigma = 100) ?(workers = 2) ?(read_timeout = 2.)
    ?registry ?figures () =
  Server.start ?registry ?figures
    {
      Server.default_config with
      Server.port = 0;
      workers;
      rho;
      sigma;
      read_timeout;
      write_timeout = 2.;
      campaign_dir = temp_dir ();
      snapshot_every = 0.;
      journal = false;
      quiet = true;
    }

let with_server ?rho ?sigma ?workers ?read_timeout ?registry ?figures f =
  let srv = boot ?rho ?sigma ?workers ?read_timeout ?registry ?figures () in
  Fun.protect ~finally:(fun () -> Server.stop srv) (fun () -> f srv)

let get ?meth ?body srv path =
  match Http.request ?meth ?body ~timeout:10. ~port:(Server.port srv) path with
  | Ok r -> r
  | Error e -> Alcotest.failf "request %s failed: %s" path e

let serve_basic_endpoints () =
  with_server (fun srv ->
      let r = get srv "/healthz" in
      check_int "healthz status" 200 r.Http.status;
      check_string "healthz body" "ok\n" r.Http.body;
      let r = get srv "/" in
      check_bool "index mentions endpoints" true (contains r.Http.body "/sweep");
      check_int "unknown path" 404 (get srv "/nope").Http.status;
      check_int "unknown method" 405 (get ~meth:"DELETE" srv "/healthz").Http.status;
      let r = get ~meth:"HEAD" srv "/healthz" in
      check_int "HEAD status" 200 r.Http.status;
      check_string "HEAD has no body" "" r.Http.body;
      check_bool "HEAD keeps content-length" true
        (List.assoc_opt "content-length" r.Http.resp_headers = Some "3"))

let serve_metrics_endpoint () =
  with_server (fun srv ->
      ignore (get srv "/healthz");
      let r = get srv "/metrics" in
      check_int "status" 200 r.Http.status;
      check_bool "prometheus content type" true
        (match List.assoc_opt "content-type" r.Http.resp_headers with
        | Some ct -> contains ct "version=0.0.4"
        | None -> false);
      let b = r.Http.body in
      check_bool "request counter family" true
        (contains b "# TYPE serve_requests_total counter");
      check_bool "latency histogram" true
        (contains b "serve_request_seconds_bucket{le=");
      check_bool "queue depth gauge" true (contains b "serve_queue_depth");
      check_bool "per-status series" true
        (contains b "serve_responses_total{status=\"200\"}");
      check_bool "per-worker gc series" true
        (contains b "serve_worker_minor_words{worker=\"0\"}"))

let sweep_path = "/sweep?network=ring:6&d=3&horizon=300&rates=1/4&policy=fifo"

let body_json r = Jsonx.of_string r.Http.body

let cached_flag r =
  match Jsonx.member "cached" (body_json r) with
  | Some (Jsonx.Bool b) -> b
  | _ -> Alcotest.fail "no cached flag in response"

let serve_sweep_cached () =
  with_server (fun srv ->
      let cold = get srv sweep_path in
      check_int "cold status" 200 cold.Http.status;
      check_bool "cold computes" false (cached_flag cold);
      let warm = get srv sweep_path in
      check_bool "warm is a cache hit" true (cached_flag warm);
      (* The POST body spells the same spec, so it must hit the same key. *)
      let post =
        get ~meth:"POST"
          ~body:
            {|{"network":"ring:6","d":3,"horizon":300,"rates":["1/4"],"policies":["fifo"]}|}
          srv "/sweep"
      in
      check_int "post status" 200 post.Http.status;
      check_bool "post hits the same cache key" true (cached_flag post);
      (* and the payload carries the verdict table *)
      check_bool "table present" true (contains cold.Http.body "serve_sweep"))

(* A 400 and its exact body. *)
let expect_400 ?meth ?body srv path msg =
  let r = get ?meth ?body srv path in
  let what = Option.value body ~default:path in
  check_int (Printf.sprintf "400 for %s" what) 400 r.Http.status;
  check_string
    (Printf.sprintf "body for %s" what)
    ("bad request: " ^ msg ^ "\n")
    r.Http.body

let serve_sweep_rejects () =
  with_server (fun srv ->
      expect_400 srv "/sweep?horizon=0" "horizon 0 out of range [1, 200000]";
      expect_400 srv "/sweep?horizon=999999999"
        "horizon 999999999 out of range [1, 200000]";
      expect_400 srv "/sweep?policy=quantum" {|unknown policy "quantum"|};
      expect_400 srv "/sweep?rates=one/two" {|rates: bad rational "one/two"|};
      expect_400 srv "/sweep?network=torus:4"
        {|unknown network "torus:4" (line:K | ring:K)|};
      expect_400 srv "/sweep?d=banana"
        {|parameter d: expected an integer, got "banana"|};
      expect_400 srv "/sweep?network=ring:2"
        {|network "ring:2": size out of range [3, 4096]|};
      expect_400 srv "/sweep?network=ring:x" {|network "ring:x": bad size|};
      expect_400 srv "/sweep?rates=0" "rate 0 must be positive";
      expect_400 srv "/simulate?rate=inf" {|rate: bad rate "inf"|};
      expect_400 ~meth:"POST" ~body:"{not json" srv "/sweep"
        {|body is not JSON: Jsonx: expected '"' at offset 1|};
      expect_400 ~meth:"POST" ~body:"[1,2]" srv "/sweep"
        "body must be a JSON object")

(* A per-route rate above one packet per step is outside the model: the
   request is refused while it is parsed, for GET and POST alike, before
   the cache is consulted or any cell runs. *)
let serve_sweep_out_of_model_rate () =
  with_server (fun srv ->
      let ring8 = "rate 9 over 8 routes exceeds one packet per route per step"
      and line3 = "rate 2 over 1 route exceeds one packet per route per step" in
      expect_400 srv "/sweep?network=ring:8&rates=9&policy=fifo&horizon=100" ring8;
      expect_400 srv "/sweep?network=line:3&d=4&rates=2" line3;
      expect_400 ~meth:"POST"
        ~body:{|{"network":"ring:8","rates":[9],"policies":["fifo"],"horizon":100}|}
        srv "/sweep" ring8;
      expect_400 ~meth:"POST" ~body:{|{"network":"line:3","d":4,"rates":["2"]}|}
        srv "/sweep" line3;
      let m = (get srv "/metrics").Http.body in
      check_bool "no cache lookup" true
        (contains m "serve_cache_misses_total 0\n"
        && contains m "serve_cache_hits_total 0\n"))

(* The cache key of a sweep is a function of its spec alone; it must not
   move when the parsing code does. *)
let serve_sweep_key_pinned () =
  with_server (fun srv ->
      let r = get srv "/sweep?network=ring:8&rates=1/2&policy=fifo&horizon=100" in
      check_int "status" 200 r.Http.status;
      match Jsonx.member "key" (body_json r) with
      | Some (Jsonx.Str key) ->
          check_string "cache key" "9b241987bd8828daf17978d8dcc77f98" key
      | _ -> Alcotest.fail "no key in response")

let serve_experiment_cached () =
  with_server ~registry:(test_registry ()) (fun srv ->
      check_int "unknown experiment" 404 (get srv "/experiment/nope").Http.status;
      let cold = get srv "/experiment/tiny" in
      check_int "cold status" 200 cold.Http.status;
      check_bool "cold computes" false (cached_flag cold);
      check_bool "result payload carries metrics" true
        (contains cold.Http.body "answer");
      let warm = get srv "/experiment/tiny" in
      check_bool "warm is a cache hit" true (cached_flag warm))

let serve_figure () =
  with_server ~figures:[ test_figure ] (fun srv ->
      check_int "unknown figure" 404 (get srv "/figure/nope").Http.status;
      let r = get srv "/figure/unit" in
      check_int "status" 200 r.Http.status;
      check_bool "svg content type" true
        (List.assoc_opt "content-type" r.Http.resp_headers
        = Some "image/svg+xml");
      check_bool "svg body" true (String.starts_with ~prefix:"<svg" r.Http.body);
      let again = get srv "/figure/unit" in
      check_string "memoized render is identical" r.Http.body again.Http.body)

let serve_simulate_seeded () =
  with_server (fun srv ->
      let path =
        "/simulate?network=ring:6&policy=fifo&rate=1/4&horizon=500&seed=11"
      in
      let a = get srv path and b = get srv path in
      check_int "status" 200 a.Http.status;
      check_string "same seed, same run" a.Http.body b.Http.body;
      (match Jsonx.member "injected" (body_json a) with
      | Some (Jsonx.Int n) -> check_bool "injected packets" true (n > 0)
      | _ -> Alcotest.fail "no injected field");
      (* Without a seed the worker draws one from its own stream and
         reports it. *)
      let r = get srv "/simulate?horizon=200" in
      match Jsonx.member "seed" (body_json r) with
      | Some (Jsonx.Int _) -> ()
      | _ -> Alcotest.fail "no seed reported")

(* The cheapest admitted endpoint: /healthz is fast-path (bypasses
   admission), so capacity tests drive a tiny seeded /simulate. *)
let sim_tiny_path = "/simulate?network=ring:6&policy=fifo&rate=1/4&horizon=200&seed=3"

(* Below capacity: an admissible client stream is never shed (the serving
   layer's Theorem 4.1 analogue). *)
let serve_below_capacity () =
  with_server ~rho:10_000. ~sigma:100 (fun srv ->
      let statuses =
        List.concat_map Domain.join
          (List.init 3 (fun _ ->
               Domain.spawn (fun () ->
                   List.init 10 (fun _ -> (get srv sim_tiny_path).Http.status))))
      in
      check_int "every request answered 200" 30
        (List.length (List.filter (Int.equal 200) statuses)))

(* Above capacity: bounded shedding, no hangs, queue bounded by sigma. *)
let serve_above_capacity () =
  with_server ~rho:25. ~sigma:5 (fun srv ->
      let statuses =
        List.init 60 (fun _ ->
            match
              Http.request ~timeout:10. ~port:(Server.port srv) sim_tiny_path
            with
            | Ok r -> r.Http.status
            | Error _ -> -1)
      in
      let n s = List.length (List.filter (Int.equal s) statuses) in
      check_int "no hangs or dropped responses" 0 (n (-1));
      check_bool "some served" true (n 200 > 0);
      check_bool "some shed with 429" true (n 429 > 0);
      check_bool "nothing but 200/429/503" true
        (List.for_all (fun s -> s = 200 || s = 429 || s = 503) statuses);
      let m = Server.metrics srv in
      check_bool "shed counter matches" true
        (Metrics.counter_value (Metrics.counter m "serve_shed_total") = n 429);
      check_bool "queue peak bounded by sigma" true
        (Metrics.gauge_peak (Metrics.gauge m "serve_queue_depth") <= 5.))

(* Write [bytes] on a fresh connection, optionally half-close it, and
   return everything the daemon sends before it closes; [None] if it
   neither answers nor closes within the receive deadline. *)
let raw_exchange ?(half_close = false) srv bytes =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> close_quietly fd)
    (fun () ->
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 8.;
      Unix.setsockopt_float fd Unix.SO_SNDTIMEO 8.;
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port srv));
      (* The daemon may answer and hang up before it has read everything. *)
      (try ignore (Unix.write_substring fd bytes 0 (String.length bytes))
       with Unix.Unix_error _ -> ());
      if half_close then (
        try Unix.shutdown fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
      let buf = Bytes.create 4096 and out = Buffer.create 256 in
      let rec drain () =
        match Unix.read fd buf 0 4096 with
        | 0 -> Some (Buffer.contents out)
        | n ->
            Buffer.add_subbytes out buf 0 n;
            drain ()
        | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
            Some (Buffer.contents out)
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            None (* deadline expired: the server hung on us *)
      in
      drain ())

(* Malformed-request fuzz: random garbage must never hang a worker or kill
   the daemon — every connection ends in a response or a clean close. *)
let serve_malformed_fuzz () =
  with_server (fun srv ->
      let rng = Prng.create 0xF022 in
      for case = 1 to 12 do
        let len = Prng.int rng 200 in
        let bytes =
          String.init len (fun _ ->
              (* bias toward structure so some cases get past the first
                 line: spaces, CRLF, header-ish colons *)
              match Prng.int rng 6 with
              | 0 -> ' '
              | 1 -> '\r'
              | 2 -> '\n'
              | 3 -> ':'
              | _ -> Char.chr (Prng.int rng 256))
        in
        check_bool
          (Printf.sprintf "fuzz case %d terminates" case)
          true
          (raw_exchange ~half_close:true srv bytes <> None)
      done;
      (* the daemon survived all of it *)
      check_int "still alive" 200 (get srv "/healthz").Http.status)

let read_errors srv =
  Metrics.counter_value (Metrics.counter (Server.metrics srv) "serve_read_errors_total")

(* EOF in the middle of a head: nothing to answer, so the daemon closes
   without a response and counts one read error. *)
let serve_truncated_request () =
  with_server (fun srv ->
      let before = read_errors srv in
      Alcotest.(check (option string))
        "closed with no response" (Some "")
        (raw_exchange ~half_close:true srv "GET /healthz HTTP/1.1\r\nHost: h\r\n");
      check_int "one read error" (before + 1) (read_errors srv))

(* A head that stops arriving: once the read deadline passes the daemon
   answers 408 and hangs up. *)
let serve_stalled_request () =
  with_server ~read_timeout:0.2 (fun srv ->
      let before = read_errors srv in
      let answer =
        Option.value ~default:"(hung)"
          (raw_exchange srv "GET /healthz HTTP/1.1\r\nHost: h\r\n")
      in
      check_bool "answered 408" true
        (String.starts_with ~prefix:"HTTP/1.1 408 " answer);
      check_bool "and closed" true (contains answer "Connection: close\r\n");
      check_int "one read error" (before + 1) (read_errors srv))

(* Graceful shutdown: in-flight requests complete, then the port closes. *)
let serve_graceful_drain () =
  let srv = boot () in
  let port = Server.port srv in
  let m = Server.metrics srv in
  let accepted = Metrics.counter m "serve_requests_total" in
  let before = Metrics.counter_value accepted in
  let client =
    Domain.spawn (fun () ->
        Http.request ~timeout:10. ~port
          "/simulate?network=ring:8&policy=fifo&rate=1/4&horizon=200000&seed=3")
  in
  let deadline = Unix.gettimeofday () +. 5. in
  while
    Metrics.counter_value accepted <= before
    && Unix.gettimeofday () < deadline
  do
    Unix.sleepf 0.002
  done;
  Server.request_stop srv;
  (match Domain.join client with
  | Ok r ->
      check_int "in-flight request completed" 200 r.Http.status;
      check_bool "with a full body" true (String.length r.Http.body > 0)
  | Error e -> Alcotest.failf "in-flight request failed: %s" e);
  Server.wait srv;
  check_bool "stopped" true (Server.stopped srv);
  (match Http.request ~timeout:2. ~port "/healthz" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "port should be closed after shutdown");
  Server.stop srv (* idempotent *)

(* The daemon journals Snapshot events with its metrics. *)
let serve_journal_snapshot () =
  let dir = temp_dir () in
  let srv =
    Server.start
      {
        Server.default_config with
        Server.port = 0;
        workers = 1;
        rho = 10_000.;
        sigma = 100;
        read_timeout = 2.;
        write_timeout = 2.;
        campaign_dir = dir;
        snapshot_every = 3600.;
        journal = true;
        quiet = true;
      }
  in
  ignore (get srv "/healthz");
  Server.stop srv;
  match Journal.files ~dir with
  | [] -> Alcotest.fail "no journal written"
  | file :: _ -> (
      let events = Journal.load file in
      match
        List.filter_map
          (function
            | Journal.Snapshot { label; values; _ } -> Some (label, values)
            | _ -> None)
          events
      with
      | [] -> Alcotest.fail "no snapshot event"
      | (label, values) :: _ ->
          check_string "label" "serve.metrics" label;
          check_bool "request counter in snapshot" true
            (List.assoc_opt "serve_requests_total" values = Some 1.))

(* ------------------------------------------------------------------ *)
(* Incremental parser: pipelined requests, arbitrary chunk boundaries  *)
(* ------------------------------------------------------------------ *)

(* Feed [wire] through [feed] in chunks whose lengths cycle through
   [cuts], calling [drain] after each chunk. *)
let feed_in_cuts cuts wire ~feed ~drain =
  let cuts = if cuts = [] then [ 1 ] else cuts in
  let pos = ref 0 and ci = ref 0 in
  while !pos < String.length wire do
    let len =
      min (List.nth cuts (!ci mod List.length cuts)) (String.length wire - !pos)
    in
    feed (String.sub wire !pos len);
    pos := !pos + len;
    incr ci;
    drain ()
  done

let cuts_arb = QCheck.list (QCheck.int_range 1 13)

let specs_arb =
  QCheck.list_of_size (QCheck.Gen.int_range 1 5)
    (QCheck.pair (QCheck.int_range 0 3) (QCheck.int_range 0 60))

(* Whatever the read boundaries, a pipelined byte stream must parse
   into exactly the requests that were encoded, in order. *)
let parser_chunking_qcheck =
  QCheck.Test.make ~name:"pipelined parse is chunking-invariant" ~count:200
    (QCheck.pair specs_arb cuts_arb)
    (fun (specs, cuts) ->
      let reqs =
        List.mapi
          (fun i (kind, n) ->
            let path = Printf.sprintf "/p%d?i=%d" kind i in
            match kind with
            | 0 -> ("GET", path, None, [])
            | 1 -> ("POST", path, Some (String.make n 'b'), [])
            | 2 -> ("GET", path, None, [ ("x-pad", String.make n 'x') ])
            | _ -> ("HEAD", path, None, []))
          specs
      in
      let wire =
        String.concat ""
          (List.map
             (fun (meth, path, body, req_headers) ->
               Http.encode_request ~meth ~req_headers ?body path)
             reqs)
      in
      let p = Http.Parser.create () in
      let parsed = ref [] in
      let drain () =
        let continue = ref true in
        while !continue do
          match Http.Parser.next p with
          | `Request r -> parsed := r :: !parsed
          | `Await -> continue := false
          | `Error e ->
              QCheck.Test.fail_reportf "parse error: %s"
                (Http.error_to_string e)
        done
      in
      feed_in_cuts cuts wire ~feed:(Http.Parser.feed_string p) ~drain;
      let parsed = List.rev !parsed in
      List.length parsed = List.length reqs
      && List.for_all2
           (fun (meth, _, body, _) (r : Http.request) ->
             r.Http.meth = meth
             && r.Http.body = Option.value body ~default:""
             && String.starts_with ~prefix:"/p" r.Http.path)
           reqs parsed)

(* The same for responses, as a pipelining client reads them: HEAD
   answers among them announce a body they do not carry, and the reader
   says which ones they are with [~head:true]. *)
let rparser_chunking_qcheck =
  QCheck.Test.make ~name:"pipelined response parse is chunking-invariant"
    ~count:200
    (QCheck.pair specs_arb cuts_arb)
    (fun (specs, cuts) ->
      let resps =
        List.map
          (fun (kind, n) ->
            let body = String.make n 'b' in
            match kind with
            | 0 -> (200, [], false, body)
            | 1 -> (404, [ ("X-Pad", String.make n 'x') ], false, body)
            | 2 -> (503, [ ("Retry-After", "1") ], false, body)
            | _ -> (200, [], true, body))
          specs
      in
      let wire =
        String.concat ""
          (List.map
             (fun (status, headers, head_only, body) ->
               Http.encode_response ~headers ~head_only ~keep_alive:true
                 ~status ~body ())
             resps)
      in
      let rp = Http.Rparser.create () in
      let parsed = ref [] and expected = ref resps in
      let drain () =
        let continue = ref true in
        while !continue do
          let head = match !expected with (_, _, h, _) :: _ -> h | [] -> false in
          match Http.Rparser.next ~head rp with
          | `Response r ->
              parsed := r :: !parsed;
              expected := (match !expected with _ :: tl -> tl | [] -> [])
          | `Await -> continue := false
          | `Error e ->
              QCheck.Test.fail_reportf "parse error: %s"
                (Http.error_to_string e)
        done
      in
      feed_in_cuts cuts wire ~feed:(Http.Rparser.feed_string rp) ~drain;
      let parsed = List.rev !parsed in
      Http.Rparser.buffered rp = 0
      && List.length parsed = List.length resps
      && List.for_all2
           (fun (status, _, head_only, body) (r : Http.response) ->
             r.Http.status = status
             && r.Http.body = (if head_only then "" else body)
             && List.assoc_opt "content-length" r.Http.resp_headers
                = Some (string_of_int (String.length body)))
           resps parsed)

(* ------------------------------------------------------------------ *)
(* Timer wheel (fake clock)                                            *)
(* ------------------------------------------------------------------ *)

module Timewheel = Aqt_serve.Timewheel

let timewheel_fires_by_deadline () =
  let w = Timewheel.create ~slots:16 ~tick:0.1 ~now:0. () in
  Timewheel.add w ~deadline:0.25 "late";
  Timewheel.add w ~deadline:0.05 "early";
  Timewheel.add w ~deadline:10.0 "far";
  check_int "three pending" 3 (Timewheel.pending w);
  let fired = ref [] in
  let adv now = Timewheel.advance w ~now (fun x -> fired := x :: !fired) in
  adv 0.1;
  check_bool "only the early deadline fired" true (!fired = [ "early" ]);
  adv 0.3;
  check_bool "then the late one" true (!fired = [ "late"; "early" ]);
  (* An entry beyond the wheel's span recirculates until its time. *)
  adv 9.9;
  check_bool "far future not fired early" false (List.mem "far" !fired);
  check_int "still parked" 1 (Timewheel.pending w);
  adv 10.1;
  check_bool "fires once due" true (List.mem "far" !fired);
  check_int "empty" 0 (Timewheel.pending w)

let timewheel_same_slot_order () =
  let w = Timewheel.create ~slots:8 ~tick:1.0 ~now:0. () in
  for i = 1 to 20 do
    Timewheel.add w ~deadline:(float_of_int i *. 0.049) i
  done;
  let fired = ref [] in
  Timewheel.advance w ~now:0.5 (fun x -> fired := x :: !fired);
  check_int "partial batch" 10 (List.length !fired);
  Timewheel.advance w ~now:2.0 (fun x -> fired := x :: !fired);
  check_int "the rest" 20 (List.length !fired);
  check_int "nothing pending" 0 (Timewheel.pending w)

let timewheel_rearm_during_advance () =
  (* Regression: a fire callback that re-arms with an already-due deadline
     used to file against the stale hand, landing in a slot the sweep had
     already drained — and firing one full wheel revolution late.  The
     re-armed deadline hashes into the very slot being drained, the
     nastiest case: it must fire in this advance. *)
  let w = Timewheel.create ~slots:8 ~tick:1.0 ~now:0. () in
  let fired = ref [] in
  Timewheel.add w ~deadline:0.2 "first";
  Timewheel.advance w ~now:0.5 (fun x ->
      fired := x :: !fired;
      if x = "first" then Timewheel.add w ~deadline:0.4 "rearmed");
  check_bool "re-armed due entry fires in the same advance" true
    (!fired = [ "rearmed"; "first" ]);
  check_int "nothing left behind" 0 (Timewheel.pending w);
  (* A re-arm into a future slot of the same sweep also fires now... *)
  let fired = ref [] in
  Timewheel.add w ~deadline:1.2 "a";
  Timewheel.advance w ~now:3.5 (fun x ->
      fired := x :: !fired;
      if x = "a" then Timewheel.add w ~deadline:2.5 "b");
  check_bool "chained deadline crossed later in the sweep" true
    (!fired = [ "b"; "a" ]);
  (* ...while a re-arm beyond [now] waits for its own slot, exactly one
     slot boundary away, not a revolution away. *)
  let fired = ref [] in
  Timewheel.add w ~deadline:4.2 "c";
  Timewheel.advance w ~now:4.5 (fun x ->
      fired := x :: !fired;
      if x = "c" then Timewheel.add w ~deadline:4.8 "d");
  check_bool "not-yet-due re-arm does not fire early" true (!fired = [ "c" ]);
  Timewheel.advance w ~now:5.1 (fun x -> fired := x :: !fired);
  check_bool "and fires at the next slot boundary, not a revolution late"
    true
    (!fired = [ "d"; "c" ])

let timewheel_fire_order_at_slot_boundary () =
  (* Deadlines straddling a slot boundary, advanced exactly onto the
     boundary: the earlier slot's entry fires, the later slot's does not,
     even though both live one tick apart. *)
  let w = Timewheel.create ~slots:4 ~tick:1.0 ~now:0. () in
  let fired = ref [] in
  Timewheel.add w ~deadline:0.9 "before";
  Timewheel.add w ~deadline:1.0 "on";
  Timewheel.add w ~deadline:1.1 "after";
  Timewheel.advance w ~now:1.0 (fun x -> fired := x :: !fired);
  check_bool "boundary advance fires up to and including now" true
    (List.sort compare !fired = [ "before"; "on" ]);
  Timewheel.advance w ~now:2.0 (fun x -> fired := x :: !fired);
  check_bool "next tick collects the remainder" true
    (List.sort compare !fired = [ "after"; "before"; "on" ]);
  check_int "drained" 0 (Timewheel.pending w)

(* ------------------------------------------------------------------ *)
(* Keyed buckets: per-client isolation and LRU eviction (fake clock)   *)
(* ------------------------------------------------------------------ *)

let keyed_bucket_isolation () =
  let now = ref 0. in
  let kb = Bucket.Keyed.create ~now:(fun () -> !now) ~rho:1. ~sigma:2 () in
  check_bool "a bursts sigma" true
    (Bucket.Keyed.try_take kb "a" && Bucket.Keyed.try_take kb "a");
  check_bool "a exhausted" false (Bucket.Keyed.try_take kb "a");
  check_bool "b unaffected by a's exhaustion" true
    (Bucket.Keyed.try_take kb "b" && Bucket.Keyed.try_take kb "b");
  check_bool "b exhausted independently" false (Bucket.Keyed.try_take kb "b");
  now := 1.;
  check_bool "a refills at rho" true (Bucket.Keyed.try_take kb "a");
  check_bool "one token only" false (Bucket.Keyed.try_take kb "a");
  check_int "two live keys" 2 (Bucket.Keyed.keys kb)

let keyed_bucket_lru_eviction () =
  let now = ref 0. in
  let kb =
    Bucket.Keyed.create ~now:(fun () -> !now) ~max_entries:2 ~rho:0.001
      ~sigma:1 ()
  in
  ignore (Bucket.Keyed.try_take kb "a");
  now := 1.;
  ignore (Bucket.Keyed.try_take kb "b");
  now := 2.;
  check_bool "a exhausted (and freshly used)" false
    (Bucket.Keyed.try_take kb "a");
  now := 3.;
  (* Table is full: c's arrival evicts the least-recently-used key, b. *)
  check_bool "c admitted into a fresh bucket" true
    (Bucket.Keyed.try_take kb "c");
  check_int "bounded at max_entries" 2 (Bucket.Keyed.keys kb);
  now := 4.;
  check_bool "a survived that eviction: still exhausted" false
    (Bucket.Keyed.try_take kb "a");
  now := 5.;
  check_bool "c spent its only token" false (Bucket.Keyed.try_take kb "c");
  now := 6.;
  (* b's return is itself an insertion into a full table, evicting the
     least-recently-used of {a, c} — a.  Forgetting a's debt is the
     price of keeping the table bounded. *)
  check_bool "b was evicted: returns with a full bucket" true
    (Bucket.Keyed.try_take kb "b");
  now := 7.;
  check_bool "a's eviction reset its debt" true (Bucket.Keyed.try_take kb "a");
  check_int "still bounded" 2 (Bucket.Keyed.keys kb)

(* ------------------------------------------------------------------ *)
(* Keep-alive and pipelining against a live daemon                     *)
(* ------------------------------------------------------------------ *)

(* Three requests written back to back in one burst; three responses
   must come back in order on the same connection, which stays open for
   a fourth. *)
let serve_pipelined_burst () =
  with_server (fun srv ->
      let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> close_quietly fd)
        (fun () ->
          Unix.setsockopt_float fd Unix.SO_RCVTIMEO 8.;
          Unix.connect fd
            (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port srv));
          (* No HEAD here: its answer carries Content-Length but no body,
             so the reader must say which answer is a HEAD's; the
             keep-alive test and the response property cover that. *)
          let wire =
            Http.encode_request "/healthz"
            ^ Http.encode_request "/"
            ^ Http.encode_request "/nope"
          in
          ignore (Unix.write_substring fd wire 0 (String.length wire));
          let rp = Http.Rparser.create () in
          let buf = Bytes.create 4096 in
          let responses = ref [] in
          let deadline = Unix.gettimeofday () +. 8. in
          while
            List.length !responses < 3 && Unix.gettimeofday () < deadline
          do
            (match Unix.read fd buf 0 4096 with
            | 0 -> Alcotest.fail "server closed a keep-alive connection"
            | n -> Http.Rparser.feed rp buf 0 n
            | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
              ->
                ());
            let continue = ref true in
            while !continue do
              match Http.Rparser.next rp with
              | `Response r -> responses := r :: !responses
              | `Await -> continue := false
              | `Error e ->
                  Alcotest.failf "response parse: %s" (Http.error_to_string e)
            done
          done;
          match List.rev !responses with
          | [ a; b; c ] ->
              check_int "first 200" 200 a.Http.status;
              check_string "first body in order" "ok\n" a.Http.body;
              check_int "second 200" 200 b.Http.status;
              check_bool "second is the index" true (contains b.Http.body "/sweep");
              check_int "third answered in order" 404 c.Http.status;
              check_string "third body" "not found\n" c.Http.body;
              check_bool "keep-alive advertised" true
                (List.assoc_opt "connection" a.Http.resp_headers
                = Some "keep-alive");
              (* the connection is still usable *)
              let wire = Http.encode_request "/healthz" in
              ignore (Unix.write_substring fd wire 0 (String.length wire));
              let rec read_one () =
                match Http.Rparser.next rp with
                | `Response r -> r
                | `Await ->
                    (match Unix.read fd buf 0 4096 with
                    | 0 -> Alcotest.fail "closed before fourth response"
                    | n -> Http.Rparser.feed rp buf 0 n);
                    read_one ()
                | `Error e ->
                    Alcotest.failf "fourth response: %s"
                      (Http.error_to_string e)
              in
              check_int "fourth request on the same connection" 200
                (read_one ()).Http.status
          | l -> Alcotest.failf "expected 3 responses, got %d" (List.length l)))

let serve_client_reuse_counts_one_conn () =
  with_server (fun srv ->
      let m = Server.metrics srv in
      let conns = Metrics.counter m "serve_connections_total" in
      let before = Metrics.counter_value conns in
      (match Http.Client.connect ~port:(Server.port srv) () with
      | Error e -> Alcotest.failf "connect: %s" e
      | Ok cl ->
          (* HEAD answers interleave with GETs: each announces a length
             it does not send, so a misframed one would eat the next. *)
          for i = 1 to 10 do
            let meth = if i mod 2 = 0 then "HEAD" else "GET" in
            match Http.Client.request cl ~meth "/healthz" with
            | Ok r ->
                check_int (Printf.sprintf "request %d" i) 200 r.Http.status;
                check_string (Printf.sprintf "%s %d body" meth i)
                  (if meth = "HEAD" then "" else "ok\n")
                  r.Http.body;
                check_bool (Printf.sprintf "%s %d keeps content-length" meth i)
                  true
                  (List.assoc_opt "content-length" r.Http.resp_headers
                  = Some "3")
            | Error e -> Alcotest.failf "request %d: %s" i e
          done;
          Http.Client.close cl);
      check_int "ten requests, one accept" (before + 1)
        (Metrics.counter_value conns))

(* Per-client admission: one client's burst must not spend another's
   budget.  Keyed on the x-client-id header so one loopback peer can
   impersonate two clients. *)
let serve_per_client_isolation () =
  let srv =
    Server.start
      {
        Server.default_config with
        Server.port = 0;
        workers = 2;
        rho = 10_000.;
        sigma = 100;
        client_rho = 5.;
        client_sigma = 2;
        client_key_header = "x-client-id";
        read_timeout = 2.;
        write_timeout = 2.;
        campaign_dir = temp_dir ();
        snapshot_every = 0.;
        journal = false;
        quiet = true;
      }
  in
  Fun.protect
    ~finally:(fun () -> Server.stop srv)
    (fun () ->
      let ask id =
        match
          Http.request ~timeout:10. ~req_headers:[ ("x-client-id", id) ]
            ~port:(Server.port srv) sim_tiny_path
        with
        | Ok r -> r.Http.status
        | Error e -> Alcotest.failf "client %s: %s" id e
      in
      let noisy = List.init 10 (fun _ -> ask "noisy") in
      let n s = List.length (List.filter (Int.equal s) noisy) in
      check_bool "noisy client sheds beyond its own (rho,sigma)" true
        (n 429 > 0 && n 200 >= 2);
      check_int "quiet client has its own full budget" 200 (ask "quiet");
      let m = Server.metrics srv in
      check_bool "sheds charged to the client layer" true
        (Metrics.counter_value
           (Metrics.counter m "serve_shed_client_total")
        = n 429))

(* Fast-path endpoints bypass admission entirely: liveness probes and
   metrics scrapes must answer 200 even when the buckets are drained and
   every admitted endpoint sheds. *)
let serve_fast_path_bypasses_admission () =
  with_server ~rho:0.01 ~sigma:1 (fun srv ->
      check_int "the single token admits one request" 200
        (get srv sim_tiny_path).Http.status;
      check_int "the drained bucket sheds the next" 429
        (get srv sim_tiny_path).Http.status;
      List.iter
        (fun p ->
          check_int (p ^ " answers 200 while shedding") 200
            (get srv p).Http.status)
        [ "/healthz"; "/metrics"; "/" ])

(* An endpoint-layer shed must refund the client token: aggregate
   overload does not charge a client that stayed inside its own
   (rho,sigma) envelope. *)
let serve_endpoint_shed_refunds_client () =
  let srv =
    Server.start
      {
        Server.default_config with
        Server.port = 0;
        workers = 2;
        rho = 0.01;
        sigma = 1;
        client_rho = 5.;
        client_sigma = 2;
        read_timeout = 2.;
        write_timeout = 2.;
        campaign_dir = temp_dir ();
        snapshot_every = 0.;
        journal = false;
        quiet = true;
      }
  in
  Fun.protect
    ~finally:(fun () -> Server.stop srv)
    (fun () ->
      let statuses =
        List.init 4 (fun _ -> (get srv sim_tiny_path).Http.status)
      in
      (* One endpoint token, client_sigma = 2: without the refund the
         client bucket would drain by request 3 and start charging the
         client layer. *)
      check_bool "first admitted, rest shed at the endpoint" true
        (statuses = [ 200; 429; 429; 429 ]);
      let m = Server.metrics srv in
      check_int "no shed charged to the client layer" 0
        (Metrics.counter_value (Metrics.counter m "serve_shed_client_total"));
      check_int "all sheds charged to the endpoint bucket" 3
        (Metrics.counter_value (Metrics.counter m "serve_shed_total")))

(* ------------------------------------------------------------------ *)
(* Load generator                                                      *)
(* ------------------------------------------------------------------ *)

module Loadgen = Aqt_serve.Loadgen

(* Quantiles of the loadgen's histogram against a known distribution:
   10k uniform samples over (0,1] interpolate to exact quantiles. *)
let loadgen_percentiles_known_distribution () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "loadgen_request_seconds" in
  for i = 1 to 10_000 do
    Metrics.observe h (float_of_int i /. 10_000.)
  done;
  let close label expect got =
    check_bool
      (Printf.sprintf "%s: |%.4f - %.4f| < 0.01" label got expect)
      true
      (Float.abs (got -. expect) < 0.01)
  in
  close "p50" 0.5 (Metrics.quantile h 0.50);
  close "p99" 0.99 (Metrics.quantile h 0.99);
  close "p999" 0.999 (Metrics.quantile h 0.999);
  let snap = Metrics.snapshot m in
  check_bool "p999 series exported in snapshots" true
    (List.mem_assoc "loadgen_request_seconds_p999" snap)

let loadgen_closed_loop_smoke () =
  with_server ~rho:1_000_000. ~sigma:1000 (fun srv ->
      let r =
        Loadgen.run
          {
            Loadgen.default_config with
            Loadgen.port = Server.port srv;
            conns = 8;
            requests = 2_000;
            pipeline = 4;
          }
      in
      check_int "every request completed" 2_000 r.Loadgen.completed;
      check_int "no errors" 0 r.Loadgen.errors;
      check_int "all admitted under a huge budget" 2_000 r.Loadgen.ok;
      check_bool "quantiles ordered" true
        (r.Loadgen.p50 <= r.Loadgen.p99 && r.Loadgen.p99 <= r.Loadgen.p999);
      check_bool "throughput positive" true (r.Loadgen.throughput > 0.);
      check_bool "histogram counted every response" true
        (Metrics.histogram_count
           (Metrics.histogram r.Loadgen.metrics "loadgen_request_seconds")
        = 2_000))

let loadgen_open_loop_smoke () =
  with_server ~rho:1_000_000. ~sigma:1000 (fun srv ->
      let r =
        Loadgen.run
          {
            Loadgen.default_config with
            Loadgen.port = Server.port srv;
            conns = 8;
            requests = 600;
            mode = Loadgen.Open 2_000.;
          }
      in
      check_int "every scheduled request completed" 600 r.Loadgen.completed;
      check_int "no errors" 0 r.Loadgen.errors;
      (* 600 requests at 2000/s is ~0.3s of schedule *)
      check_bool "duration tracks the schedule" true
        (r.Loadgen.duration >= 0.25 && r.Loadgen.duration < 10.))

let loadgen_report_formats () =
  with_server ~rho:1_000_000. ~sigma:1000 (fun srv ->
      let r =
        Loadgen.run
          {
            Loadgen.default_config with
            Loadgen.port = Server.port srv;
            conns = 2;
            requests = 50;
          }
      in
      let csv = Loadgen.result_csv r in
      List.iter
        (fun key -> check_bool ("csv has " ^ key) true (contains csv key))
        [ "completed"; "throughput_rps"; "p50_s"; "p99_s"; "p999_s"; "shed" ];
      match Loadgen.result_json r with
      | Jsonx.Obj fields ->
          check_bool "json has quantiles" true
            (List.mem_assoc "p999" fields && List.mem_assoc "completed" fields)
      | _ -> Alcotest.fail "result_json should be an object")

let () =
  Alcotest.run "aqt_serve"
    [
      ( "http",
        [
          Alcotest.test_case "percent decode" `Quick http_percent_decode;
          Alcotest.test_case "query parsing" `Quick http_parse_query;
          Alcotest.test_case "request round-trip" `Quick http_request_roundtrip;
          Alcotest.test_case "post body" `Quick http_post_body;
          Alcotest.test_case "tolerances" `Quick http_tolerances;
          Alcotest.test_case "malformed inputs" `Quick http_malformed;
          Alcotest.test_case "size limits" `Quick http_limits;
          Alcotest.test_case "closed peer" `Quick http_closed;
          Alcotest.test_case "response writing" `Quick http_encode_response;
          QCheck_alcotest.to_alcotest parser_chunking_qcheck;
          QCheck_alcotest.to_alcotest rparser_chunking_qcheck;
        ] );
      ( "timewheel",
        [
          Alcotest.test_case "fires by deadline" `Quick
            timewheel_fires_by_deadline;
          Alcotest.test_case "same-slot batching" `Quick
            timewheel_same_slot_order;
          Alcotest.test_case "re-arm during advance" `Quick
            timewheel_rearm_during_advance;
          Alcotest.test_case "fire order at slot boundary" `Quick
            timewheel_fire_order_at_slot_boundary;
        ] );
      ( "bucket",
        [
          Alcotest.test_case "burst then refill" `Quick bucket_burst_then_refill;
          Alcotest.test_case "(rho,sigma) bound" `Quick bucket_rate_bound;
          Alcotest.test_case "refund clamped at sigma" `Quick
            bucket_refund_clamped;
          Alcotest.test_case "validation" `Quick bucket_validation;
          Alcotest.test_case "keyed isolation" `Quick keyed_bucket_isolation;
          Alcotest.test_case "keyed LRU eviction" `Quick
            keyed_bucket_lru_eviction;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counter and gauge" `Quick metrics_counter_and_gauge;
          Alcotest.test_case "kind mismatch" `Quick metrics_kind_mismatch;
          Alcotest.test_case "label families" `Quick metrics_label_family;
          Alcotest.test_case "histogram" `Quick metrics_histogram;
          Alcotest.test_case "snapshot" `Quick metrics_snapshot;
        ] );
      ( "server",
        [
          Alcotest.test_case "basic endpoints" `Quick serve_basic_endpoints;
          Alcotest.test_case "metrics endpoint" `Quick serve_metrics_endpoint;
          Alcotest.test_case "sweep cache" `Quick serve_sweep_cached;
          Alcotest.test_case "sweep rejects bad params" `Quick
            serve_sweep_rejects;
          Alcotest.test_case "experiment cache" `Quick serve_experiment_cached;
          Alcotest.test_case "figure render" `Quick serve_figure;
          Alcotest.test_case "simulate seeded" `Quick serve_simulate_seeded;
          Alcotest.test_case "below capacity all 200" `Quick
            serve_below_capacity;
          Alcotest.test_case "above capacity bounded shed" `Quick
            serve_above_capacity;
          Alcotest.test_case "malformed fuzz" `Quick serve_malformed_fuzz;
          Alcotest.test_case "truncated request closes silently" `Quick
            serve_truncated_request;
          Alcotest.test_case "stalled request answers 408" `Quick
            serve_stalled_request;
          Alcotest.test_case "graceful drain" `Quick serve_graceful_drain;
          Alcotest.test_case "journal snapshot" `Quick serve_journal_snapshot;
          Alcotest.test_case "pipelined burst in order" `Quick
            serve_pipelined_burst;
          Alcotest.test_case "keep-alive reuse" `Quick
            serve_client_reuse_counts_one_conn;
          Alcotest.test_case "per-client isolation" `Quick
            serve_per_client_isolation;
          Alcotest.test_case "fast path bypasses admission" `Quick
            serve_fast_path_bypasses_admission;
          Alcotest.test_case "endpoint shed refunds client token" `Quick
            serve_endpoint_shed_refunds_client;
          Alcotest.test_case "sweep rejects out-of-model rates" `Quick
            serve_sweep_out_of_model_rate;
          Alcotest.test_case "sweep cache key pinned" `Quick
            serve_sweep_key_pinned;
        ] );
      ( "loadgen",
        [
          Alcotest.test_case "percentiles vs known distribution" `Quick
            loadgen_percentiles_known_distribution;
          Alcotest.test_case "closed-loop smoke" `Quick
            loadgen_closed_loop_smoke;
          Alcotest.test_case "open-loop smoke" `Quick loadgen_open_loop_smoke;
          Alcotest.test_case "report formats" `Quick loadgen_report_formats;
        ] );
    ]
