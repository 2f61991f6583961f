module Prng = Aqt_util.Prng
module Jsonx = Aqt_util.Jsonx
module Journal = Aqt_harness.Journal
module Clock = Aqt_util.Clock

type mode = Closed | Open of float

type config = {
  host : string;
  port : int;
  conns : int;
  requests : int;
  mode : mode;
  pipeline : int;
  paths : (int * string) list;
  seed : int;
  run_timeout : float;
  quiet : bool;
  snapshot_every : float;
}

(* Empirical web-search-style flow CDF (heavy tail), rescaled to header
   padding bytes.  Mirrors the shape of the DCTCP websearch workload:
   most exchanges are tiny, a thin tail is ~two orders larger. *)
let flow_cdf =
  [
    (0.40, 0);
    (0.60, 64);
    (0.72, 128);
    (0.82, 256);
    (0.90, 512);
    (0.95, 1024);
    (0.98, 2048);
    (1.00, 4096);
  ]

let default_config =
  {
    host = "127.0.0.1";
    port = 8080;
    conns = 16;
    requests = 10_000;
    mode = Closed;
    pipeline = 4;
    paths = [ (1, "/healthz") ];
    seed = 0x10AD;
    run_timeout = 300.;
    quiet = true;
    snapshot_every = 0.;
  }

type result = {
  issued : int;
  completed : int;
  errors : int;
  ok : int;  (** 200s *)
  shed : int;  (** 429s *)
  rejected : int;  (** 503s *)
  duration : float;
  throughput : float;
  p50 : float;
  p99 : float;
  p999 : float;
  metrics : Metrics.t;
  snapshots : (float * (string * float) list) list;
}

(* ------------------------------------------------------------------ *)
(* Workload draws                                                      *)
(* ------------------------------------------------------------------ *)

let pick_path rng paths =
  let total = List.fold_left (fun acc (w, _) -> acc + max 0 w) 0 paths in
  if total <= 0 then "/healthz"
  else
    let x = Prng.int rng total in
    let rec go acc = function
      | [] -> "/healthz"
      | (w, p) :: rest ->
          let acc = acc + max 0 w in
          if x < acc then p else go acc rest
    in
    go 0 paths

let draw_flow rng cdf =
  let u = Prng.float rng 1.0 in
  let rec go = function
    | [] -> 0
    | [ (_, sz) ] -> sz
    | (c, sz) :: rest -> if u <= c then sz else go rest
  in
  go cdf

(* ------------------------------------------------------------------ *)
(* Connection state                                                    *)
(* ------------------------------------------------------------------ *)

type cstate = {
  mutable fd : Unix.file_descr;
  mutable rp : Http.Rparser.t;
  mutable connected : bool;  (** nonblocking connect completed *)
  wq : string Queue.t;  (** encoded requests awaiting the socket *)
  mutable cur : string;
  mutable cur_off : int;
  sent : float Queue.t;  (** latency origins of outstanding requests *)
  mutable alive : bool;
}

type state = {
  cfg : config;
  addr : Unix.sockaddr;
  rng : Prng.t;
  slots : cstate option array;
  metrics : Metrics.t;
  latency : Metrics.histogram;
  errors_c : Metrics.counter;
  mutable issued : int;
  mutable completed : int;
  mutable errors : int;
  mutable ok : int;
  mutable shed : int;
  mutable rejected : int;
  mutable respawns : int;
}

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let open_conn st =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.set_nonblock fd;
  (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
  let connected =
    match Unix.connect fd st.addr with
    | () -> true
    | exception Unix.Unix_error ((Unix.EINPROGRESS | Unix.EWOULDBLOCK), _, _)
      ->
        false
  in
  {
    fd;
    rp = Http.Rparser.create ();
    connected;
    wq = Queue.create ();
    cur = "";
    cur_off = 0;
    sent = Queue.create ();
    alive = true;
  }

(* A dead connection takes its unanswered requests with it: they count
   as errors and are never re-issued (re-issuing would silently inflate
   the admitted rate the selftest checks against the (rho,sigma)
   envelope). *)
let kill_conn st i c =
  if c.alive then begin
    c.alive <- false;
    let lost = Queue.length c.sent in
    st.errors <- st.errors + lost;
    Metrics.inc ~by:lost st.errors_c;
    close_quietly c.fd;
    st.slots.(i) <- None
  end

let status_of st status =
  Metrics.inc
    (Metrics.counter st.metrics
       (Printf.sprintf "loadgen_responses_total{status=\"%d\"}" status)
       ~help:"Responses received, by status code.");
  match status with
  | 200 -> st.ok <- st.ok + 1
  | 429 -> st.shed <- st.shed + 1
  | 503 -> st.rejected <- st.rejected + 1
  | _ -> ()

let enqueue_request st c ~origin =
  let path = pick_path st.rng st.cfg.paths in
  let pad = draw_flow st.rng flow_cdf in
  let req_headers = if pad > 0 then [ ("x-pad", String.make pad 'x') ] else [] in
  Queue.push (Http.encode_request ~req_headers path) c.wq;
  Queue.push origin c.sent;
  st.issued <- st.issued + 1

let flush st i c =
  if c.alive && c.connected then begin
    let continue = ref true in
    while !continue && c.alive do
      if c.cur = "" then
        if Queue.is_empty c.wq then continue := false
        else begin
          c.cur <- Queue.pop c.wq;
          c.cur_off <- 0
        end;
      if !continue then
        match
          Unix.write_substring c.fd c.cur c.cur_off
            (String.length c.cur - c.cur_off)
        with
        | n ->
            c.cur_off <- c.cur_off + n;
            if c.cur_off >= String.length c.cur then begin
              c.cur <- "";
              c.cur_off <- 0
            end
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
          ->
            continue := false
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | exception Unix.Unix_error _ -> kill_conn st i c
    done
  end

let drain_responses st i c =
  let continue = ref true in
  while !continue && c.alive do
    match Http.Rparser.next c.rp with
    | `Await -> continue := false
    | `Response r ->
        (match Queue.pop c.sent with
        | origin ->
            st.completed <- st.completed + 1;
            status_of st r.Http.status;
            Metrics.observe st.latency (Clock.monotonic () -. origin)
        | exception Queue.Empty ->
            (* A response we never asked for: protocol desync. *)
            kill_conn st i c)
    | `Error _ -> kill_conn st i c
  done

let on_readable st rbuf i c =
  let continue = ref true in
  let budget = ref 262144 in
  while !continue && !budget > 0 && c.alive do
    match Unix.read c.fd rbuf 0 (Bytes.length rbuf) with
    | 0 ->
        (* Server closed (drain, idle expiry, or a close-after 503).
           Responses delivered in the same readable burst as the FIN —
           typical for Connection: close answers — are still buffered in
           the parser: count them before charging the remainder as
           errors. *)
        continue := false;
        drain_responses st i c;
        kill_conn st i c
    | n ->
        budget := !budget - n;
        Http.Rparser.feed c.rp rbuf 0 n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        continue := false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error _ ->
        continue := false;
        kill_conn st i c
  done;
  if c.alive then drain_responses st i c

let on_writable st i c =
  if c.alive && not c.connected then begin
    match Unix.getsockopt_error c.fd with
    | None -> c.connected <- true
    | Some _ -> kill_conn st i c
  end;
  if c.alive then flush st i c

(* ------------------------------------------------------------------ *)
(* The run loop                                                        *)
(* ------------------------------------------------------------------ *)

let max_outstanding_open = 64
let max_respawns_factor = 4

let run cfg =
  if cfg.conns < 1 then invalid_arg "Loadgen.run: conns must be >= 1";
  if cfg.requests < 1 then invalid_arg "Loadgen.run: requests must be >= 1";
  if cfg.pipeline < 1 then invalid_arg "Loadgen.run: pipeline must be >= 1";
  (match cfg.mode with
  | Open r when r <= 0. || not (Float.is_finite r) ->
      invalid_arg "Loadgen.run: open-loop rate must be positive"
  | _ -> ());
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let addr =
    Unix.ADDR_INET
      ( (try Unix.inet_addr_of_string cfg.host
         with Failure _ -> invalid_arg ("Loadgen.run: bad host " ^ cfg.host)),
        cfg.port )
  in
  let metrics = Metrics.create () in
  let st =
    {
      cfg;
      addr;
      rng = Prng.create cfg.seed;
      slots = Array.make cfg.conns None;
      metrics;
      latency =
        Metrics.histogram metrics "loadgen_request_seconds"
          ~help:"Client-observed request latency (send to full response).";
      errors_c =
        Metrics.counter metrics "loadgen_errors_total"
          ~help:"Requests that died without a complete response.";
      issued = 0;
      completed = 0;
      errors = 0;
      ok = 0;
      shed = 0;
      rejected = 0;
      respawns = 0;
    }
  in
  let open_gauge =
    Metrics.gauge metrics "loadgen_open_connections"
      ~help:"Live load-generator connections."
  in
  let ep = Evpoll.create () in
  let rbuf = Bytes.create 65536 in
  let start = Clock.monotonic () in
  let hard_deadline = start +. cfg.run_timeout in
  (* Open-loop send schedule: [sched] is the next intended send instant;
     instants that have come due but found every connection saturated
     wait in [due] and keep their original timestamp, so queueing delay
     at the generator still lands in the latency measurement
     (no coordinated omission). *)
  let sched = ref start in
  let due = Queue.create () in
  let next_report = ref (start +. 1.) in
  (* Periodic metric snapshots (elapsed seconds, registry dump) for the
     latency time-series figure; off when snapshot_every = 0. *)
  let snaps = ref [] in
  let next_snap =
    ref
      (if cfg.snapshot_every > 0. then start +. cfg.snapshot_every
       else Float.infinity)
  in
  let live_slots () =
    let n = ref 0 in
    Array.iter (function Some c when c.alive -> incr n | _ -> ()) st.slots;
    !n
  in
  let finished () =
    st.completed + st.errors >= cfg.requests
    || (st.issued >= cfg.requests && live_slots () = 0)
  in
  while (not (finished ())) && Clock.monotonic () < hard_deadline do
    (* Respawn dead slots while there is still work to issue. *)
    if st.issued < cfg.requests then
      Array.iteri
        (fun i -> function
          | Some _ -> ()
          | None ->
              if st.respawns < cfg.conns * max_respawns_factor then begin
                st.respawns <- st.respawns + 1;
                st.slots.(i) <- Some (open_conn st)
              end
              else begin
                (* The server is unreachable: charge the rest of the
                   budget to errors and stop retrying. *)
                let lost = cfg.requests - st.issued in
                st.issued <- cfg.requests;
                st.errors <- st.errors + lost;
                Metrics.inc ~by:lost st.errors_c
              end)
        st.slots;
    (* Issue requests. *)
    (match cfg.mode with
    | Closed ->
        Array.iteri
          (fun i -> function
            | Some c when c.alive && c.connected ->
                while
                  st.issued < cfg.requests
                  && Queue.length c.sent < cfg.pipeline
                do
                  enqueue_request st c ~origin:(Clock.monotonic ())
                done;
                flush st i c
            | _ -> ())
          st.slots
    | Open rate ->
        let now = Clock.monotonic () in
        let step = 1. /. rate in
        while !sched <= now && st.issued + Queue.length due < cfg.requests do
          Queue.push !sched due;
          sched := !sched +. step
        done;
        let slot = ref 0 in
        let tries = ref 0 in
        while (not (Queue.is_empty due)) && !tries < cfg.conns do
          (match st.slots.(!slot mod cfg.conns) with
          | Some c
            when c.alive && c.connected
                 && Queue.length c.sent < max_outstanding_open ->
              enqueue_request st c ~origin:(Queue.pop due);
              tries := 0
          | _ -> incr tries);
          incr slot
        done;
        Array.iteri
          (fun i -> function
            | Some c when c.alive -> flush st i c | _ -> ())
          st.slots);
    (* Retire connections that have nothing left to do. *)
    Array.iteri
      (fun i -> function
        | Some c
          when c.alive && st.issued >= cfg.requests
               && Queue.is_empty c.sent
               && Queue.is_empty c.wq
               && c.cur = "" ->
            c.alive <- false;
            close_quietly c.fd;
            st.slots.(i) <- None
        | _ -> ())
      st.slots;
    (* Poll. *)
    Evpoll.clear ep;
    Array.iter
      (function
        | Some c when c.alive ->
            let want_write =
              (not c.connected) || c.cur <> "" || not (Queue.is_empty c.wq)
            in
            let want_read = c.connected && not (Queue.is_empty c.sent) in
            if want_read || want_write then
              Evpoll.add ep c.fd ~read:want_read ~write:want_write
        | _ -> ())
      st.slots;
    let timeout_ms =
      match cfg.mode with
      | Closed -> 50
      | Open _ ->
          let now = Clock.monotonic () in
          if not (Queue.is_empty due) then 1
          else max 1 (min 50 (int_of_float (ceil ((!sched -. now) *. 1000.))))
    in
    if Evpoll.length ep > 0 then ignore (Evpoll.wait ep ~timeout_ms)
    else Unix.sleepf 0.001;
    let by_fd = Hashtbl.create (2 * cfg.conns) in
    Array.iteri
      (fun i -> function
        | Some c when c.alive -> Hashtbl.replace by_fd c.fd (i, c) | _ -> ())
      st.slots;
    Evpoll.iter_ready ep (fun fd ~readable ~writable ~error ->
        match Hashtbl.find_opt by_fd fd with
        | None -> ()
        | Some (i, c) ->
            if error then kill_conn st i c
            else begin
              if writable && c.alive then on_writable st i c;
              if readable && c.alive then on_readable st rbuf i c
            end);
    Metrics.set_gauge open_gauge (float_of_int (live_slots ()));
    (let now = Clock.monotonic () in
     if now >= !next_snap then begin
       snaps := (now -. start, Metrics.snapshot metrics) :: !snaps;
       next_snap := !next_snap +. cfg.snapshot_every
     end);
    if not cfg.quiet then begin
      let now = Clock.monotonic () in
      if now >= !next_report then begin
        next_report := now +. 1.;
        Printf.printf
          "loadgen: %d issued, %d completed, %d errors, %d conns, %.0f req/s\n\
           %!"
          st.issued st.completed st.errors (live_slots ())
          (float_of_int st.completed /. (now -. start))
      end
    end
  done;
  Array.iteri
    (fun i -> function Some c -> kill_conn st i c | None -> ())
    st.slots;
  (* Anything still unanswered at the deadline is an error. *)
  if st.completed + st.errors < st.issued then begin
    let lost = st.issued - st.completed - st.errors in
    st.errors <- st.errors + lost;
    Metrics.inc ~by:lost st.errors_c
  end;
  let duration = Float.max 1e-9 (Clock.monotonic () -. start) in
  if cfg.snapshot_every > 0. then
    snaps := (duration, Metrics.snapshot metrics) :: !snaps;
  {
    issued = st.issued;
    completed = st.completed;
    errors = st.errors;
    ok = st.ok;
    shed = st.shed;
    rejected = st.rejected;
    duration;
    throughput = float_of_int st.completed /. duration;
    p50 = Metrics.quantile st.latency 0.50;
    p99 = Metrics.quantile st.latency 0.99;
    p999 = Metrics.quantile st.latency 0.999;
    metrics;
    snapshots = List.rev !snaps;
  }

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let result_json (r : result) =
  Jsonx.Obj
    [
      ("issued", Jsonx.Int r.issued);
      ("completed", Jsonx.Int r.completed);
      ("errors", Jsonx.Int r.errors);
      ("ok", Jsonx.Int r.ok);
      ("shed", Jsonx.Int r.shed);
      ("rejected", Jsonx.Int r.rejected);
      ("duration", Jsonx.Float r.duration);
      ("throughput", Jsonx.Float r.throughput);
      ("p50", Jsonx.Float r.p50);
      ("p99", Jsonx.Float r.p99);
      ("p999", Jsonx.Float r.p999);
    ]

let result_csv (r : result) =
  Printf.sprintf
    "metric,value\n\
     issued,%d\n\
     completed,%d\n\
     errors,%d\n\
     ok,%d\n\
     shed,%d\n\
     rejected,%d\n\
     duration_s,%.6f\n\
     throughput_rps,%.1f\n\
     p50_s,%.6f\n\
     p99_s,%.6f\n\
     p999_s,%.6f\n"
    r.issued r.completed r.errors r.ok r.shed r.rejected r.duration
    r.throughput r.p50 r.p99 r.p999

(* One Snapshot per in-run tick (plus the final state).  Each carries
   [elapsed_s] so consumers (the report's latency time-series figure)
   can plot against run-relative time without trusting wall clocks. *)
let write_journal ~path (r : result) =
  let j = Journal.create path in
  let wall = Clock.wall () in
  let base = wall -. r.duration in
  List.iter
    (fun (elapsed, values) ->
      Journal.write j
        (Journal.Snapshot
           {
             at = base +. elapsed;
             label = "loadgen";
             values = ("elapsed_s", elapsed) :: values;
           }))
    r.snapshots;
  if r.snapshots = [] then
    Journal.write j
      (Journal.Snapshot
         {
           at = wall;
           label = "loadgen";
           values = ("elapsed_s", r.duration) :: Metrics.snapshot r.metrics;
         });
  Journal.close j

(* ------------------------------------------------------------------ *)
(* Selftest                                                            *)
(* ------------------------------------------------------------------ *)

let fresh_dir () =
  let base = Filename.get_temp_dir_name () in
  let rec go i =
    let d =
      Filename.concat base
        (Printf.sprintf "aqt-loadgen-%d-%d" (Unix.getpid ()) i)
    in
    match Unix.mkdir d 0o755 with
    | () -> d
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> go (i + 1)
  in
  go 0

(* Fast-path endpoints (/healthz) bypass admission, so the envelope
   under test must be driven through a dispatched endpoint: a tiny
   seeded /simulate is the cheapest admitted request.  Sheds answer 429
   inline without touching the worker pool, so only the ~rho*T admitted
   requests actually compute. *)
let admitted_path =
  "/simulate?network=ring:4&policy=fifo&rate=1/4&horizon=60&seed=1"

(* Spin a private server, drive it closed-loop well past its (rho,sigma)
   budget, and check the admitted stream obeys the envelope while the
   answered tail stays bounded.  [requests] and [conns] scale from a
   quick tier-1 check to the CI load run. *)
let selftest ?(quiet = false) ?(requests = 20_000) ?(conns = 64)
    ?(rho = 2000.) ?(sigma = 200) ?(snapshot_every = 0.)
    ?(emit = fun (_ : result) -> ()) () =
  let scfg =
    {
      Server.default_config with
      Server.port = 0;
      workers = 2;
      rho;
      sigma;
      (* The generator is one peer: give the per-client layer the same
         budget so the envelope under test is the endpoint bucket's. *)
      client_rho = rho;
      client_sigma = sigma;
      sweep_rho = rho;
      sweep_sigma = sigma;
      max_conns = conns + 64;
      max_pipeline = 32;
      campaign_dir = fresh_dir ();
      snapshot_every = 0.;
      journal = false;
      quiet = true;
    }
  in
  let srv = Server.start scfg in
  let r =
    run
      {
        default_config with
        port = Server.port srv;
        conns;
        requests;
        pipeline = 8;
        paths = [ (1, admitted_path) ];
        quiet;
        snapshot_every;
      }
  in
  Server.stop srv;
  let failures = ref [] in
  let check label ok detail =
    if not ok then failures := label :: !failures;
    if not quiet then
      Printf.printf "loadgen selftest %-10s %-6s %s\n%!" label
        (if ok then "ok" else "FAILED")
        detail
  in
  check "complete"
    (r.completed + r.errors = requests && r.errors <= requests / 50)
    (Printf.sprintf "%d completed + %d errors of %d" r.completed r.errors
       requests);
  check "answered"
    (r.ok > 0 && r.completed = r.ok + r.shed + r.rejected)
    (Printf.sprintf "%d ok, %d shed, %d rejected" r.ok r.shed r.rejected);
  (* The offered load is far above rho, so the bucket must shed... *)
  check "sheds" (r.shed > 0) (Printf.sprintf "%d x 429" r.shed);
  (* ...and what it admits must fit the (rho,sigma) envelope:
     admitted <= rho * T + sigma, with slack for scheduling jitter. *)
  let envelope = (rho *. r.duration *. 1.25) +. float_of_int sigma +. 64. in
  check "envelope"
    (float_of_int r.ok <= envelope)
    (Printf.sprintf "admitted %d <= envelope %.0f (rho=%g T=%.2fs sigma=%d)"
       r.ok envelope rho r.duration sigma);
  check "tail"
    (r.p999 < 2.5 && r.p999 >= 0.)
    (Printf.sprintf "p50=%.4fs p99=%.4fs p999=%.4fs throughput=%.0f req/s"
       r.p50 r.p99 r.p999 r.throughput);
  if not quiet then print_string (result_csv r);
  emit r;
  !failures = []
