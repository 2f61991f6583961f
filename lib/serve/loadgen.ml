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
  origin : float array;
  finish : float array;
  status : int array;
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
  slot : int;
  fd : Unix.file_descr;
  rp : Http.Rparser.t;
  mutable connected : bool;  (** nonblocking connect completed *)
  wq : string Queue.t;  (** encoded requests awaiting the socket *)
  mutable cur : string;
  mutable cur_off : int;
  sent : int Queue.t;  (** ids of outstanding requests, oldest first *)
  mutable alive : bool;
}

(* One record per request, indexed by id in issue order: [origin] and
   [finish] are seconds since [start] ([finish] is the instant the
   request was answered or lost), [status] the HTTP status, 0 if lost. *)
type state = {
  cfg : config;
  addr : Unix.sockaddr;
  rng : Prng.t;
  start : float;
  slots : cstate option array;
  by_fd : (Unix.file_descr, cstate) Hashtbl.t;  (** the live connections *)
  origin : float array;
  finish : float array;
  status : int array;
  mutable issued : int;
  mutable answered : int;
  mutable lost : int;
  mutable respawns : int;
}

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()
let elapsed st = Clock.monotonic () -. st.start

let open_conn st slot =
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
  let c =
    {
      slot;
      fd;
      rp = Http.Rparser.create ();
      connected;
      wq = Queue.create ();
      cur = "";
      cur_off = 0;
      sent = Queue.create ();
      alive = true;
    }
  in
  st.slots.(slot) <- Some c;
  Hashtbl.replace st.by_fd fd c

(* A dead connection takes its unanswered requests with it: they count
   as lost and are never re-issued (re-issuing would silently inflate
   the admitted rate that the envelope check compares against). *)
let kill_conn st c =
  if c.alive then begin
    c.alive <- false;
    let now = elapsed st in
    Queue.iter (fun id -> st.finish.(id) <- now) c.sent;
    st.lost <- st.lost + Queue.length c.sent;
    Hashtbl.remove st.by_fd c.fd;
    close_quietly c.fd;
    st.slots.(c.slot) <- None
  end

let enqueue_request st c ~origin =
  let path = pick_path st.rng st.cfg.paths in
  let pad = draw_flow st.rng flow_cdf in
  let req_headers = if pad > 0 then [ ("x-pad", String.make pad 'x') ] else [] in
  Queue.push (Http.encode_request ~req_headers path) c.wq;
  st.origin.(st.issued) <- origin -. st.start;
  Queue.push st.issued c.sent;
  st.issued <- st.issued + 1

let flush st c =
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
        | exception Unix.Unix_error _ -> kill_conn st c
    done
  end

let drain_responses st c =
  let continue = ref true in
  while !continue && c.alive do
    match Http.Rparser.next c.rp with
    | `Await -> continue := false
    | `Response r -> (
        match Queue.pop c.sent with
        | id ->
            st.finish.(id) <- elapsed st;
            st.status.(id) <- r.Http.status;
            st.answered <- st.answered + 1
        | exception Queue.Empty ->
            (* A response we never asked for: protocol desync. *)
            kill_conn st c)
    | `Error _ -> kill_conn st c
  done

let on_readable st rbuf c =
  let continue = ref true in
  let budget = ref 262144 in
  while !continue && !budget > 0 && c.alive do
    match Unix.read c.fd rbuf 0 (Bytes.length rbuf) with
    | 0 ->
        (* The daemon closed (drain, idle expiry, or a close-after 503).
           Responses delivered in the same readable burst as the FIN —
           typical for Connection: close answers — are still buffered in
           the parser: count them before charging the remainder as
           lost. *)
        continue := false;
        drain_responses st c;
        kill_conn st c
    | n ->
        budget := !budget - n;
        Http.Rparser.feed c.rp rbuf 0 n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        continue := false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error _ ->
        continue := false;
        kill_conn st c
  done;
  if c.alive then drain_responses st c

let on_writable st c =
  if c.alive && not c.connected then begin
    match Unix.getsockopt_error c.fd with
    | None -> c.connected <- true
    | Some _ -> kill_conn st c
  end;
  if c.alive then flush st c

(* ------------------------------------------------------------------ *)
(* Summary statistics                                                  *)
(* ------------------------------------------------------------------ *)

(* Linear interpolation between closest ranks (numpy's default, as in
   bench/e2e/stats.ml); 0 on no samples. *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let h = q *. float_of_int (n - 1) in
    let i = int_of_float h in
    if i >= n - 1 then sorted.(n - 1)
    else sorted.(i) +. ((h -. float_of_int i) *. (sorted.(i + 1) -. sorted.(i)))

let answered_ids status =
  Seq.init (Array.length status) Fun.id
  |> Seq.filter (fun id -> status.(id) <> 0)
  |> Array.of_seq

let sorted_latencies ~origin ~finish ids =
  let lat = Array.map (fun id -> finish.(id) -. origin.(id)) ids in
  Array.sort Float.compare lat;
  lat

(* ------------------------------------------------------------------ *)
(* The run loop                                                        *)
(* ------------------------------------------------------------------ *)

let max_outstanding_open = 64
let max_respawns_factor = 4

let summarize st =
  let count code =
    Array.fold_left (fun n s -> if s = code then n + 1 else n) 0 st.status
  in
  let lat =
    sorted_latencies ~origin:st.origin ~finish:st.finish
      (answered_ids st.status)
  in
  let duration = Float.max 1e-9 (elapsed st) in
  {
    issued = st.issued;
    completed = st.answered;
    errors = st.issued - st.answered;
    ok = count 200;
    shed = count 429;
    rejected = count 503;
    duration;
    throughput = float_of_int st.answered /. duration;
    p50 = quantile lat 0.50;
    p99 = quantile lat 0.99;
    p999 = quantile lat 0.999;
    origin = st.origin;
    finish = st.finish;
    status = st.status;
  }

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
  let start = Clock.monotonic () in
  let st =
    {
      cfg;
      addr;
      rng = Prng.create cfg.seed;
      start;
      slots = Array.make cfg.conns None;
      by_fd = Hashtbl.create (2 * cfg.conns);
      origin = Array.make cfg.requests Float.nan;
      finish = Array.make cfg.requests Float.nan;
      status = Array.make cfg.requests 0;
      issued = 0;
      answered = 0;
      lost = 0;
      respawns = 0;
    }
  in
  let ep = Evpoll.create () in
  let rbuf = Bytes.create 65536 in
  let hard_deadline = start +. cfg.run_timeout in
  (* Open-loop send schedule: [sched] is the next intended send instant;
     instants that have come due but found every connection saturated
     wait in [due] and keep their original timestamp, so queueing delay
     at the generator still lands in the latency measurement
     (no coordinated omission). *)
  let sched = ref start in
  let due = Queue.create () in
  let next_report = ref (start +. 1.) in
  let finished () =
    st.answered + st.lost >= cfg.requests
    || (st.issued >= cfg.requests && Hashtbl.length st.by_fd = 0)
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
                open_conn st i
              end
              else begin
                (* The server is unreachable: the rest of the budget is
                   lost unsent, and retrying stops. *)
                let now = elapsed st in
                Array.fill st.origin st.issued (cfg.requests - st.issued) now;
                Array.fill st.finish st.issued (cfg.requests - st.issued) now;
                st.lost <- st.lost + (cfg.requests - st.issued);
                st.issued <- cfg.requests
              end)
        st.slots;
    (* Issue requests. *)
    (match cfg.mode with
    | Closed ->
        Array.iter
          (function
            | Some c when c.alive && c.connected ->
                while
                  st.issued < cfg.requests
                  && Queue.length c.sent < cfg.pipeline
                do
                  enqueue_request st c ~origin:(Clock.monotonic ())
                done;
                flush st c
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
        Array.iter
          (function Some c when c.alive -> flush st c | _ -> ())
          st.slots);
    (* Retire connections that have nothing left to do. *)
    Array.iter
      (function
        | Some c
          when c.alive && st.issued >= cfg.requests
               && Queue.is_empty c.sent
               && Queue.is_empty c.wq
               && c.cur = "" ->
            kill_conn st c
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
    Evpoll.iter_ready ep (fun fd ~readable ~writable ~error ->
        match Hashtbl.find_opt st.by_fd fd with
        | None -> ()
        | Some c ->
            if error then kill_conn st c
            else begin
              if writable && c.alive then on_writable st c;
              if readable && c.alive then on_readable st rbuf c
            end);
    if not cfg.quiet then begin
      let now = Clock.monotonic () in
      if now >= !next_report then begin
        next_report := now +. 1.;
        Printf.printf
          "loadgen: %d issued, %d completed, %d errors, %d conns, %.0f req/s\n\
           %!"
          st.issued st.answered st.lost (Hashtbl.length st.by_fd)
          (float_of_int st.answered /. (now -. start))
      end
    end
  done;
  (* Anything still unanswered at the deadline is lost. *)
  Array.iter (function Some c -> kill_conn st c | None -> ()) st.slots;
  summarize st

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

(* At each tick, the exact quantiles of every request answered by then;
   a tick sorts those requests' latencies.  [at] is reconstructed from
   the wall clock at write time: readers plot against [elapsed_s]. *)
let write_journal ~every ~path (r : result) =
  let ids = answered_ids r.status in
  Array.sort (fun a b -> Float.compare r.finish.(a) r.finish.(b)) ids;
  let ticks =
    if every > 0. then max 1 (int_of_float (ceil (r.duration /. every))) else 1
  in
  let j = Journal.create path in
  let base = Clock.wall () -. r.duration in
  let counted = ref 0 in
  for tick = 1 to ticks do
    let t = if tick = ticks then r.duration else float_of_int tick *. every in
    while !counted < Array.length ids && r.finish.(ids.(!counted)) <= t do
      incr counted
    done;
    let lat =
      sorted_latencies ~origin:r.origin ~finish:r.finish
        (Array.sub ids 0 !counted)
    in
    Journal.write j
      (Journal.Snapshot
         {
           at = base +. t;
           label = "loadgen";
           values =
             [
               ("elapsed_s", t);
               ("loadgen_request_seconds_p50", quantile lat 0.50);
               ("loadgen_request_seconds_p99", quantile lat 0.99);
               ("loadgen_request_seconds_p999", quantile lat 0.999);
             ];
         })
  done;
  Journal.close j

(* ------------------------------------------------------------------ *)
(* The (rho,sigma) envelope checks                                     *)
(* ------------------------------------------------------------------ *)

type check = { name : string; passed : bool; detail : string }

let check name passed fmt =
  Printf.ksprintf (fun detail -> { name; passed; detail }) fmt

let complete ~requests r =
  check "complete"
    (r.completed + r.errors = requests && r.errors <= requests / 50)
    "%d completed + %d errors of %d" r.completed r.errors requests

let envelope_checks ~rho ~sigma ~requests r =
  (* admitted <= rho * T + sigma, with slack for scheduling jitter. *)
  let envelope = (rho *. r.duration *. 1.25) +. float_of_int sigma +. 64. in
  [
    complete ~requests r;
    check "answered"
      (r.ok > 0 && r.completed = r.ok + r.shed + r.rejected)
      "%d ok, %d shed, %d rejected" r.ok r.shed r.rejected;
    (* The offered load is far above rho, so the bucket must shed... *)
    check "sheds" (r.shed > 0) "%d x 429" r.shed;
    (* ...and what it admits must fit the (rho,sigma) envelope. *)
    check "envelope"
      (float_of_int r.ok <= envelope)
      "admitted %d <= envelope %.0f (rho=%g T=%.2fs sigma=%d)" r.ok envelope
      rho r.duration sigma;
    check "tail"
      (r.p999 < 2.5 && r.p999 >= 0.)
      "p50=%.4fs p99=%.4fs p999=%.4fs throughput=%.0f req/s" r.p50 r.p99
      r.p999 r.throughput;
  ]
