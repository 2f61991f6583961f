(* Exact-sample HTTP load client: one thread, Unix.select over at most two
   keep-alive connections.  Every request keeps its scheduled, send and
   completion instants, status, class and stream in flat arrays, so
   percentiles and generator lag are computed from the full sample.

   Open-loop streams send on a fixed schedule whatever the server does
   (latency counts from the scheduled instant, so a stall also charges
   the requests it delays); closed-loop streams keep a fixed number of
   requests outstanding on each of their connections. *)

module Http = Aqt_serve.Http
module Fbuf = Stats.Fbuf

let now = Spans.now

(* Request classes. *)
let simulate = 0
let sweep = 1
let scrape = 2
let probe = 3

let max_outstanding = 64

type conn = {
  mutable fd : Unix.file_descr option;
  mutable rp : Http.Rparser.t;
  pending : int Queue.t;  (* request ids awaiting a response, in send order *)
  mutable out : string;  (* bytes not yet written *)
  mutable out_off : int;
}

type t = {
  port : int;
  conns : conn array;
  buf : Bytes.t;
  sched : Fbuf.t;
  sent : Fbuf.t;
  finish : Fbuf.t;
  mutable status : int array;  (* 0 until answered; stays 0 on a dead connection *)
  mutable cls : int array;
  mutable stream : int array;
  mutable tag : int array;  (* caller's input index *)
  mutable bodies : string array;
  mutable n : int;
}

let create ~port ~conns =
  {
    port;
    conns =
      Array.init conns (fun _ ->
          { fd = None; rp = Http.Rparser.create (); pending = Queue.create (); out = ""; out_off = 0 });
    buf = Bytes.create 65536;
    sched = Fbuf.create ();
    sent = Fbuf.create ();
    finish = Fbuf.create ();
    status = Array.make 1024 0;
    cls = Array.make 1024 0;
    stream = Array.make 1024 0;
    tag = Array.make 1024 0;
    bodies = Array.make 1024 "";
    n = 0;
  }

let count t = t.n
let status t i = t.status.(i)
let cls t i = t.cls.(i)
let stream t i = t.stream.(i)
let tag t i = t.tag.(i)
let body t i = t.bodies.(i)
let sched t i = Fbuf.get t.sched i
let sent t i = Fbuf.get t.sent i
let finish t i = Fbuf.get t.finish i

let connect t c =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, t.port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.set_nonblock fd;
  c.fd <- Some fd;
  c.rp <- Http.Rparser.create ();
  fd

(* A dead connection fails every request still waiting on it; the next
   request on the slot opens a fresh connection. *)
let kill t c =
  (match c.fd with Some fd -> (try Unix.close fd with Unix.Unix_error _ -> ()) | None -> ());
  c.fd <- None;
  c.out <- "";
  c.out_off <- 0;
  let tn = now () in
  Queue.iter (fun id -> Fbuf.set t.finish id tn) c.pending;
  Queue.clear c.pending

let close t = Array.iter (kill t) t.conns

let flush_out t c =
  match c.fd with
  | None -> ()
  | Some fd -> (
      let len = String.length c.out - c.out_off in
      if len > 0 then
        match Unix.write_substring fd c.out c.out_off len with
        | k ->
            c.out_off <- c.out_off + k;
            if c.out_off = String.length c.out then begin
              c.out <- "";
              c.out_off <- 0
            end
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
        | exception Unix.Unix_error _ -> kill t c)

let grow t =
  let n = Array.length t.status in
  let g a z =
    let b = Array.make (2 * n) z in
    Array.blit a 0 b 0 n;
    b
  in
  t.status <- g t.status 0;
  t.cls <- g t.cls 0;
  t.stream <- g t.stream 0;
  t.tag <- g t.tag 0;
  t.bodies <- g t.bodies ""

(* Queue one request on connection [ci]; returns its id.  A request that
   finds no connection and cannot open one fails at once. *)
let issue t ~ci ~cls ~stream ~tag ~sched bytes =
  let c = t.conns.(ci) in
  if c.fd = None then (try ignore (connect t c) with Unix.Unix_error _ -> ());
  let id = t.n in
  if id = Array.length t.status then grow t;
  t.n <- id + 1;
  t.cls.(id) <- cls;
  t.stream.(id) <- stream;
  t.tag.(id) <- tag;
  t.status.(id) <- 0;
  Fbuf.push t.sched sched;
  Fbuf.push t.finish nan;
  if c.fd = None then Fbuf.set t.finish id (now ())
  else begin
    Queue.push id c.pending;
    c.out <- String.sub c.out c.out_off (String.length c.out - c.out_off) ^ bytes;
    c.out_off <- 0;
    flush_out t c
  end;
  Fbuf.push t.sent (now ());
  id

let on_readable t c =
  match c.fd with
  | None -> ()
  | Some fd -> (
      match Unix.read fd t.buf 0 (Bytes.length t.buf) with
      | 0 -> kill t c
      | k ->
          Http.Rparser.feed c.rp t.buf 0 k;
          let tn = now () in
          let rec drain () =
            match Http.Rparser.next c.rp with
            | `Response resp when not (Queue.is_empty c.pending) ->
                let id = Queue.pop c.pending in
                Fbuf.set t.finish id tn;
                t.status.(id) <- resp.Http.status;
                t.bodies.(id) <- resp.Http.body;
                drain ()
            | `Await -> ()
            | `Response _ | `Error _ -> kill t c
          in
          drain ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
      | exception Unix.Unix_error _ -> kill t c)

let poll t ~timeout =
  let reads = ref [] and writes = ref [] in
  Array.iter
    (fun c ->
      match c.fd with
      | Some fd ->
          if not (Queue.is_empty c.pending) then reads := fd :: !reads;
          if c.out <> "" then writes := fd :: !writes
      | None -> ())
    t.conns;
  if !reads = [] && !writes = [] then (if timeout > 0. then Unix.sleepf timeout)
  else
    match Unix.select !reads !writes [] (Float.max 0. timeout) with
    | r, w, _ ->
        Array.iter
          (fun c ->
            match c.fd with
            | Some fd ->
                if List.memq fd w then flush_out t c;
                if List.memq fd r then on_readable t c
            | None -> ())
          t.conns
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

type kind = Open of float  (** requests per second *) | Closed of int  (** depth *)

(* An open-loop source sends each request on whichever of its connections
   has the fewest answers outstanding, as a client's connection pool does,
   so a slow answer holds up as few later ones as it can.  A closed-loop
   source keeps [depth] requests outstanding on each of its connections. *)
type source = {
  via : int list;  (** connections *)
  kind : kind;
  next : unit -> int * int * string;  (** class, tag, request bytes *)
}

(* Run [sources] for [duration] seconds, then wait (at most [drain]
   seconds) for every answer; requests still unanswered by then fail.
   Stream ids are [first_stream + position in sources]. *)
let run t ?(first_stream = 0) ?(drain = 10.) ~duration sources =
  let sources = Array.of_list sources in
  let t0 = now () in
  let t_end = t0 +. duration in
  let issued = Array.make (Array.length sources) 0 in
  let outstanding ci = Queue.length t.conns.(ci).pending in
  let least s =
    List.fold_left (fun a ci -> if outstanding ci < outstanding a then ci else a) (List.hd s.via) s.via
  in
  let due si rate = t0 +. (float_of_int issued.(si) /. rate) in
  let rec loop () =
    let tn = now () in
    Array.iteri
      (fun si s ->
        match s.kind with
        | Open rate ->
            while due si rate <= tn && due si rate < t_end && outstanding (least s) < max_outstanding do
              let c, tag, bytes = s.next () in
              ignore (issue t ~ci:(least s) ~cls:c ~stream:(first_stream + si) ~tag ~sched:(due si rate) bytes);
              issued.(si) <- issued.(si) + 1
            done
        | Closed depth ->
            (* A request that failed at once (no connection) ends this
               round, so a dead server is not flooded. *)
            let rec fill ci =
              if tn < t_end && outstanding ci < depth then begin
                let c, tag, bytes = s.next () in
                let id = issue t ~ci ~cls:c ~stream:(first_stream + si) ~tag ~sched:(now ()) bytes in
                issued.(si) <- issued.(si) + 1;
                if Float.is_nan (finish t id) then fill ci
              end
            in
            List.iter fill s.via)
      sources;
    let busy = Array.exists (fun c -> not (Queue.is_empty c.pending)) t.conns in
    if tn >= t_end && not busy then ()
    else if tn >= t_end +. drain then Array.iter (kill t) t.conns
    else begin
      let wake = ref (if tn < t_end then t_end else t_end +. drain) in
      Array.iteri
        (fun si s ->
          match s.kind with
          | Open rate ->
              let d = due si rate in
              if d < t_end && outstanding (least s) < max_outstanding then wake := Float.min !wake d
          | Closed _ -> ())
        sources;
      poll t ~timeout:(!wake -. tn);
      loop ()
    end
  in
  loop ()

(* One blocking exchange on connection [ci] (set-up probes and scrapes
   outside the timed phases); [None] on failure. *)
let call t ~ci ~cls target =
  let id = issue t ~ci ~cls ~stream:(-1) ~tag:(-1) ~sched:(now ()) (Http.encode_request target) in
  let deadline = now () +. 10. in
  while Float.is_nan (finish t id) && now () < deadline do
    poll t ~timeout:(deadline -. now ())
  done;
  if Float.is_nan (finish t id) then kill t t.conns.(ci);
  if t.status.(id) = 200 then Some t.bodies.(id) else None
