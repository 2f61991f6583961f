(* What one benchmark run accumulates: operation counts, failures, and
   metrics tagged end-to-end or per-layer. *)

module Jsonx = Aqt_util.Jsonx

type kind = E2e | Layer

type metric = { name : string; value : float; unit : string; n : int; kind : kind }

type t = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  smoke : bool;
  bless : bool;
  work : string;  (* working directory for this run *)
  spans : Spans.t;
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;  (* first failures, most recent first *)
  mutable metrics : metric list;
  mutable info : (string * Jsonx.t) list;
  mutable speed : Speed.t option;  (* the host-speed samplers, if timing *)
}

let metric t kind ?(n = 1) name unit value = t.metrics <- { name; value; unit; n; kind } :: t.metrics
let e2e t = metric t E2e
let layer t = metric t Layer
let info t key v = t.info <- (key, v) :: t.info
let attempt t k = t.attempted <- t.attempted + k

let fail t fmt =
  Printf.ksprintf
    (fun msg ->
      t.failed <- t.failed + 1;
      if List.length t.errors < 20 then t.errors <- msg :: t.errors)
    fmt

let find t name = List.find_opt (fun m -> m.name = name) t.metrics

(* The host factor over a window of the run (see Speed), and the number of
   sampler chunks it rests on. *)
type host = { factor : float; chunks : int }

(* Run [f]; returns its result and the host over the time it ran (factor 1
   when nothing is timed). *)
let window t f =
  match t.speed with
  | None -> (f (), { factor = 1.; chunks = 0 })
  | Some s ->
      let m = Speed.mark s in
      let x = f () in
      let factor, chunks = Speed.since s m in
      (x, { factor; chunks })

(* An end-to-end time measured in a window with host [host], reported
   divided by its factor; the measured value and the host stay in the
   result as info "measured.NAME". *)
let e2e_time t ?n ~host name unit value =
  if t.speed <> None && host.chunks < 10 then
    fail t "%s: the host-speed samplers recorded only %d chunks while it was measured" name host.chunks;
  info t ("measured." ^ name)
    (Jsonx.Obj
       [
         ("value", Jsonx.Float value); ("host_factor", Jsonx.Float host.factor);
         ("host_chunks", Jsonx.Int host.chunks);
       ]);
  e2e t ?n name unit (value /. host.factor)

let rec mkdir_p p =
  if not (Sys.file_exists p) then begin
    mkdir_p (Filename.dirname p);
    Sys.mkdir p 0o755
  end

(* A fresh, empty directory under the run's working directory. *)
let fresh_dir t name =
  let rec rm p =
    if Sys.file_exists p then
      if Sys.is_directory p then begin
        Array.iter (fun f -> rm (Filename.concat p f)) (Sys.readdir p);
        Sys.rmdir p
      end
      else Sys.remove p
  in
  let dir = Filename.concat t.work name in
  rm dir;
  mkdir_p dir;
  dir
