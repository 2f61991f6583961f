(* Span recorder for traced runs.  Spans live in flat growable arrays and
   are written as JSONL once the run ends, so recording one costs a few
   array stores.  A disabled recorder records nothing. *)

let now = Aqt_serve.Clock.monotonic

type t = {
  enabled : bool;
  mutable names : string array;
  mutable ints : int array; (* parent, req per span *)
  starts : Stats.Fbuf.t;
  stops : Stats.Fbuf.t;
  mutable n : int;
}

let create ~enabled =
  {
    enabled;
    names = Array.make 256 "";
    ints = Array.make 512 0;
    starts = Stats.Fbuf.create ();
    stops = Stats.Fbuf.create ();
    n = 0;
  }

let count t = t.n

(* Record a finished span; returns its id (-1 when disabled). *)
let add t ?(parent = -1) ?(req = -1) name ~start ~stop =
  if not t.enabled then -1
  else begin
    let id = t.n in
    if id = Array.length t.names then begin
      let names = Array.make (2 * id) "" and ints = Array.make (4 * id) 0 in
      Array.blit t.names 0 names 0 id;
      Array.blit t.ints 0 ints 0 (2 * id);
      t.names <- names;
      t.ints <- ints
    end;
    t.names.(id) <- name;
    t.ints.(2 * id) <- parent;
    t.ints.((2 * id) + 1) <- req;
    Stats.Fbuf.push t.starts start;
    Stats.Fbuf.push t.stops stop;
    t.n <- id + 1;
    id
  end

(* Open a span now; close it with [stop]. *)
let start t name =
  if not t.enabled then -1
  else
    let s = now () in
    add t name ~start:s ~stop:s

let stop t id = if id >= 0 then Stats.Fbuf.set t.stops id (now ())

let wrap t name f =
  let id = start t name in
  Fun.protect ~finally:(fun () -> stop t id) f

(* Cost of recording one span, measured on a throwaway recorder; used to
   report the tracing overhead of a run without a second, untraced run. *)
let cost_s () =
  let t = create ~enabled:true in
  let k = 200_000 in
  let t0 = now () in
  for _ = 1 to k do
    stop t (start t "probe")
  done;
  (now () -. t0) /. float_of_int k

let write_jsonl t file =
  let oc = open_out file in
  for i = 0 to t.n - 1 do
    Printf.fprintf oc
      "{\"id\":%d,\"parent\":%d,\"req\":%d,\"name\":%S,\"start\":%.9f,\"end\":%.9f}\n" i
      t.ints.(2 * i)
      t.ints.((2 * i) + 1)
      t.names.(i) (Stats.Fbuf.get t.starts i) (Stats.Fbuf.get t.stops i)
  done;
  close_out oc
