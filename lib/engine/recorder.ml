module Dyn = Aqt_util.Dynarray_compat

type sample = {
  t : int;
  in_flight : int;
  cur_max_queue : int;
  absorbed : int;
  dropped : int;
  max_dwell : int;
  (* Cumulative GC counters at sampling time (Gc.quick_stat, no collection
     triggered): campaigns record allocation per step, and the fast-path
     acceptance check is "zero major-heap growth per step after warmup". *)
  gc_minor_words : float;
  gc_major_words : float;
}

type t = { every : int; store : sample Dyn.t }

let make ?(every = 1) () =
  if every < 1 then invalid_arg "Recorder.make";
  { every; store = Dyn.create () }

(* Checked before the sample is computed: [current_max_queue] walks every
   active buffer, and a sparse recorder skips most steps. *)
let observe r net =
  let now = Network.now net in
  if now mod r.every = 0 then begin
    let gc = Gc.quick_stat () in
    Dyn.push r.store
      {
        t = now;
        in_flight = Network.in_flight net;
        cur_max_queue = Network.current_max_queue net;
        absorbed = Network.absorbed net;
        dropped = Network.dropped net;
        max_dwell = Network.max_dwell net;
        (* quick_stat's minor_words only refreshes at GC events (OCaml 5);
           Gc.minor_words reads the allocation pointer and is exact. *)
        gc_minor_words = Gc.minor_words ();
        gc_major_words = gc.Gc.major_words;
      }
  end

let samples r = Dyn.to_array r.store
let length r = Dyn.length r.store

let to_rows r =
  List.map
    (fun s ->
      [
        ("t", float_of_int s.t);
        ("in_flight", float_of_int s.in_flight);
        ("max_queue", float_of_int s.cur_max_queue);
        ("absorbed", float_of_int s.absorbed);
        ("dropped", float_of_int s.dropped);
        ("max_dwell", float_of_int s.max_dwell);
        ("gc_minor_words", s.gc_minor_words);
        ("gc_major_words", s.gc_major_words);
      ])
    (Dyn.to_list r.store)

let points r f =
  Aqt_util.Boxed_array.map (fun s -> (float_of_int s.t, f s)) (samples r)

let last r =
  if Dyn.is_empty r.store then None else Some (Dyn.last r.store)

let major_words_per_step r =
  if Dyn.length r.store < 2 then 0.0
  else begin
    let first = Dyn.get r.store 0 and last = Dyn.last r.store in
    let steps = last.t - first.t in
    if steps <= 0 then 0.0
    else (last.gc_major_words -. first.gc_major_words) /. float_of_int steps
  end
