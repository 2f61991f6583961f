type driver = {
  before_step : Network.t -> int -> unit;
  injections_at : Network.t -> int -> Network.injection list;
  observe_queues : (int array -> int -> unit) option;
}

let null_driver =
  {
    before_step = (fun _ _ -> ());
    injections_at = (fun _ _ -> []);
    observe_queues = None;
  }

let injections_only f = { null_driver with injections_at = f }

(* Feedback adversaries observe the start-of-step queue vector — exactly
   the state the stability theorems quantify over — before any reroute or
   injection decision of the step.  The snapshot is only materialised when
   a driver asks for it. *)
let feed_queues driver net t =
  match driver.observe_queues with
  | None -> ()
  | Some f ->
      let m = Aqt_graph.Digraph.n_edges (Network.graph net) in
      f (Array.init m (Network.buffer_len net)) t

type stop = Horizon | Blowup of int | Stopped of string

type outcome = {
  stop : stop;
  steps_run : int;
  max_queue : int;
  max_dwell : int;
  dropped : int;
}

let run ?recorder ?blowup ?stop_when ~net ~driver ~horizon () =
  if horizon < 0 then invalid_arg "Sim.run: negative horizon";
  let start = Network.now net in
  let observe () =
    match recorder with Some r -> Recorder.observe r net | None -> ()
  in
  let rec go steps_done =
    if steps_done >= horizon then Horizon
    else begin
      let t = Network.now net + 1 in
      feed_queues driver net t;
      driver.before_step net t;
      let injections = driver.injections_at net t in
      Network.step net injections;
      observe ();
      let blown =
        match blowup with
        | Some cap when Network.max_queue_ever net > cap ->
            Some (Blowup (Network.max_queue_ever net))
        | _ -> None
      in
      match blown with
      | Some b -> b
      | None -> (
          match stop_when with
          | Some f when Option.is_some (f net) ->
              Stopped (Option.get (f net))
          | _ -> go (steps_done + 1))
    end
  in
  let stop = go 0 in
  {
    stop;
    steps_run = Network.now net - start;
    max_queue = Network.max_queue_ever net;
    max_dwell = Network.max_dwell net;
    dropped = Network.dropped net;
  }
