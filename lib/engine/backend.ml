(* One network, two engines.

   [Network] is the reference record engine; [Soa] is the struct-of-arrays
   core with optional domain-partitioned stepping.  This module lets run
   loops and the CLI pick one with [~backend:`Soa ~domains:n] while keeping
   a single stepping and observation surface — callers that need
   engine-specific machinery (tracers, per-packet reroutes) keep talking to
   the concrete engine through [net] / [soa]. *)

type injection = Network.injection = { route : int array; tag : string }

type t = Record of Network.t | Soa of Soa.t

let create ?log_injections ?validate_routes ?tie_order ?capacity
    ?(backend = `Record) ~graph ~policy () =
  match backend with
  | `Record ->
      Record
        (Network.create ?log_injections ?validate_routes ?tie_order ?capacity
           ~graph ~policy ())
  | `Soa domains ->
      Soa
        (Soa.create ?log_injections ?validate_routes ?tie_order ?capacity
           ~domains ~graph ~policy ())

let net = function Record n -> Some n | Soa _ -> None
let soa = function Soa s -> Some s | Record _ -> None

let kind = function Record _ -> "record" | Soa s ->
  if Soa.domains s = 1 then "soa" else Printf.sprintf "soa-d%d" (Soa.domains s)

let domains = function Record _ -> 1 | Soa s -> Soa.domains s

let place_initial t ?tag route =
  match t with
  | Record n -> (Network.place_initial n ?tag route).Packet.id
  | Soa s -> Soa.place_initial ?tag s route

let step t injections =
  match t with
  | Record n -> Network.step n injections
  | Soa s -> Soa.step s injections

(* Release pooled worker domains.  A no-op for the record engine and for
   single-domain SoA instances; parallel instances must be shut down (the
   runtime caps the number of live domains). *)
let shutdown = function Record _ -> () | Soa s -> Soa.shutdown s

let now = function Record n -> Network.now n | Soa s -> Soa.now s

let in_flight = function
  | Record n -> Network.in_flight n
  | Soa s -> Soa.in_flight s

let absorbed = function
  | Record n -> Network.absorbed n
  | Soa s -> Soa.absorbed s

let injected_count = function
  | Record n -> Network.injected_count n
  | Soa s -> Soa.injected_count s

let initial_count = function
  | Record n -> Network.initial_count n
  | Soa s -> Soa.initial_count s

let dropped = function Record n -> Network.dropped n | Soa s -> Soa.dropped s

let displaced = function
  | Record n -> Network.displaced n
  | Soa s -> Soa.displaced s

let occupancy = function
  | Record n -> Network.occupancy n
  | Soa s -> Soa.occupancy s

let peak_occupancy = function
  | Record n -> Network.peak_occupancy n
  | Soa s -> Soa.peak_occupancy s

let max_queue_ever = function
  | Record n -> Network.max_queue_ever n
  | Soa s -> Soa.max_queue_ever s

let current_max_queue = function
  | Record n -> Network.current_max_queue n
  | Soa s -> Soa.current_max_queue s

let max_dwell = function
  | Record n -> Network.max_dwell n
  | Soa s -> Soa.max_dwell s

let delivered_latency_max = function
  | Record n -> Network.delivered_latency_max n
  | Soa s -> Soa.delivered_latency_max s

let delivered_latency_mean = function
  | Record n -> Network.delivered_latency_mean n
  | Soa s -> Soa.delivered_latency_mean s

let buffer_len t e =
  match t with
  | Record n -> Network.buffer_len n e
  | Soa s -> Soa.buffer_len s e

let injection_log = function
  | Record n -> Network.injection_log n
  | Soa s -> Soa.injection_log s

let observe recorder t =
  match t with
  | Record n -> Recorder.observe recorder n
  | Soa s ->
      if Recorder.due recorder (Soa.now s) then
        Recorder.observe_raw recorder ~now:(Soa.now s)
          ~in_flight:(Soa.in_flight s)
          ~cur_max_queue:(Soa.current_max_queue s) ~absorbed:(Soa.absorbed s)
          ~dropped:(Soa.dropped s) ~max_dwell:(Soa.max_dwell s)
          ~gc_domains:(Soa.domains s)
          ~extra_minor_words:(Soa.worker_minor_words s)

(* The batched fast path, as [Sim.run_steps] but over either engine.
   [injections_at] receives the step number about to execute. *)
let run_steps ?recorder t ~injections_at n =
  if n < 0 then invalid_arg "Backend.run_steps: negative step count";
  match recorder with
  | None ->
      for _ = 1 to n do
        step t (injections_at (now t + 1))
      done
  | Some r ->
      for _ = 1 to n do
        step t (injections_at (now t + 1));
        observe r t
      done
