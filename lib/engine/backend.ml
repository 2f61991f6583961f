(* One network, two engines.

   [Network] is the reference record engine; [Soa] is the struct-of-arrays
   core with optional domain-partitioned stepping.  This module lets the
   fabric runner and the benchmark pick one with [~backend:(`Soa n)] behind
   one stepping and observation surface.  Callers that need engine-specific
   machinery (tracers, per-packet reroutes) use the concrete engine. *)

type injection = Network.injection = { route : int array; tag : string }

type t = Record of Network.t | Soa of Soa.t

let create ?log_injections ?tie_order ?capacity ?(backend = `Record) ~graph
    ~policy () =
  match backend with
  | `Record ->
      Record
        (Network.create ?log_injections ?tie_order ?capacity
           ~graph ~policy ())
  | `Soa domains ->
      Soa
        (Soa.create ?log_injections ?tie_order ?capacity
           ~domains ~graph ~policy ())

let kind = function Record _ -> "record" | Soa s ->
  if Soa.domains s = 1 then "soa" else Printf.sprintf "soa-d%d" (Soa.domains s)

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

let dropped = function Record n -> Network.dropped n | Soa s -> Soa.dropped s

let peak_occupancy = function
  | Record n -> Network.peak_occupancy n
  | Soa s -> Soa.peak_occupancy s

let max_queue_ever = function
  | Record n -> Network.max_queue_ever n
  | Soa s -> Soa.max_queue_ever s

let max_dwell = function
  | Record n -> Network.max_dwell n
  | Soa s -> Soa.max_dwell s

let delivered_latency_mean = function
  | Record n -> Network.delivered_latency_mean n
  | Soa s -> Soa.delivered_latency_mean s

let injection_log = function
  | Record n -> Network.injection_log n
  | Soa s -> Soa.injection_log s

(* [injections_at] receives the step number about to execute. *)
let run_steps t ~injections_at n =
  if n < 0 then invalid_arg "Backend.run_steps: negative step count";
  for _ = 1 to n do
    step t (injections_at (now t + 1))
  done
