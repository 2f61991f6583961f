module Ratio = Aqt_util.Ratio
module Sim = Aqt_engine.Sim

type t = {
  name : string;
  rate : Ratio.t;
  window : int option;
  exact : bool;
  driver : Sim.driver;
}

let of_flows ~name ~rate flows =
  {
    name;
    rate;
    window = None;
    exact = true;
    driver = Sim.injections_only (fun _ t -> Flow.injections_at flows t);
  }

let token_bucket ?(name = "token-bucket") ~rate ~routes ~horizon () =
  let flows =
    List.map
      (fun route -> Flow.make ~tag:name ~route ~rate ~start:1 ~stop:horizon ())
      routes
  in
  of_flows ~name ~rate flows

(* One injection record per route, built once: injections are immutable,
   so every step's list can repeat them. *)
let injection_list ~name routes =
  List.map
    (fun route : Aqt_engine.Network.injection -> { route; tag = name })
    routes

let injections ~name routes =
  Aqt_util.Boxed_array.of_list (injection_list ~name routes)

(* [injs.(i mod n)] for i = from, .., k, consed onto [acc].  Top-level
   rather than a closure over the step's bounds, which would be allocated
   every step. *)
let rec round_robin (injs : Aqt_engine.Network.injection array) from k acc =
  if k < from then acc
  else round_robin injs from (k - 1) (injs.(k mod Array.length injs) :: acc)

let shared_token_bucket ?(name = "shared-bucket") ~rate ~routes ~horizon () =
  let injs = injections ~name routes in
  if Array.length injs = 0 then invalid_arg "Stock.shared_token_bucket";
  (* One bucket; the k-th released packet takes routes.(k mod n).  Arrival
     counts come from a single flow on a dummy route, so the cumulative
     release count is floor(rate * t). *)
  let counter =
    Flow.make ~route:injs.(0).route ~rate ~start:1 ~stop:horizon ()
  in
  let driver =
    Sim.injections_only (fun _ t ->
        let from = Flow.cumulative counter (t - 1)
        and upto = Flow.cumulative counter t in
        round_robin injs from (upto - 1) [])
  in
  { name; rate; window = None; exact = true; driver }

let windowed_burst ?(name = "window-burst") ?(packed = false) ~w ~rate ~routes
    ~horizon () =
  if w < 1 then invalid_arg "Stock.windowed_burst: w must be positive";
  let per_window = Ratio.floor_mul rate w in
  let one_per_route = injection_list ~name routes in
  let driver =
    Sim.injections_only (fun _ t ->
        if t > horizon then []
        else begin
          let offset = (t - 1) mod w in
          if packed then
            if offset = 0 then
              List.concat (List.init per_window (fun _ -> one_per_route))
            else []
          else if offset < per_window then one_per_route
          else []
        end)
  in
  { name; rate; window = Some w; exact = true; driver }

let leaky_bucket ?(name = "leaky-bucket") ~b ~rate ~routes ~horizon () =
  if b < 0 then invalid_arg "Stock.leaky_bucket: negative burst";
  let flows =
    List.map
      (fun route -> Flow.make ~tag:name ~route ~rate ~start:1 ~stop:horizon ())
      routes
  in
  let one_per_route = injection_list ~name routes in
  let driver =
    Sim.injections_only (fun _ t ->
        let burst =
          if t = 1 then List.concat (List.init b (fun _ -> one_per_route))
          else []
        in
        burst @ Flow.injections_at flows t)
  in
  { name; rate; window = None; exact = true; driver }

(* Largest [i] in [lo, hi) with [times.(i) <= t], or [lo - 1]. *)
let rec last_at_most (times : int array) (t : int) lo hi =
  if lo >= hi then lo - 1
  else begin
    let mid = (lo + hi) / 2 in
    if times.(mid) <= t then last_at_most times t (mid + 1) hi
    else last_at_most times t lo mid
  end

let replay ?(name = "replay") ~rate log =
  (* The schedule, built in one pass from the back of the log: slots
     [first .. n-1] hold the distinct logged times, increasing, and beside
     each the step's injection list, consed in log order.  A step is then a
     binary search that allocates nothing, and the driver stays a pure
     function of the step number.  An unsorted log is stably sorted by time
     first, so same-time entries keep their log order. *)
  let rec sorted_from i =
    i >= Array.length log
    || (fst log.(i - 1) <= fst log.(i) && sorted_from (i + 1))
  in
  let log =
    if sorted_from 1 then log
    else
      Aqt_util.Boxed_array.of_list
        (List.stable_sort
           (fun (a, _) (b, _) -> Int.compare a b)
           (Array.to_list log))
  in
  let n = Array.length log in
  let times = Array.make n 0 and steps = Array.make n [] in
  let first = ref n in
  for i = n - 1 downto 0 do
    let time, route = log.(i) in
    if !first = n || times.(!first) <> time then begin
      decr first;
      times.(!first) <- time
    end;
    steps.(!first) <-
      ({ route; tag = name } : Aqt_engine.Network.injection) :: steps.(!first)
  done;
  let first = !first in
  let driver =
    Sim.injections_only (fun _ t ->
        let i = last_at_most times t first n in
        if i >= first && times.(i) = t then steps.(i) else [])
  in
  { name; rate; window = None; exact = true; driver }

(* The injections whose coin came up, in route order: built back to front
   so that only the hits allocate, one cons cell each. *)
let rec hits (injs : Aqt_engine.Network.injection array) coins i acc =
  if i < 0 then acc
  else
    hits injs coins (i - 1)
      (if Array.unsafe_get coins i then Array.unsafe_get injs i :: acc
       else acc)

let bernoulli ?(name = "bernoulli") ~prng ~rate ~routes () =
  let num = Ratio.num rate and den = Ratio.den rate in
  let injs = injections ~name routes in
  let coins = Array.make (Array.length injs) false in
  let driver =
    Sim.injections_only (fun _ _ ->
        (* One coin per route, in route order, drawn in one pass. *)
        Aqt_util.Prng.bernoulli_fill prng ~num ~den coins;
        hits injs coins (Array.length injs - 1) [])
  in
  { name; rate; window = None; exact = false; driver }
