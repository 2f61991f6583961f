module Ratio = Aqt_util.Ratio

type t = {
  tag : string;
  max_total : int option;
  route : int array;
  num : int; (* the rate, num / den in lowest terms, 0 < num <= den *)
  den : int;
  start : int;
  stop : int;
  (* The one injection record every packet of the flow is injected with;
     injections are immutable, so a step's list can repeat it. *)
  inj : Aqt_engine.Network.injection;
}

let make ?(tag = "flow") ?max_total ~route ~rate ~start ~stop () =
  if start > stop then invalid_arg "Flow.make: start > stop";
  if Array.length route = 0 then invalid_arg "Flow.make: empty route";
  if Ratio.(rate <= zero) || Ratio.(rate > one) then
    invalid_arg "Flow.make: rate must be in (0, 1]";
  (match max_total with
  | Some m when m < 0 -> invalid_arg "Flow.make: negative max_total"
  | _ -> ());
  {
    tag;
    max_total;
    route;
    num = Ratio.num rate;
    den = Ratio.den rate;
    start;
    stop;
    inj = { route; tag };
  }

let route f = f.route
let tag f = f.tag
let start f = f.start
let stop f = f.stop

(* Every comparison below is on [int]s, so none is a polymorphic
   [compare] call, and the floors divide a non-negative product. *)
let[@inline] capped f c =
  match f.max_total with Some m when m < c -> m | _ -> c

let cumulative f t =
  if t < f.start then 0
  else
    let t = if t < f.stop then t else f.stop in
    capped f (f.num * (t - f.start + 1) / f.den)

(* Outside its window a flow injects nothing, and a finished flow stays in
   the phase lists of Pump, Startup and Stitch: answer it before the
   division.  Inside, with [x = num * k] for the window's k-th step,
   [c1 = x / den] is the count by the end of step t and the count by the
   end of step t - 1 is the floor of [(x - num) / den].  As [num <= den],
   that is [c1 - 1] exactly when [x - c1 * den < num], and [c1] otherwise;
   at k = 1 it is 0 either way. *)
let count_at f t =
  if t < f.start || t > f.stop then 0
  else
    let x = f.num * (t - f.start + 1) in
    let c1 = x / f.den in
    let c0 = if x - (c1 * f.den) < f.num then c1 - 1 else c1 in
    capped f c1 - capped f c0

let total f = cumulative f f.stop

let last_injection_step f =
  let n = total f in
  if n = 0 then None
  else begin
    (* Binary search for the first step whose cumulative count reaches n. *)
    let lo = ref f.start and hi = ref f.stop in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cumulative f mid >= n then hi := mid else lo := mid + 1
    done;
    Some !lo
  end

let rec repeat inj c rest =
  if c = 0 then rest else inj :: repeat inj (c - 1) rest

let rec injections_at flows t =
  match flows with
  | [] -> []
  | f :: rest -> repeat f.inj (count_at f t) (injections_at rest t)
