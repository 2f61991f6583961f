module Ratio = Aqt_util.Ratio

type t = { eps : Ratio.t; rate : Ratio.t; r : float; n : int; s0 : int }

let log2 x = log x /. log 2.0

let ri ~r i =
  if i < 1 then invalid_arg "Params.ri: i must be >= 1";
  (1.0 -. r) /. (1.0 -. (r ** float_of_int i))

let n_formula ~r ~eps =
  let a = (log2 eps -. 2.0) /. log2 r in
  let b = 1.0 -. (1.0 /. log2 r) in
  max 1 (int_of_float (Float.ceil (Float.max a b)))

let s0_formula ~r ~n =
  let gap = ri ~r n -. ri ~r (n + 1) in
  let a = 2.0 *. float_of_int n in
  let b = float_of_int n /. (2.0 *. gap) in
  int_of_float (Float.ceil (Float.max a b))

let make ?n ?s0 ~eps () =
  if Ratio.(eps <= zero) || Ratio.(eps >= half) then
    invalid_arg "Params.make: eps must be in (0, 1/2)";
  let rate = Ratio.add Ratio.half eps in
  let r = Ratio.to_float rate in
  let n =
    match n with
    | Some n when n >= 1 -> n
    | Some _ -> invalid_arg "Params.make: n must be >= 1"
    | None -> n_formula ~r ~eps:(Ratio.to_float eps)
  in
  let s0 =
    match s0 with
    | Some s when s >= 2 * n -> s
    | Some _ -> invalid_arg "Params.make: s0 must be >= 2n"
    | None -> s0_formula ~r ~n
  in
  { eps; rate; r; n; s0 }

let ti ~r ~n ~total_old ~i =
  if i < 1 || i > n then invalid_arg "Params.ti: i out of range";
  int_of_float (float_of_int total_old /. (r +. ri ~r i))

let s' ~r ~n ~total_old =
  int_of_float (float_of_int total_old *. (1.0 -. ri ~r n))

let x_param ~r ~n ~total_old ~s_ingress =
  let raw =
    s' ~r ~n ~total_old
    - int_of_float (r *. float_of_int s_ingress)
    + n
  in
  let cap = int_of_float (r *. float_of_int s_ingress) in
  max 0 (min raw cap)

let growth_per_cycle ~eps ~m =
  let r = 0.5 +. eps in
  r ** 3.0 *. ((1.0 +. eps) ** float_of_int m) /. 4.0

let chain_length ~eps =
  if eps <= 0.0 then invalid_arg "Params.chain_length";
  let rec go m = if growth_per_cycle ~eps ~m > 1.25 then m else go (m + 1) in
  go 1

let pump_factor ~r ~n = 2.0 *. (1.0 -. ri ~r n)

let cycle_growth_actual ~r ~n ~m =
  (1.0 -. ri ~r n) *. (pump_factor ~r ~n ** float_of_int (m - 1)) *. (r ** 3.0)

let chain_length_actual ~r ~n =
  if pump_factor ~r ~n <= 1.0 then
    invalid_arg "Params.chain_length_actual: pump factor not expansive";
  let rec go m = if cycle_growth_actual ~r ~n ~m > 1.5 then m else go (m + 1) in
  go 2
