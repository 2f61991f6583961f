type t = { p : int; q : int }

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let make p q =
  if q = 0 then invalid_arg "Ratio.make: zero denominator";
  let sign = if q < 0 then -1 else 1 in
  let p = sign * p and q = sign * q in
  let g = gcd (abs p) q in
  if g = 0 then { p = 0; q = 1 } else { p = p / g; q = q / g }

let of_int n = { p = n; q = 1 }
let zero = { p = 0; q = 1 }
let one = { p = 1; q = 1 }
let half = { p = 1; q = 2 }
let num r = r.p
let den r = r.q
let add a b = make ((a.p * b.q) + (b.p * a.q)) (a.q * b.q)
let sub a b = make ((a.p * b.q) - (b.p * a.q)) (a.q * b.q)
let mul a b = make (a.p * b.p) (a.q * b.q)

let div a b =
  if b.p = 0 then raise Division_by_zero;
  make (a.p * b.q) (a.q * b.p)

let neg a = { a with p = -a.p }

let inv a =
  if a.p = 0 then raise Division_by_zero;
  make a.q a.p

let mul_int a k = make (a.p * k) a.q
let compare a b = Stdlib.compare (a.p * b.q) (b.p * a.q)
let equal a b = a.p = b.p && a.q = b.q
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

(* Floor division that is correct for negative numerators. *)
let fdiv p q = if p >= 0 then p / q else -(((-p) + q - 1) / q)
let cdiv p q = -fdiv (-p) q
let floor r = fdiv r.p r.q
let ceil r = cdiv r.p r.q
let floor_mul r k = fdiv (r.p * k) r.q
let ceil_mul r k = cdiv (r.p * k) r.q
let to_float r = float_of_int r.p /. float_of_int r.q

let of_float_approx x =
  (* [int_of_float] of an infinity would feed the continued fraction below
     forever, and of a NaN an arbitrary integer. *)
  if not (Float.is_finite x) then
    invalid_arg "Ratio.of_float_approx: not a finite number";
  if Float.is_integer x then of_int (int_of_float x)
  else begin
    (* Continued-fraction convergents h_k / k_k until the denominator cap. *)
    let neg_input = Stdlib.( < ) x 0.0 in
    let x0 = Float.abs x in
    (* Convergents h_n/k_n with h_n = a_n h_(n-1) + h_(n-2); seeds are
       (h_(-1), k_(-1)) = (1, 0) and (h_(-2), k_(-2)) = (0, 1). *)
    let rec go x (h1, k1) (h0, k0) =
      let a = int_of_float (Float.floor x) in
      let h = (a * h1) + h0 and k = (a * k1) + k0 in
      if k > 10_000 then (h1, k1)
      else
        let frac = x -. Float.floor x in
        if Stdlib.( < ) frac 1e-12 then (h, k)
        else go (1.0 /. frac) (h, k) (h1, k1)
    in
    let h, k = go x0 (1, 0) (0, 1) in
    let r = make h (Stdlib.max k 1) in
    if neg_input then neg r else r
  end

let ( < ) a b = compare a b < 0
let ( <= ) a b = compare a b <= 0
let ( > ) a b = compare a b > 0
let ( >= ) a b = compare a b >= 0

let pp fmt r =
  if r.q = 1 then Format.fprintf fmt "%d" r.p
  else Format.fprintf fmt "%d/%d" r.p r.q

let to_string r = Format.asprintf "%a" pp r
