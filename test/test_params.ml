(* Tests for the parameter calculus of Lemma 3.6 and the Appendix. *)

module R = Aqt_util.Ratio
module P = Aqt.Params

let check_int = Alcotest.(check int)
let _ = check_int
let check_bool = Alcotest.(check bool)

let near ?(tol = 1e-9) a b = abs_float (a -. b) < tol

let ri_basics () =
  (* R_1 = (1-r)/(1-r) = 1 for every r. *)
  check_bool "R_1 = 1" true (near (P.ri ~r:0.6 1) 1.0);
  check_bool "R_1 = 1 (r=0.7)" true (near (P.ri ~r:0.7 1) 1.0);
  (* R_2 = (1-r)/(1-r^2) = 1/(1+r). *)
  check_bool "R_2 = 1/(1+r)" true (near (P.ri ~r:0.6 2) (1.0 /. 1.6));
  Alcotest.check_raises "i >= 1" (Invalid_argument "Params.ri: i must be >= 1")
    (fun () -> ignore (P.ri ~r:0.6 0))

(* Equation (3.1): R_i / (r + R_i) = R_(i+1). *)
let ri_recurrence () =
  List.iter
    (fun r ->
      for i = 1 to 30 do
        let lhs = P.ri ~r i /. (r +. P.ri ~r i) in
        if not (near ~tol:1e-9 lhs (P.ri ~r (i + 1))) then
          Alcotest.failf "recurrence fails at r=%.2f i=%d" r i
      done)
    [ 0.51; 0.55; 0.6; 0.7; 0.75 ]

let ri_monotone () =
  List.iter
    (fun r ->
      for i = 1 to 40 do
        if P.ri ~r (i + 1) >= P.ri ~r i then
          Alcotest.failf "R_i must strictly decrease (r=%.2f i=%d)" r i
      done;
      (* Limit is 1 - r. *)
      if abs_float (P.ri ~r 300 -. (1.0 -. r)) > 1e-6 then
        Alcotest.failf "R_i limit wrong for r=%.2f" r)
    [ 0.55; 0.6; 0.7 ]

(* The Appendix: log(1/e)+2 < n < 2 log(1/e)+4 for 0 < eps < 1/sqrt 2 - 1/2. *)
let n_asymptotics () =
  List.iter
    (fun eps ->
      let r = 0.5 +. eps in
      let n = float_of_int (P.n_formula ~r ~eps) in
      let lo = (log (1.0 /. eps) /. log 2.0) +. 2.0 in
      let hi = (2.0 *. (log (1.0 /. eps) /. log 2.0)) +. 4.0 in
      if not (n > lo -. 1.0 && n < hi +. 1.0) then
        Alcotest.failf "n=%f outside appendix band (%f, %f) at eps=%f" n lo hi
          eps)
    [ 0.01; 0.02; 0.05; 0.1; 0.15; 0.2 ]

(* S0 = Theta(n r^-n): check s0 >= 2n always and the ratio s0/(n r^-n) is
   bounded by the appendix constants (1/16 .. 8 with slack). *)
let s0_asymptotics () =
  List.iter
    (fun eps ->
      let r = 0.5 +. eps in
      let n = P.n_formula ~r ~eps in
      let s0 = P.s0_formula ~r ~n in
      check_bool "s0 >= 2n" true (s0 >= 2 * n);
      let scale = float_of_int n *. (r ** float_of_int (-n)) in
      let ratio = float_of_int s0 /. scale in
      if not (ratio > 0.01 && ratio < 10.0) then
        Alcotest.failf "s0 not Theta(n r^-n): ratio %f at eps=%f" ratio eps)
    [ 0.01; 0.05; 0.1; 0.2 ]

let make_validation () =
  let p = P.make ~eps:(R.make 1 10) () in
  check_bool "rate = 3/5" true (R.equal p.rate (R.make 3 5));
  check_bool "r float" true (near p.r 0.6);
  check_bool "n from formula" true (p.n = P.n_formula ~r:0.6 ~eps:0.1);
  Alcotest.check_raises "eps too large"
    (Invalid_argument "Params.make: eps must be in (0, 1/2)") (fun () ->
      ignore (P.make ~eps:R.half ()));
  Alcotest.check_raises "eps zero"
    (Invalid_argument "Params.make: eps must be in (0, 1/2)") (fun () ->
      ignore (P.make ~eps:R.zero ()));
  Alcotest.check_raises "bad n" (Invalid_argument "Params.make: n must be >= 1")
    (fun () -> ignore (P.make ~n:0 ~eps:(R.make 1 10) ()));
  Alcotest.check_raises "bad s0"
    (Invalid_argument "Params.make: s0 must be >= 2n") (fun () ->
      ignore (P.make ~n:8 ~s0:3 ~eps:(R.make 1 10) ()))

(* Lemma 3.6's chain: S' = 2S(1-R_n) >= S(1+eps) for admissible n. *)
let s'_growth () =
  List.iter
    (fun (num, den) ->
      let eps = R.make num den in
      let p = P.make ~eps () in
      let s = 2 * p.s0 in
      let total_old = 2 * s in
      let s' = P.s' ~r:p.r ~n:p.n ~total_old in
      let target =
        int_of_float (float_of_int s *. (1.0 +. R.to_float eps))
      in
      if s' < target then
        Alcotest.failf "S'=%d below S(1+eps)=%d at eps=%d/%d" s' target num den)
    [ (1, 20); (1, 10); (3, 20); (1, 5) ]

(* Claim 3.7: 0 < X <= rS. *)
let x_in_range () =
  List.iter
    (fun (num, den) ->
      let eps = R.make num den in
      let p = P.make ~eps () in
      List.iter
        (fun mult ->
          let s = mult * p.s0 in
          let x = P.x_param ~r:p.r ~n:p.n ~total_old:(2 * s) ~s_ingress:s in
          let rs = int_of_float (p.r *. float_of_int s) in
          if not (x > 0 && x <= rs) then
            Alcotest.failf "X=%d outside (0, rS=%d] at eps=%d/%d S=%d" x rs num
              den s)
        [ 2; 3; 10; 50 ])
    [ (1, 20); (1, 10); (1, 5) ]

let ti_monotone () =
  let p = P.make ~eps:(R.make 1 10) () in
  let total_old = 4 * p.s0 in
  for i = 1 to p.n - 1 do
    let a = P.ti ~r:p.r ~n:p.n ~total_old ~i in
    let b = P.ti ~r:p.r ~n:p.n ~total_old ~i:(i + 1) in
    if a > b then Alcotest.failf "t_i must be nondecreasing (i=%d)" i;
    (* t_i < 2S: the short flows end before the phase does. *)
    if b >= total_old then Alcotest.failf "t_i exceeds phase length"
  done

let chain_lengths () =
  let m = P.chain_length ~eps:0.1 in
  check_bool "theorem growth exceeded" true
    (P.growth_per_cycle ~eps:0.1 ~m > 1.25);
  check_bool "minimal" true (P.growth_per_cycle ~eps:0.1 ~m:(m - 1) <= 1.25);
  let p = P.make ~eps:(R.make 1 10) () in
  let ma = P.chain_length_actual ~r:p.r ~n:p.n in
  check_bool "actual growth exceeded" true
    (P.cycle_growth_actual ~r:p.r ~n:p.n ~m:ma > 1.5);
  check_bool "actual model needs fewer gadgets" true (ma <= m)

let pump_factor_expansive () =
  List.iter
    (fun (num, den) ->
      let p = P.make ~eps:(R.make num den) () in
      let f = P.pump_factor ~r:p.r ~n:p.n in
      if f <= 1.0 +. R.to_float (R.make num den) then
        Alcotest.failf "pump factor %f not above 1+eps at eps=%d/%d" f num den)
    [ (1, 20); (1, 10); (1, 5) ]

let () =
  Alcotest.run "aqt_params"
    [
      ( "ri",
        [
          Alcotest.test_case "basics" `Quick ri_basics;
          Alcotest.test_case "recurrence (3.1)" `Quick ri_recurrence;
          Alcotest.test_case "monotone, limit 1-r" `Quick ri_monotone;
        ] );
      ( "appendix",
        [
          Alcotest.test_case "n = Theta(log 1/eps)" `Quick n_asymptotics;
          Alcotest.test_case "s0 = Theta(n r^-n)" `Quick s0_asymptotics;
        ] );
      ( "lemma-3.6",
        [
          Alcotest.test_case "make validation" `Quick make_validation;
          Alcotest.test_case "S' >= S(1+eps)" `Quick s'_growth;
          Alcotest.test_case "Claim 3.7: X range" `Quick x_in_range;
          Alcotest.test_case "t_i monotone" `Quick ti_monotone;
        ] );
      ( "composition",
        [
          Alcotest.test_case "chain lengths" `Quick chain_lengths;
          Alcotest.test_case "pump factor" `Quick pump_factor_expansive;
        ] );
    ]
