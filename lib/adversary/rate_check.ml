module Ratio = Aqt_util.Ratio

type violation = { edge : int; t1 : int; t2 : int; count : int; allowed : int }

let pp_violation fmt v =
  Format.fprintf fmt
    "edge %d: %d packets injected in [%d,%d] but only %d allowed" v.edge
    v.count v.t1 v.t2 v.allowed

(* Per-edge event lists, flat: edge [e]'s events sit at indices
   [off.(e) .. off.(e+1) - 1] of [times] (strictly increasing) and [counts]
   (multiplicities).  Routes are simple, so one packet contributes at most
   once per edge. *)
type buckets = { off : int array; times : int array; counts : int array }

(* One counting pass (which also validates the log), one fill pass. *)
let bucketize ~m log =
  let off = Array.make (m + 1) 0 in
  let last = Array.make m 0 in
  let prev_time = ref min_int in
  for i = 0 to Array.length log - 1 do
    let t, route = log.(i) in
    if t < !prev_time then
      invalid_arg "Rate_check: log not sorted by injection time";
    if t < 1 then invalid_arg "Rate_check: injection before step 1";
    prev_time := t;
    for k = 0 to Array.length route - 1 do
      let e = route.(k) in
      if e < 0 || e >= m then invalid_arg "Rate_check: edge out of range";
      if last.(e) <> t then begin
        last.(e) <- t;
        off.(e + 1) <- off.(e + 1) + 1
      end
    done
  done;
  for e = 0 to m - 1 do
    off.(e + 1) <- off.(e + 1) + off.(e)
  done;
  let times = Array.make off.(m) 0 and counts = Array.make off.(m) 0 in
  (* [next.(e)]: edge [e]'s first unwritten index. *)
  let next = Array.sub off 0 m in
  for i = 0 to Array.length log - 1 do
    let t, route = log.(i) in
    for k = 0 to Array.length route - 1 do
      let e = route.(k) in
      let j = next.(e) in
      if j > off.(e) && times.(j - 1) = t then
        counts.(j - 1) <- counts.(j - 1) + 1
      else begin
        times.(j) <- t;
        counts.(j) <- 1;
        next.(e) <- j + 1
      end
    done
  done;
  { off; times; counts }

(* The result of one scan: the largest excess and an interval
   [first, last] attaining it, holding [packets]. *)
type scan = {
  mutable worst : int;
  mutable first : int;
  mutable last : int;
  mutable packets : int;
}

let new_scan () = { worst = min_int; first = 0; last = 0; packets = 0 }

(* Scan the events [lo .. hi - 1] with the potential D_t = q*S_t - p*t.
   Records in [r] the maximum over t2 of (D_t2 - min_(u < t2) D_u) with a
   witness interval, which is enough for both the exact checks (violation
   iff the excess passes the edge's slack) and the burstiness measure.
   Ties keep the earliest t2, and for it the earliest t1. *)
let scan ~p ~q times counts lo hi r =
  r.worst <- min_int;
  let s = ref 0 in
  (* Minimum of D_u for u < current event time, with its witness. *)
  let min_d = ref 0 and min_t = ref 0 and min_s = ref 0 in
  for i = lo to hi - 1 do
    let t = Array.unsafe_get times i in
    let candidate = (q * !s) - (p * (t - 1)) in
    if candidate < !min_d then begin
      min_d := candidate;
      min_t := t - 1;
      min_s := !s
    end;
    s := !s + Array.unsafe_get counts i;
    let excess = (q * !s) - (p * t) - !min_d in
    if excess > r.worst then begin
      r.worst <- excess;
      r.first <- !min_t + 1;
      r.last <- t;
      r.packets <- !s - !min_s
    end
  done

(* The worst interval on the first edge whose excess passes [slack e],
   with the bound [allowed e len] that it breaks. *)
let first_violation ~m ~rate ~slack ~allowed log =
  let p = Ratio.num rate and q = Ratio.den rate in
  let b = bucketize ~m log in
  let r = new_scan () in
  let rec edge e =
    if e >= m then Ok ()
    else begin
      scan ~p ~q b.times b.counts b.off.(e) b.off.(e + 1) r;
      if r.worst > slack e then
        Error
          {
            edge = e;
            t1 = r.first;
            t2 = r.last;
            count = r.packets;
            allowed = allowed e (r.last - r.first + 1);
          }
      else edge (e + 1)
    end
  in
  edge 0

(* Enumerates every interval between two event times on every edge; on the
   first edge with a violation, reports the one of largest excess
   q*count - p*len (earliest t2, then earliest t1, among ties) — the
   interval the potential scan reports. *)
let first_violation_brute ~m ~rate ~allowed log =
  let p = Ratio.num rate and q = Ratio.den rate in
  let b = bucketize ~m log in
  let rec edge e =
    if e >= m then Ok ()
    else begin
      (* The worst violation so far, with its excess. *)
      let worst = ref None in
      for i = b.off.(e) to b.off.(e + 1) - 1 do
        let t1 = b.times.(i) in
        let count = ref 0 in
        for j = i to b.off.(e + 1) - 1 do
          let t2 = b.times.(j) in
          count := !count + b.counts.(j);
          let len = t2 - t1 + 1 in
          let excess = (q * !count) - (p * len) in
          let better =
            match !worst with
            | None -> true
            | Some (x, v) -> excess > x || (excess = x && t2 < v.t2)
          in
          let allowed = allowed e len in
          if !count > allowed && better then
            worst := Some (excess, { edge = e; t1; t2; count = !count; allowed })
        done
      done;
      match !worst with Some (_, v) -> Error v | None -> edge (e + 1)
    end
  in
  edge 0

let check_rate ~m ~rate log =
  first_violation ~m ~rate log
    ~slack:(fun _ -> Ratio.den rate - 1)
    ~allowed:(fun _ len -> Ratio.ceil_mul rate len)

let check_rate_brute ~m ~rate log =
  first_violation_brute ~m ~rate log ~allowed:(fun _ len ->
      Ratio.ceil_mul rate len)

let check_windowed ~m ~w ~rate log =
  if w < 1 then invalid_arg "Rate_check.check_windowed: w must be positive";
  let allowed = Ratio.floor_mul rate w in
  let b = bucketize ~m log in
  let rec edge e =
    if e >= m then Ok ()
    else begin
      (* Slide the closed window [t2 - w + 1, t2] over the edge's events;
         the first overfull window is the violation. *)
      let hi = b.off.(e + 1) in
      let i = ref b.off.(e) and j = ref b.off.(e) and sum = ref 0 in
      let over = ref false in
      while (not !over) && !j < hi do
        let t2 = b.times.(!j) in
        sum := !sum + b.counts.(!j);
        while b.times.(!i) <= t2 - w do
          sum := !sum - b.counts.(!i);
          incr i
        done;
        if !sum > allowed then over := true else incr j
      done;
      if !over then begin
        let t2 = b.times.(!j) in
        Error { edge = e; t1 = t2 - w + 1; t2; count = !sum; allowed }
      end
      else edge (e + 1)
    end
  in
  edge 0

let check_leaky ~m ~b ~rate log =
  if b < 0 then invalid_arg "Rate_check.check_leaky: negative burst";
  (* count <= r*len + b  <=>  D_t2 - D_u <= q*b  (integer arithmetic). *)
  first_violation ~m ~rate log
    ~slack:(fun _ -> Ratio.den rate * b)
    ~allowed:(fun _ len -> Ratio.floor_mul rate len + b)

(* Locally bursty admissibility (Rosenbaum, arXiv:2208.09522): one global
   rate rho but a per-edge burst budget sigma_e.  Per edge this is exactly
   the leaky-bucket scan with b = sigmas.(e):
   count <= rho*len + sigma_e  <=>  excess <= q * sigma_e. *)
let check_local ~rate ~sigmas log =
  Array.iteri
    (fun e s ->
      if s < 0 then
        invalid_arg
          (Printf.sprintf "Rate_check.check_local: negative sigma on edge %d" e))
    sigmas;
  first_violation ~m:(Array.length sigmas) ~rate log
    ~slack:(fun e -> Ratio.den rate * sigmas.(e))
    ~allowed:(fun e len -> Ratio.floor_mul rate len + sigmas.(e))

let check_local_brute ~rate ~sigmas log =
  first_violation_brute ~m:(Array.length sigmas) ~rate log
    ~allowed:(fun e len -> Ratio.floor_mul rate len + sigmas.(e))

let scan_edge ~rate events =
  let n = Array.length events in
  let times = Array.make n 0 and counts = Array.make n 0 in
  Array.iteri
    (fun i (t, c) ->
      if i > 0 && t <= times.(i - 1) then
        invalid_arg "Rate_check.scan_edge: times must be strictly increasing";
      if t < 1 then invalid_arg "Rate_check.scan_edge: event before step 1";
      if c < 1 then
        invalid_arg "Rate_check.scan_edge: multiplicity must be positive";
      times.(i) <- t;
      counts.(i) <- c)
    events;
  let r = new_scan () in
  scan ~p:(Ratio.num rate) ~q:(Ratio.den rate) times counts 0 n r;
  (r.worst, if n = 0 then None else Some (r.first, r.last, r.packets))

let burstiness ~m ~rate log =
  let p = Ratio.num rate and q = Ratio.den rate in
  let b = bucketize ~m log in
  let r = new_scan () in
  let worst = ref 0 in
  for e = 0 to m - 1 do
    scan ~p ~q b.times b.counts b.off.(e) b.off.(e + 1) r;
    let excess = r.worst in
    (* Slack b needed on this edge: count <= ceil(r*len) + b translates to
       excess - q*b <= q - 1. *)
    if excess > q - 1 then begin
      let need = (excess - (q - 1) + q - 1) / q in
      if need > !worst then worst := need
    end
  done;
  !worst
