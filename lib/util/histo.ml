type t = {
  counts : int array; (* bucket i holds values in [2^(i-1), 2^i - 1]; bucket 0 = {0} *)
  mutable total : int;
  mutable max_value : int;
}

let n_buckets = 63

let create () =
  { counts = Array.make n_buckets 0; total = 0; max_value = 0 }

let bucket_of v =
  if v = 0 then 0
  else begin
    (* 1 + position of the highest set bit: v in [2^(i-1), 2^i - 1] -> i. *)
    let rec go i v = if v = 0 then i else go (i + 1) (v lsr 1) in
    go 0 v
  end

let bucket_range i =
  if i = 0 then (0, 0) else (1 lsl (i - 1), (1 lsl i) - 1)

let record t v =
  if v < 0 then invalid_arg "Histo.record: negative value";
  let b = bucket_of v in
  t.counts.(b) <- t.counts.(b) + 1;
  t.total <- t.total + 1;
  if v > t.max_value then t.max_value <- v

let count t = t.total
let max_value t = t.max_value

(* Bucket-wise accumulation: used by the parallel engine backend to fold
   per-domain histograms into one at a step barrier.  Log-bucket counts are
   additive, so the merged histogram is exactly the one a sequential run
   would have built record by record. *)
let merge_into ~into src =
  Array.iteri
    (fun i c -> if c > 0 then into.counts.(i) <- into.counts.(i) + c)
    src.counts;
  into.total <- into.total + src.total;
  if src.max_value > into.max_value then into.max_value <- src.max_value

let reset t =
  Array.fill t.counts 0 n_buckets 0;
  t.total <- 0;
  t.max_value <- 0

let percentile t p =
  if t.total = 0 then 0
  else begin
    let p = Float.min 1.0 (Float.max 0.0 p) in
    let target = int_of_float (Float.ceil (p *. float_of_int t.total)) in
    let target = max 1 target in
    let rec go i acc =
      if i >= n_buckets then t.max_value
      else begin
        let acc = acc + t.counts.(i) in
        if acc >= target then min (snd (bucket_range i)) t.max_value
        else go (i + 1) acc
      end
    in
    go 0 0
  end

let mean_upper t =
  if t.total = 0 then 0.0
  else begin
    let sum = ref 0.0 in
    Array.iteri
      (fun i c ->
        if c > 0 then
          sum := !sum +. (float_of_int c *. float_of_int (snd (bucket_range i))))
      t.counts;
    !sum /. float_of_int t.total
  end

let buckets t =
  let acc = ref [] in
  for i = n_buckets - 1 downto 0 do
    if t.counts.(i) > 0 then begin
      let lo, hi = bucket_range i in
      acc := (lo, hi, t.counts.(i)) :: !acc
    end
  done;
  !acc
