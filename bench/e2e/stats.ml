(* Exact-sample statistics: every timing the benchmark reports is computed
   from the full sample, never from histogram buckets. *)

(* Growable float buffer: the client records several floats per request
   and must not allocate a boxed float per sample. *)
module Fbuf = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.; n = 0 }

  let push b x =
    if b.n = Array.length b.a then begin
      let a = Array.make (2 * b.n) 0. in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    b.a.(b.n) <- x;
    b.n <- b.n + 1

  let length b = b.n
  let get b i = b.a.(i)
  let set b i x = b.a.(i) <- x
  let to_array b = Array.sub b.a 0 b.n
end

(* Linear interpolation between closest ranks (numpy's default), on a
   sorted copy. *)
let quantile xs q =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let s = Array.copy xs in
    Array.sort Float.compare s;
    let h = q *. float_of_int (n - 1) in
    let i = int_of_float h in
    if i >= n - 1 then s.(n - 1) else s.(i) +. ((h -. float_of_int i) *. (s.(i + 1) -. s.(i)))
  end

let median xs = quantile xs 0.5

let mean xs =
  if Array.length xs = 0 then nan
  else Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)

let sum xs = Array.fold_left ( +. ) 0. xs
