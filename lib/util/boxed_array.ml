(* [Max_young_wosize]: the longest array the runtime allocates on the
   minor heap, and so the longest chunk [Array.init] builds without a
   collection whatever its first element. *)
let chunk = 256

let init n f =
  if n <= chunk then Array.init n f
  else begin
    let rec chunks lo acc =
      if lo >= n then List.rev acc
      else
        let len = min chunk (n - lo) in
        chunks (lo + len) (Array.init len (fun i -> f (lo + i)) :: acc)
    in
    Array.concat (chunks 0 [])
  end

let map f a = init (Array.length a) (fun i -> f (Array.unsafe_get a i))

let of_list l =
  let rest = ref l in
  init (List.length l) (fun _ ->
      match !rest with
      | x :: tl ->
          rest := tl;
          x
      | [] -> assert false)
