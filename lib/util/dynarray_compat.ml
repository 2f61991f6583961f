type 'a t = { mutable data : 'a array; mutable len : int }

let create () = { data = [||]; len = 0 }
let length d = d.len
let is_empty d = d.len = 0

let get d i =
  if i < 0 || i >= d.len then invalid_arg "Dynarray_compat.get";
  Array.unsafe_get d.data i

let set d i x =
  if i < 0 || i >= d.len then invalid_arg "Dynarray_compat.set";
  Array.unsafe_set d.data i x

(* Called when full.  Doubling by [Array.append] rather than [Array.make]
   with the pushed element: past 256 slots, [Array.make] with a young
   element forces a minor collection (see [Boxed_array]). *)
let grow d x =
  d.data <-
    (if Array.length d.data = 0 then Array.make 8 x
     else Array.append d.data d.data)

let push d x =
  if d.len = Array.length d.data then grow d x;
  Array.unsafe_set d.data d.len x;
  d.len <- d.len + 1

let pop d =
  if d.len = 0 then invalid_arg "Dynarray_compat.pop";
  d.len <- d.len - 1;
  Array.unsafe_get d.data d.len

let last d =
  if d.len = 0 then invalid_arg "Dynarray_compat.last";
  Array.unsafe_get d.data (d.len - 1)

let clear d = d.len <- 0

let iter f d =
  for i = 0 to d.len - 1 do
    f (Array.unsafe_get d.data i)
  done

let iteri f d =
  for i = 0 to d.len - 1 do
    f i (Array.unsafe_get d.data i)
  done

let fold_left f acc d =
  let acc = ref acc in
  for i = 0 to d.len - 1 do
    acc := f !acc (Array.unsafe_get d.data i)
  done;
  !acc

let exists p d =
  let rec go i = i < d.len && (p (Array.unsafe_get d.data i) || go (i + 1)) in
  go 0

let for_all p d = not (exists (fun x -> not (p x)) d)
let to_list d = List.init d.len (fun i -> Array.unsafe_get d.data i)
let to_array d = Array.sub d.data 0 d.len

let of_list l =
  let d = create () in
  List.iter (push d) l;
  d

let swap_remove d i =
  if i < 0 || i >= d.len then invalid_arg "Dynarray_compat.swap_remove";
  let x = Array.unsafe_get d.data i in
  d.len <- d.len - 1;
  Array.unsafe_set d.data i (Array.unsafe_get d.data d.len);
  x
