(* The 64-bit splitmix state lives unboxed in an 8-byte [Bytes] buffer,
   read and written with the unaligned native-endian primitives: a mutable
   [int64] record field would box a fresh value on every store.  With [mix]
   and [bits64] inlined into the drawing functions below, the int64
   arithmetic stays in registers and a draw allocates nothing. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state s =
  let t = Bytes.create 8 in
  set64 t 0 s;
  t

let create seed = of_state (mix (Int64.of_int seed))

let[@inline] bits64 t =
  let s = Int64.add (get64 t 0) golden in
  set64 t 0 s;
  mix s

let split t = of_state (mix (bits64 t))

let stream t i =
  if i < 0 then invalid_arg "Prng.stream: index must be >= 0";
  (* A jump, not a draw: the parent is left untouched, so [stream t i]
     is a pure function of (t, i) and workers indexed 0..n-1 get the
     same streams regardless of spawn order.  The xor constant moves the
     derived state off the parent's own golden-ratio orbit before the
     double mix, so stream outputs never collide with the parent's. *)
  let s = Int64.add (get64 t 0) (Int64.mul golden (Int64.of_int (i + 1))) in
  of_state (mix (Int64.logxor (mix s) 0xD6E8FEB86659FD93L))

let copy = Bytes.copy

(* Rejection sampling on the top 62 bits to avoid modulo bias.  Top-level
   rather than a local [let rec], whose closure would be allocated on every
   call. *)
let rec int_below t bound =
  let mask = max_int in
  let v = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) land mask in
  let r = v mod bound in
  if v - r > mask - bound + 1 then int_below t bound else r

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  int_below t bound

let float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  bound *. (v /. 9007199254740992.0 (* 2^53 *))

let bool t = Int64.logand (bits64 t) 1L = 1L

let bernoulli t ~num ~den =
  if den <= 0 || num < 0 || num > den then invalid_arg "Prng.bernoulli";
  int_below t den < num

(* [int_below] unrolled into the loop, so a coin is one [bits64], one
   [mod] and a store: the same draws and rejections as [bernoulli], with no
   call per coin. *)
let bernoulli_fill t ~num ~den (a : bool array) =
  let n = Array.length a in
  if n > 0 then begin
    if den <= 0 || num < 0 || num > den then invalid_arg "Prng.bernoulli";
    let limit = max_int - den + 1 in
    let i = ref 0 in
    while !i < n do
      let v = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
      let r = v mod den in
      if v - r <= limit then begin
        Array.unsafe_set a !i (r < num);
        incr i
      end
    done
  end

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick t a =
  if Array.length a = 0 then invalid_arg "Prng.pick: empty array";
  a.(int t (Array.length a))
