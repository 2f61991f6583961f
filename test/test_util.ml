(* Unit and property tests for the aqt_util substrate. *)

module Ratio = Aqt_util.Ratio
module Dyn = Aqt_util.Dynarray_compat
module Boxed_array = Aqt_util.Boxed_array
module Prng = Aqt_util.Prng
module Tbl = Aqt_util.Tbl

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Ratio                                                               *)
(* ------------------------------------------------------------------ *)

let ratio_normalization () =
  let r = Ratio.make 6 4 in
  check_int "num" 3 (Ratio.num r);
  check_int "den" 2 (Ratio.den r);
  let r = Ratio.make (-6) 4 in
  check_int "neg num" (-3) (Ratio.num r);
  check_int "neg den" 2 (Ratio.den r);
  let r = Ratio.make 6 (-4) in
  check_int "den sign moves" (-3) (Ratio.num r);
  check_int "den positive" 2 (Ratio.den r);
  let r = Ratio.make 0 (-7) in
  check_int "zero num" 0 (Ratio.num r);
  check_int "zero den" 1 (Ratio.den r)

let ratio_zero_den () =
  Alcotest.check_raises "zero denominator"
    (Invalid_argument "Ratio.make: zero denominator") (fun () ->
      ignore (Ratio.make 1 0))

let ratio_arith () =
  let a = Ratio.make 1 2 and b = Ratio.make 1 3 in
  check_bool "add" true Ratio.(equal (add a b) (make 5 6));
  check_bool "sub" true Ratio.(equal (sub a b) (make 1 6));
  check_bool "mul" true Ratio.(equal (mul a b) (make 1 6));
  check_bool "div" true Ratio.(equal (div a b) (make 3 2));
  check_bool "neg" true Ratio.(equal (neg a) (make (-1) 2));
  check_bool "inv" true Ratio.(equal (inv (make 2 5)) (make 5 2));
  check_bool "mul_int" true Ratio.(equal (mul_int b 6) (of_int 2))

let ratio_div_by_zero () =
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Ratio.div Ratio.one Ratio.zero));
  Alcotest.check_raises "inv zero" Division_by_zero (fun () ->
      ignore (Ratio.inv Ratio.zero))

let ratio_floor_ceil () =
  check_int "floor 7/2" 3 (Ratio.floor (Ratio.make 7 2));
  check_int "ceil 7/2" 4 (Ratio.ceil (Ratio.make 7 2));
  check_int "floor -7/2" (-4) (Ratio.floor (Ratio.make (-7) 2));
  check_int "ceil -7/2" (-3) (Ratio.ceil (Ratio.make (-7) 2));
  check_int "floor integer" 5 (Ratio.floor (Ratio.of_int 5));
  check_int "ceil integer" 5 (Ratio.ceil (Ratio.of_int 5));
  check_int "floor_mul 3/5 * 7" 4 (Ratio.floor_mul (Ratio.make 3 5) 7);
  check_int "ceil_mul 3/5 * 7" 5 (Ratio.ceil_mul (Ratio.make 3 5) 7);
  check_int "floor_mul exact" 3 (Ratio.floor_mul (Ratio.make 3 5) 5);
  check_int "ceil_mul exact" 3 (Ratio.ceil_mul (Ratio.make 3 5) 5)

let ratio_compare () =
  check_bool "lt" true Ratio.(make 1 3 < make 1 2);
  check_bool "le eq" true Ratio.(make 2 4 <= make 1 2);
  check_bool "gt" true Ratio.(make 2 3 > make 1 2);
  check_bool "min" true Ratio.(equal (min (make 1 3) (make 1 2)) (make 1 3));
  check_bool "max" true Ratio.(equal (max (make 1 3) (make 1 2)) (make 1 2))

let ratio_of_float () =
  check_bool "1/3" true
    Ratio.(equal (of_float_approx (1.0 /. 3.0)) (make 1 3));
  check_bool "0.75" true Ratio.(equal (of_float_approx 0.75) (make 3 4));
  check_bool "negative" true
    Ratio.(equal (of_float_approx (-0.5)) (make (-1) 2));
  check_bool "integer" true Ratio.(equal (of_float_approx 4.0) (of_int 4))

let ratio_to_string () =
  check_string "fraction" "3/7" (Ratio.to_string (Ratio.make 3 7));
  check_string "integer" "2" (Ratio.to_string (Ratio.of_int 2))

let small_ratio =
  QCheck.map
    (fun (p, q) -> Ratio.make p q)
    (QCheck.pair (QCheck.int_range (-50) 50) (QCheck.int_range 1 50))

let prop_ratio_add_commutes =
  QCheck.Test.make ~name:"ratio add commutes" ~count:500
    (QCheck.pair small_ratio small_ratio) (fun (a, b) ->
      Ratio.(equal (add a b) (add b a)))

let prop_ratio_mul_assoc =
  QCheck.Test.make ~name:"ratio mul associates" ~count:500
    (QCheck.triple small_ratio small_ratio small_ratio) (fun (a, b, c) ->
      Ratio.(equal (mul (mul a b) c) (mul a (mul b c))))

let prop_ratio_floor_mul =
  QCheck.Test.make ~name:"floor_mul matches floor of product" ~count:500
    (QCheck.pair small_ratio (QCheck.int_range 0 100)) (fun (r, k) ->
      Ratio.floor_mul r k = Ratio.floor (Ratio.mul_int r k))

let prop_ratio_floor_ceil_adjacent =
  QCheck.Test.make ~name:"ceil - floor is 0 or 1" ~count:500 small_ratio
    (fun r ->
      let d = Ratio.ceil r - Ratio.floor r in
      d = 0 || d = 1)

(* ------------------------------------------------------------------ *)
(* Dynarray_compat                                                     *)
(* ------------------------------------------------------------------ *)

let dyn_basics () =
  let d = Dyn.create () in
  check_bool "fresh empty" true (Dyn.is_empty d);
  for i = 0 to 99 do
    Dyn.push d i
  done;
  check_int "length" 100 (Dyn.length d);
  check_int "get 57" 57 (Dyn.get d 57);
  Dyn.set d 57 (-1);
  check_int "set/get" (-1) (Dyn.get d 57);
  check_int "last" 99 (Dyn.last d);
  check_int "pop" 99 (Dyn.pop d);
  check_int "length after pop" 99 (Dyn.length d);
  Alcotest.check_raises "get out of bounds"
    (Invalid_argument "Dynarray_compat.get") (fun () -> ignore (Dyn.get d 99))

let dyn_swap_remove () =
  let d = Dyn.of_list [ 10; 20; 30; 40 ] in
  let removed = Dyn.swap_remove d 1 in
  check_int "removed" 20 removed;
  check_int "length" 3 (Dyn.length d);
  check_bool "40 moved into slot" true (Dyn.get d 1 = 40)

let dyn_iter_fold () =
  let d = Dyn.of_list [ 1; 2; 3; 4 ] in
  check_int "fold sum" 10 (Dyn.fold_left ( + ) 0 d);
  let acc = ref [] in
  Dyn.iteri (fun i x -> acc := (i, x) :: !acc) d;
  check_int "iteri count" 4 (List.length !acc);
  check_bool "exists" true (Dyn.exists (fun x -> x = 3) d);
  check_bool "for_all" true (Dyn.for_all (fun x -> x > 0) d);
  check_bool "to_list" true (Dyn.to_list d = [ 1; 2; 3; 4 ]);
  Dyn.clear d;
  check_int "cleared" 0 (Dyn.length d)

(* Runs [f] just after an explicit minor collection and returns how many
   more minor collections it ran. *)
let minor_collections_of f =
  Gc.minor ();
  let before = (Gc.quick_stat ()).Gc.minor_collections in
  f ();
  (Gc.quick_stat ()).Gc.minor_collections - before

(* Past 256 slots a doubling by [Array.make] with the young pushed element
   would force a minor collection.  A thousand fresh records take a few
   thousand words, far under one minor heap, so none may run at all. *)
let dyn_grows_without_collecting () =
  let d = Dyn.create () in
  let n =
    minor_collections_of (fun () ->
        for i = 0 to 999 do
          Dyn.push d (ref i)
        done)
  in
  check_int "minor collections" 0 n;
  check_int "length" 1000 (Dyn.length d);
  check_bool "every record in place" true
    (List.for_all (fun i -> !(Dyn.get d i) = i) (List.init 1000 Fun.id))

let prop_dyn_model =
  QCheck.Test.make ~name:"dynarray behaves like a list" ~count:200
    QCheck.(list small_int)
    (fun xs ->
      let d = Dyn.create () in
      List.iter (Dyn.push d) xs;
      Dyn.to_list d = xs && Dyn.length d = List.length xs)

(* ------------------------------------------------------------------ *)
(* Boxed_array                                                         *)
(* ------------------------------------------------------------------ *)

(* The same arrays as the stdlib's, at lengths on both sides of the
   256-element chunk, with [f] applied in index order. *)
let prop_boxed_matches_stdlib =
  QCheck.Test.make ~name:"boxed arrays equal the stdlib's" ~count:100
    QCheck.(int_range 0 1100)
    (fun n ->
      let order = ref [] in
      let a =
        Boxed_array.init n (fun i ->
            order := i :: !order;
            string_of_int i)
      in
      let l = List.init n string_of_int in
      a = Array.init n string_of_int
      && List.rev !order = List.init n Fun.id
      && Boxed_array.of_list l = Array.of_list l
      && Boxed_array.map (fun s -> s ^ "!") a
         = Array.map (fun s -> s ^ "!") a)

let boxed_no_collection () =
  let n =
    minor_collections_of (fun () ->
        ignore (Boxed_array.init 1000 (fun i -> ref i));
        ignore (Boxed_array.of_list (List.init 1000 (fun i -> (i, i))));
        ignore (Boxed_array.map (fun i -> [ i ]) (Array.init 1000 Fun.id)))
  in
  check_int "minor collections" 0 n;
  (* A float array stays flat, as [Array.init] would build it. *)
  check_bool "floats unboxed" true
    (Obj.tag (Obj.repr (Boxed_array.init 1000 float_of_int))
     = Obj.double_array_tag)

(* ------------------------------------------------------------------ *)
(* Prng                                                                *)
(* ------------------------------------------------------------------ *)

let prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  let xs = List.init 20 (fun _ -> Prng.int a 1000) in
  let ys = List.init 20 (fun _ -> Prng.int b 1000) in
  check_bool "same seed same stream" true (xs = ys);
  let c = Prng.create 43 in
  let zs = List.init 20 (fun _ -> Prng.int c 1000) in
  check_bool "different seed different stream" false (xs = zs)

let prng_bounds () =
  let p = Prng.create 7 in
  for _ = 1 to 1000 do
    let v = Prng.int p 17 in
    if v < 0 || v >= 17 then Alcotest.fail "out of bounds"
  done;
  Alcotest.check_raises "nonpositive bound"
    (Invalid_argument "Prng.int: bound must be positive") (fun () ->
      ignore (Prng.int p 0))

let prng_bernoulli_mean () =
  let p = Prng.create 11 in
  let hits = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Prng.bernoulli p ~num:3 ~den:10 then incr hits
  done;
  let mean = float_of_int !hits /. float_of_int n in
  check_bool "mean near 0.3" true (abs_float (mean -. 0.3) < 0.02)

let prng_shuffle_permutes () =
  let p = Prng.create 5 in
  let a = Array.init 50 Fun.id in
  Prng.shuffle p a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check_bool "permutation" true (sorted = Array.init 50 Fun.id)

let prng_split_independent () =
  let p = Prng.create 9 in
  let q = Prng.split p in
  let xs = List.init 10 (fun _ -> Prng.int p 1000) in
  let ys = List.init 10 (fun _ -> Prng.int q 1000) in
  check_bool "split streams differ" false (xs = ys)

(* ------------------------------------------------------------------ *)
(* Parallel                                                            *)
(* ------------------------------------------------------------------ *)

module Par = Aqt_util.Parallel

let parallel_matches_sequential () =
  let xs = List.init 100 Fun.id in
  let f x = (x * x) + 1 in
  check_bool "2 workers" true (Par.map ~workers:2 f xs = List.map f xs);
  check_bool "5 workers" true (Par.map ~workers:5 f xs = List.map f xs);
  check_bool "1 worker" true (Par.map ~workers:1 f xs = List.map f xs);
  check_bool "empty" true (Par.map ~workers:3 f [] = []);
  check_bool "singleton" true (Par.map ~workers:3 f [ 7 ] = [ 50 ])

let parallel_propagates_exceptions () =
  Alcotest.check_raises "first failure re-raised" (Failure "boom") (fun () ->
      ignore
        (Par.map ~workers:3
           (fun x -> if x = 42 then failwith "boom" else x)
           (List.init 100 Fun.id)))

exception Deep of int

(* The first failure's backtrace must survive the trip across the worker
   domain: Parallel.map captures the raw backtrace at the raise site and
   re-raises with [Printexc.raise_with_backtrace], so the caller's
   [get_raw_backtrace] still points into the worker's stack. *)
let parallel_preserves_backtraces () =
  Printexc.record_backtrace true;
  let rec burrow n = if n = 0 then raise (Deep 42) else 1 + burrow (n - 1) in
  match
    Par.map ~workers:2
      (fun x ->
        Printexc.record_backtrace true;
        if x = 7 then burrow 5 else x)
      (List.init 16 Fun.id)
  with
  | _ -> Alcotest.fail "expected Deep to propagate"
  | exception Deep 42 ->
      let bt = Printexc.get_raw_backtrace () in
      check_bool "backtrace non-empty" true
        (Printexc.raw_backtrace_length bt > 0)
  | exception e ->
      Alcotest.failf "wrong exception: %s" (Printexc.to_string e)

let parallel_rejects_bad_workers () =
  Alcotest.check_raises "workers >= 1"
    (Invalid_argument "Parallel.map: workers must be >= 1") (fun () ->
      ignore (Par.map ~workers:0 Fun.id [ 1 ]))

(* Independent simulations give identical results under domains. *)
let parallel_simulations_deterministic () =
  let run seed =
    let prng = Prng.create seed in
    let total = ref 0 in
    for _ = 1 to 1000 do
      total := !total + Prng.int prng 100
    done;
    !total
  in
  let seeds = List.init 8 Fun.id in
  check_bool "domain isolation" true
    (Par.map ~workers:4 run seeds = List.map run seeds)

let parallel_progress_callback () =
  (* Each completed count in 1..n is reported exactly once, in any order. *)
  let n = 50 in
  let seen = Array.make (n + 1) 0 in
  let mu = Mutex.create () in
  let on_done k =
    Mutex.lock mu;
    seen.(k) <- seen.(k) + 1;
    Mutex.unlock mu
  in
  ignore (Par.map ~workers:4 ~on_done Fun.id (List.init n Fun.id));
  check_bool "each count once" true
    (Array.for_all (fun c -> c = 1) (Array.sub seen 1 n));
  (* Sequential path reports too. *)
  let calls = ref [] in
  ignore
    (Par.map ~workers:1 ~on_done:(fun k -> calls := k :: !calls) Fun.id
       [ 10; 20; 30 ]);
  check_bool "sequential progress" true (List.rev !calls = [ 1; 2; 3 ])

(* Two domains that read the cell while its thunk runs wait for it: the
   thunk runs once, and all three readers hold the same value. *)
let parallel_once_across_domains () =
  let runs = Atomic.make 0 and started = Atomic.make false in
  let cell =
    Par.once (fun () ->
        Atomic.incr runs;
        Atomic.set started true;
        Unix.sleepf 0.05;
        ref 0)
  in
  let first = Domain.spawn cell in
  while not (Atomic.get started) do
    Domain.cpu_relax ()
  done;
  let later = List.init 2 (fun _ -> Domain.spawn cell) in
  let v = Domain.join first in
  let vs = List.map Domain.join later in
  check_int "thunk runs once" 1 (Atomic.get runs);
  check_bool "one value" true (List.for_all (fun w -> w == v) vs)

let parallel_once_retries_after_raise () =
  let runs = ref 0 in
  let cell =
    Par.once (fun () ->
        incr runs;
        if !runs = 1 then failwith "first" else ref !runs)
  in
  Alcotest.check_raises "first call raises" (Failure "first") (fun () ->
      ignore (cell ()));
  let v = cell () in
  check_int "second call runs the thunk" 2 !v;
  check_bool "third call reads the value" true (cell () == v);
  check_int "thunk runs twice" 2 !runs

(* ------------------------------------------------------------------ *)
(* Tbl / Csv / Ascii_plot                                              *)
(* ------------------------------------------------------------------ *)

let tbl_render () =
  let t = Tbl.create ~headers:[ "name"; "value" ] in
  Tbl.add_row t [ "alpha"; "1" ];
  Tbl.add_row t [ "b"; "22" ];
  let out = Tbl.render t in
  check_bool "mentions header" true
    (String.length out > 0
    && String.sub out 0 4 = "name");
  Alcotest.check_raises "row width"
    (Invalid_argument "Tbl.add_row: expected 2 cells, got 1") (fun () ->
      Tbl.add_row t [ "only" ])

let tbl_format_helpers () =
  check_string "fi" "42" (Tbl.fi 42);
  check_string "ff" "3.142" (Tbl.ff 3.14159);
  check_string "ff dec" "3.1" (Tbl.ff ~dec:1 3.14159);
  check_string "fb" "yes" (Tbl.fb true);
  check_string "fr" "1/2" (Tbl.fr Ratio.half)

let csv_quoting () =
  let buf = Buffer.create 64 in
  let c = Aqt_util.Csv_out.to_buffer buf in
  Aqt_util.Csv_out.write_row c [ "plain"; "with,comma"; "with\"quote" ];
  check_string "rfc4180" "plain,\"with,comma\",\"with\"\"quote\"\n"
    (Buffer.contents buf)

let csv_quote_field () =
  let q = Aqt_util.Csv_out.quote in
  check_string "plain untouched" "abc" (q "abc");
  check_string "empty untouched" "" (q "");
  check_string "comma" "\"a,b\"" (q "a,b");
  check_string "quote doubled" "\"a\"\"b\"" (q "a\"b");
  check_string "newline" "\"a\nb\"" (q "a\nb");
  check_string "cr" "\"a\rb\"" (q "a\rb")

(* ------------------------------------------------------------------ *)
(* Prng.stream                                                         *)
(* ------------------------------------------------------------------ *)

let prng_stream_decorrelated () =
  let p = Prng.create 123 in
  let take g = List.init 16 (fun _ -> Prng.int g 1_000_000) in
  let a = take (Prng.stream p 0) in
  let b = take (Prng.stream p 1) in
  let c = take (Prng.stream p 2) in
  check_bool "streams 0/1 differ" false (a = b);
  check_bool "streams 1/2 differ" false (b = c);
  check_bool "streams 0/2 differ" false (a = c)

let prng_stream_pure () =
  let p = Prng.create 7 in
  let mirror = Prng.copy p in
  let s = Prng.stream p 4 in
  ignore (List.init 8 (fun _ -> Prng.bits64 s));
  let after = List.init 8 (fun _ -> Prng.bits64 p) in
  let expected = List.init 8 (fun _ -> Prng.bits64 mirror) in
  check_bool "jump does not advance the parent" true (after = expected)

let prng_stream_reproducible () =
  (* Pure in (state, index): any worker start order yields the same
     per-worker sequences. *)
  let take g = List.init 16 (fun _ -> Prng.bits64 g) in
  let a = take (Prng.stream (Prng.create 99) 17) in
  let b = take (Prng.stream (Prng.create 99) 17) in
  check_bool "same (seed, index), same stream" true (a = b)

let prng_stream_negative () =
  Alcotest.check_raises "negative index"
    (Invalid_argument "Prng.stream: index must be >= 0") (fun () ->
      ignore (Prng.stream (Prng.create 1) (-1)))

(* ------------------------------------------------------------------ *)
(* Prng: the pinned splitmix64 stream                                  *)
(* ------------------------------------------------------------------ *)

(* Every drawing function in a fixed order from one seed, printed exactly
   (hex int64s, hex floats).  The expected transcripts are literal values
   recorded from the original record-field implementation, so a change of
   representation that alters any draw fails here, not only in the
   campaign digests downstream. *)
let prng_transcript seed =
  let p = Prng.create seed in
  let out = Buffer.create 256 in
  (* Sequenced explicitly: list and tuple elements evaluate in no
     specified order. *)
  let draws n f =
    if Buffer.length out > 0 then Buffer.add_string out " |";
    for _ = 1 to n do
      Buffer.add_char out ' ';
      Buffer.add_string out (f ())
    done
  in
  let hex g () = Printf.sprintf "%016LX" (Prng.bits64 g) in
  draws 3 (hex p);
  draws 6 (fun () -> string_of_int (Prng.int p 1000));
  draws 2 (fun () -> string_of_int (Prng.int p max_int));
  draws 3 (fun () -> Printf.sprintf "%h" (Prng.float p 1.0));
  draws 12 (fun () -> if Prng.bernoulli p ~num:3 ~den:10 then "1" else "0");
  draws 6 (fun () -> if Prng.bool p then "1" else "0");
  let q = Prng.split p in
  draws 2 (hex q);
  draws 1 (hex p);
  let s3 = Prng.stream p 3 in
  let s0 = Prng.stream p 0 in
  draws 2 (hex s3);
  draws 3 (fun () -> string_of_int (Prng.int s0 1_000_000));
  draws 1 (hex p);
  String.trim (Buffer.contents out)

let prng_golden_stream () =
  List.iter
    (fun (seed, expected) ->
      check_string (Printf.sprintf "seed %d" seed) expected
        (prng_transcript seed))
    [
      ( 0,
        "E220A8397B1DCDAF 6E789E6AA1B965F4 06C45D188009454F | 611 686 522 \
         728 735 824 | 4390466628494765097 1828385819961610050 | \
         0x1.85a64dc00ab7bp-1 0x1.0c43407fc177bp-1 0x1.1c3eeaab30755p-1 | \
         0 0 1 0 0 1 0 0 0 0 1 0 | 0 0 0 0 1 1 | D0B84890AE440D9C \
         DD82665E7CB1BF10 | 05582D37111AC529 | D09E146D90AECC18 \
         5F8DEE6B102FB4FC | 27420 338325 872062 | D254741F599DC6F7" );
      ( 42,
        "989B3F130A063869 290DB4BF2570DED7 2A990BE63A01B2D5 | 91 889 528 \
         122 996 195 | 1124334894917578461 3525383132830741061 | \
         0x1.c5be13f199e4dp-1 0x1.ccc9f62cda7b8p-1 0x1.494766cf71b6p-4 | \
         0 1 0 0 0 1 1 0 1 0 1 1 | 0 0 0 0 1 0 | 6E044982938E9E87 \
         24E57CB0A2410CAC | 5E67829D4E432BAE | E83D4BEF2541BC44 \
         8975D903B5A5EE2C | 871343 191215 13767 | 5CD221D8B9BA24B6" );
      ( -7,
        "A39B91CB5ECB1A80 22FC9FCABF787829 DAC2B2A0E5BE4A45 | 522 545 899 \
         998 483 886 | 4241217190085272631 4001929919676705715 | \
         0x1.c8ddfd32a6d46p-1 0x1.b9f792c5e4f31p-1 0x1.48462f31a46adp-1 | \
         0 0 0 0 1 0 0 0 1 0 0 0 | 1 0 0 0 0 0 | B1141FFB7D2464EB \
         8F3BA24745DA020F | 0B28C3B3EA3D12FB | C54F27781970B51A \
         9CCFBFA1BA1C2E9F | 502311 860562 179426 | 728269CCC95C0276" );
      ( 123456789,
        "1A945675088650AC F5B1A8E4853A833E 075CA298AA68B210 | 342 582 6 527 \
         529 415 | 4355402728359679414 891703519339960396 | \
         0x1.619cbcc48fbf2p-1 0x1.2980e2627536bp-1 0x1.a6e51b97c3ccdp-1 | \
         0 1 1 0 1 0 0 0 0 0 0 1 | 0 0 0 0 0 1 | 411C2D94A4CDD574 \
         D1E8F855D284C05A | 028B41A307830E63 | C83F19F4CA007AC1 \
         7503A49360420F6A | 407525 944823 857320 | 404DB48CDC5A0881" );
    ]

(* A bound just above 2^61 rejects about half of all raw draws, so these
   values pin the rejection loop as well as the accepted path. *)
let prng_golden_rejection () =
  List.iter
    (fun (seed, expected, next) ->
      let p = Prng.create seed in
      let got = List.init 6 (fun _ -> Prng.int p ((1 lsl 61) + 1)) in
      Alcotest.(check (list int)) (Printf.sprintf "seed %d" seed) expected got;
      check_string "draws consumed" next
        (Printf.sprintf "%016LX" (Prng.bits64 p)))
    [
      ( 0,
        [
          1990071630548588925; 121904254867886419; 490437550606523686;
          1509523650315790522; 801824006500076728; 1133040290248155824;
        ],
        "F3B8488C368CB0A6" );
      ( 42,
        [
          739554815828047797; 767374426118319285; 221479889520321091;
          1084310982420964528; 1288224301085851122; 705096088656582996;
        ],
        "C2BC249E28760CCD" );
    ]

(* One fill per seed, then the next raw draw: 20 coins at 3/10 and 8 at
   2^60/(2^61 + 1), where about half the draws are rejected.  Recorded as
   that many single [bernoulli] draws, before the fill existed. *)
let prng_golden_fill () =
  List.iter
    (fun (seed, expected) ->
      let p = Prng.create seed in
      let coins n ~num ~den =
        let a = Array.make n false in
        Prng.bernoulli_fill p ~num ~den a;
        String.init n (fun i -> if a.(i) then '1' else '0')
      in
      let a = coins 20 ~num:3 ~den:10 in
      let b = coins 8 ~num:(1 lsl 60) ~den:((1 lsl 61) + 1) in
      check_string (Printf.sprintf "seed %d" seed) expected
        (Printf.sprintf "%s %s %016LX" a b (Prng.bits64 p)))
    [
      (0, "00010100001110001001 00011100 3C3C41A3B43343A1");
      (42, "10010010011000010001 01001111 5E67829D4E432BAE");
      (-7, "01010000010011000010 00000101 BA6B2E442B4B6352");
      (123456789, "00011000000100011010 10111011 404DB48CDC5A0881");
    ]

(* The fill writes the coins of as many single draws and leaves the
   generator where they would: lengths 0-300, and [num]/[den] at the edges
   ([num = 0], [num = den], [den = 1]) and beyond 2^60, where the rejection
   loop runs. *)
let prop_prng_fill_matches_draws =
  let with_num den =
    QCheck.Gen.(map (fun num -> (num, den)) (int_range 0 den))
  in
  let num_den =
    QCheck.Gen.(
      oneof
        [
          map (fun d -> (0, d)) (int_range 1 1000);
          map (fun d -> (d, d)) (int_range 1 1000);
          oneofl [ (0, 1); (1, 1); (1 lsl 60, (1 lsl 61) + 1) ];
          int_range 1 1000 >>= with_num;
          int_range (1 lsl 60) max_int >>= with_num;
        ])
  in
  QCheck.Test.make ~count:300 ~name:"bernoulli_fill equals repeated bernoulli"
    QCheck.(
      triple int (int_range 0 300)
        (make ~print:Print.(pair int int) num_den))
    (fun (seed, n, (num, den)) ->
      let p = Prng.create seed and q = Prng.create seed in
      let a = Array.make n true in
      Prng.bernoulli_fill p ~num ~den a;
      let b = Array.init n (fun _ -> Prng.bernoulli q ~num ~den) in
      a = b && Prng.bits64 p = Prng.bits64 q)

(* A bad rate raises only when there is a coin to draw, and draws
   nothing. *)
let prng_fill_validates () =
  let p = Prng.create 5 in
  let mirror = Prng.copy p in
  List.iter
    (fun (num, den) ->
      Prng.bernoulli_fill p ~num ~den [||];
      Alcotest.check_raises
        (Printf.sprintf "%d/%d" num den)
        (Invalid_argument "Prng.bernoulli")
        (fun () -> Prng.bernoulli_fill p ~num ~den [| false |]))
    [ (1, 0); (0, -2); (-1, 3); (4, 3) ];
  check_bool "no draw consumed" true (Prng.bits64 p = Prng.bits64 mirror)

let prng_draws_allocate_nothing () =
  let p = Prng.create 3 in
  let hits = ref 0 in
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    if Prng.bernoulli p ~num:3 ~den:10 then incr hits
  done;
  let words = Gc.minor_words () -. before in
  check_bool "some draws hit" true (!hits > 0);
  Alcotest.(check (float 0.)) "minor words for 10,000 draws" 0. words

let prng_fill_allocates_nothing () =
  let p = Prng.create 3 in
  let coins = Array.make 1_000 false in
  let before = Gc.minor_words () in
  for _ = 1 to 10 do
    Prng.bernoulli_fill p ~num:3 ~den:10 coins
  done;
  let words = Gc.minor_words () -. before in
  check_bool "some coins hit" true (Array.exists Fun.id coins);
  Alcotest.(check (float 0.)) "minor words for 10,000 coins" 0. words

(* ------------------------------------------------------------------ *)
(* Jsonx                                                               *)
(* ------------------------------------------------------------------ *)

module Jsonx = Aqt_util.Jsonx

let jsonx_parse_basics () =
  check_bool "null" true (Jsonx.of_string " null " = Jsonx.Null);
  check_bool "int" true (Jsonx.of_string "-42" = Jsonx.Int (-42));
  check_bool "float" true (Jsonx.of_string "2.5" = Jsonx.Float 2.5);
  check_bool "escapes" true
    (Jsonx.of_string {|"a\nbA"|} = Jsonx.Str "a\nbA");
  check_bool "nested" true
    (Jsonx.of_string {|{"k":[1,true,"s"],"m":{}}|}
    = Jsonx.Obj
        [ ("k", Jsonx.List [ Jsonx.Int 1; Jsonx.Bool true; Jsonx.Str "s" ]);
          ("m", Jsonx.Obj []) ])

let jsonx_parse_rejects () =
  let bad s =
    match Jsonx.of_string s with
    | _ -> Alcotest.failf "accepted %S" s
    | exception Failure _ -> ()
  in
  List.iter bad
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2"; "{1:2}" ]

let jsonx_value_gen =
  let open QCheck.Gen in
  let scalar =
    oneof
      [
        return Jsonx.Null;
        map (fun b -> Jsonx.Bool b) bool;
        map (fun i -> Jsonx.Int i) (int_range (-1_000_000) 1_000_000);
        (* Multiples of 1/64 are binary-exact, so equality is meaningful;
           non-finite floats are excluded (they serialize as null). *)
        map
          (fun i -> Jsonx.Float (float_of_int i /. 64.))
          (int_range (-1_000_000) 1_000_000);
        map (fun s -> Jsonx.Str s) (string_size ~gen:printable (int_bound 12));
      ]
  in
  let key = string_size ~gen:printable (int_bound 8) in
  sized
    (fix (fun self n ->
         if n <= 0 then scalar
         else
           frequency
             [
               (3, scalar);
               ( 1,
                 map
                   (fun l -> Jsonx.List l)
                   (list_size (int_bound 4) (self (n / 2))) );
               ( 1,
                 map
                   (fun kvs -> Jsonx.Obj kvs)
                   (list_size (int_bound 4) (pair key (self (n / 2)))) );
             ]))

let prop_jsonx_roundtrip =
  QCheck.Test.make ~count:500 ~name:"jsonx decode (encode v) = v"
    (QCheck.make ~print:Jsonx.to_string jsonx_value_gen) (fun v ->
      Jsonx.of_string (Jsonx.to_string v) = v)

let ascii_plot_smoke () =
  let plot = Aqt_util.Ascii_plot.create ~title:"t" () in
  Aqt_util.Ascii_plot.add_series plot ~glyph:'*'
    (Array.init 10 (fun i -> (float_of_int i, float_of_int (i * i))));
  let s = Aqt_util.Ascii_plot.render plot in
  check_bool "nonempty" true (String.length s > 100);
  check_bool "contains glyph" true (String.contains s '*')

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "aqt_util"
    [
      ( "ratio",
        [
          Alcotest.test_case "normalization" `Quick ratio_normalization;
          Alcotest.test_case "zero denominator" `Quick ratio_zero_den;
          Alcotest.test_case "arithmetic" `Quick ratio_arith;
          Alcotest.test_case "division by zero" `Quick ratio_div_by_zero;
          Alcotest.test_case "floor/ceil" `Quick ratio_floor_ceil;
          Alcotest.test_case "comparisons" `Quick ratio_compare;
          Alcotest.test_case "of_float_approx" `Quick ratio_of_float;
          Alcotest.test_case "to_string" `Quick ratio_to_string;
          q prop_ratio_add_commutes;
          q prop_ratio_mul_assoc;
          q prop_ratio_floor_mul;
          q prop_ratio_floor_ceil_adjacent;
        ] );
      ( "dynarray",
        [
          Alcotest.test_case "basics" `Quick dyn_basics;
          Alcotest.test_case "swap_remove" `Quick dyn_swap_remove;
          Alcotest.test_case "iterators" `Quick dyn_iter_fold;
          Alcotest.test_case "grows without collecting" `Quick
            dyn_grows_without_collecting;
          q prop_dyn_model;
        ] );
      ( "boxed",
        [
          q prop_boxed_matches_stdlib;
          Alcotest.test_case "no minor collection" `Quick boxed_no_collection;
        ] );
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick prng_deterministic;
          Alcotest.test_case "bounds" `Quick prng_bounds;
          Alcotest.test_case "bernoulli mean" `Quick prng_bernoulli_mean;
          Alcotest.test_case "shuffle permutes" `Quick prng_shuffle_permutes;
          Alcotest.test_case "split independence" `Quick prng_split_independent;
          Alcotest.test_case "stream decorrelation" `Quick
            prng_stream_decorrelated;
          Alcotest.test_case "stream is a jump" `Quick prng_stream_pure;
          Alcotest.test_case "stream reproducible" `Quick
            prng_stream_reproducible;
          Alcotest.test_case "stream negative index" `Quick
            prng_stream_negative;
          Alcotest.test_case "golden stream" `Quick prng_golden_stream;
          Alcotest.test_case "golden rejection path" `Quick
            prng_golden_rejection;
          Alcotest.test_case "draws allocate nothing" `Quick
            prng_draws_allocate_nothing;
          Alcotest.test_case "golden fill" `Quick prng_golden_fill;
          q prop_prng_fill_matches_draws;
          Alcotest.test_case "fill validates" `Quick prng_fill_validates;
          Alcotest.test_case "fill allocates nothing" `Quick
            prng_fill_allocates_nothing;
        ] );
      ( "jsonx",
        [
          Alcotest.test_case "parse basics" `Quick jsonx_parse_basics;
          Alcotest.test_case "parse rejects" `Quick jsonx_parse_rejects;
          q prop_jsonx_roundtrip;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "matches sequential" `Quick
            parallel_matches_sequential;
          Alcotest.test_case "exception propagation" `Quick
            parallel_propagates_exceptions;
          Alcotest.test_case "backtrace preservation" `Quick
            parallel_preserves_backtraces;
          Alcotest.test_case "bad workers" `Quick parallel_rejects_bad_workers;
          Alcotest.test_case "simulation isolation" `Quick
            parallel_simulations_deterministic;
          Alcotest.test_case "progress callback" `Quick
            parallel_progress_callback;
          Alcotest.test_case "once runs once across domains" `Quick
            parallel_once_across_domains;
          Alcotest.test_case "once retries after a raise" `Quick
            parallel_once_retries_after_raise;
        ] );
      ( "output",
        [
          Alcotest.test_case "table render" `Quick tbl_render;
          Alcotest.test_case "format helpers" `Quick tbl_format_helpers;
          Alcotest.test_case "csv quoting" `Quick csv_quoting;
          Alcotest.test_case "csv quote field" `Quick csv_quote_field;
          Alcotest.test_case "ascii plot" `Quick ascii_plot_smoke;
        ] );
    ]
