(* Campaign harness: JSON round-trips, spec hashing, the content-addressed
   cache, the crash-tolerant scheduler, and the JSONL journal. *)

module Jsonx = Aqt_util.Jsonx
module Spec = Aqt_harness.Spec
module Registry = Aqt_harness.Registry
module Rb = Aqt_harness.Registry.Rb
module Cache = Aqt_harness.Cache
module Journal = Aqt_harness.Journal
module Scheduler = Aqt_harness.Scheduler
module Fault = Aqt_harness.Fault

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let check_strings = Alcotest.(check (list string))

let temp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "aqt_harness_test_%d_%d" (Unix.getpid ()) !counter)
    in
    (* Fresh per test; the harness creates it on demand. *)
    d

(* ------------------------------------------------------------------ *)
(* Jsonx                                                               *)
(* ------------------------------------------------------------------ *)

let roundtrip v = Jsonx.of_string (Jsonx.to_string v)

let jsonx_roundtrip () =
  let v =
    Jsonx.Obj
      [
        ("null", Jsonx.Null);
        ("bools", Jsonx.List [ Jsonx.Bool true; Jsonx.Bool false ]);
        ("int", Jsonx.Int (-42));
        ("float", Jsonx.Float 3.25);
        ("big", Jsonx.Float 1.2345678901234567e300);
        ("str", Jsonx.Str "line\nbreak \"quoted\" back\\slash \t tab");
        ("empty_obj", Jsonx.Obj []);
        ("empty_list", Jsonx.List []);
        ("nested", Jsonx.List [ Jsonx.Obj [ ("k", Jsonx.Int 1) ] ]);
      ]
  in
  check_bool "structural equality" true (roundtrip v = v);
  check_bool "idempotent render" true
    (Jsonx.to_string v = Jsonx.to_string (roundtrip v))

let jsonx_parses_escapes () =
  check_bool "unicode escape" true
    (Jsonx.of_string {|"éA"|} = Jsonx.Str "\xc3\xa9A");
  check_bool "whitespace tolerated" true
    (Jsonx.of_string " { \"a\" : [ 1 , 2 ] } "
    = Jsonx.Obj [ ("a", Jsonx.List [ Jsonx.Int 1; Jsonx.Int 2 ]) ]);
  check_bool "nan serializes as null" true
    (Jsonx.to_string (Jsonx.Float Float.nan) = "null")

let jsonx_rejects_garbage () =
  let bad s =
    match Jsonx.of_string s with
    | exception Failure _ -> true
    | _ -> false
  in
  check_bool "trailing garbage" true (bad "1 2");
  check_bool "unterminated string" true (bad {|"abc|});
  check_bool "bare word" true (bad "frue");
  check_bool "unclosed object" true (bad {|{"a": 1|})

(* ------------------------------------------------------------------ *)
(* Spec                                                                *)
(* ------------------------------------------------------------------ *)

let spec_a : Spec.t =
  [
    ("eps", Spec.Ratio (1, 5));
    ("s0", Spec.Int 400);
    ("tags", Spec.List [ Spec.Str "x"; Spec.Str "y" ]);
    ("scale", Spec.Float 1.5);
    ("on", Spec.Bool true);
  ]

let spec_hash_deterministic () =
  let h1 = Spec.hash ~name:"e1" spec_a in
  let h2 = Spec.hash ~name:"e1" (List.rev spec_a) in
  check_string "field order irrelevant" h1 h2;
  check_int "hex digest length" 32 (String.length h1)

let spec_hash_sensitivity () =
  let h = Spec.hash ~name:"e1" spec_a in
  let bump v = Spec.hash ~name:"e1" (("s0", v) :: List.remove_assoc "s0" spec_a) in
  check_bool "value change" true (bump (Spec.Int 401) <> h);
  check_bool "type change" true (bump (Spec.Str "400") <> h);
  check_bool "name change" true (Spec.hash ~name:"e2" spec_a <> h);
  check_bool "salt change" true (Spec.hash ~salt:"v2" ~name:"e1" spec_a <> h)

let spec_rejects_duplicates () =
  check_bool "duplicate key" true
    (match Spec.canonical [ ("a", Spec.Int 1); ("a", Spec.Int 2) ] with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Registry + result serialization                                     *)
(* ------------------------------------------------------------------ *)

let sample_result () =
  let rb = Rb.create () in
  Rb.note rb "before\n";
  Rb.table rb ~id:"t1" ~headers:[ "a"; "b" ]
    [ [ "1"; "x" ]; [ "2"; "y,z" ] ];
  Rb.note rb "after";
  Rb.metric rb "max_queue" 17.0;
  Rb.trajectory rb
    [ [ ("t", 0.); ("q", 1.) ]; [ ("t", 500.); ("q", 9.) ] ];
  Rb.result rb

let result_json_roundtrip () =
  let r = sample_result () in
  let r' = Registry.result_of_json (Registry.result_to_json r) in
  check_bool "items" true (r'.Registry.items = r.Registry.items);
  check_bool "metrics" true (r'.Registry.metrics = r.Registry.metrics);
  check_bool "trajectory" true (r'.Registry.trajectory = r.Registry.trajectory)

let dummy_entry ?(spec = spec_a) ?(run = fun () -> sample_result ()) name =
  { Registry.name; title = name; spec; run }

let registry_basics () =
  let reg = Registry.create () in
  Registry.register reg (dummy_entry "b");
  Registry.register reg (dummy_entry "a");
  check_bool "registration order" true (Registry.names reg = [ "b"; "a" ]);
  check_bool "find hit" true (Registry.find reg "a" <> None);
  check_bool "find miss" true (Registry.find reg "zz" = None);
  check_bool "duplicate rejected" true
    (match Registry.register reg (dummy_entry "a") with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* Raise [Fault.Injected] at the first [times] hits of [point] while [f]
   runs ([max_int]: at every hit).  The counter is atomic because
   scheduler domains may reach the point concurrently. *)
let with_fault ~times point f =
  let hits = Atomic.make 0 in
  Fault.install (fun p ->
      if p = point && Atomic.fetch_and_add hits 1 < times then
        raise (Fault.Injected "injected"));
  Fun.protect ~finally:Fault.clear f

let no_temp_files cache =
  let files = try Sys.readdir (Cache.dir cache) with Sys_error _ -> [||] in
  Array.for_all (fun f -> not (Filename.check_suffix f ".tmp")) files

(* A cache and an open journal in a fresh directory. *)
let scheduler_fixture () =
  let dir = temp_dir () in
  let cache = Cache.create ~dir:(Filename.concat dir "cache") in
  let journal = Journal.create (Filename.concat dir "run.jsonl") in
  (cache, journal)

let outcome_of (r : Scheduler.task_result) = r.Scheduler.outcome

(* Each result's outcome as the journal names it, a failure without its
   message. *)
let outcomes rs =
  List.map
    (fun r ->
      match outcome_of r with
      | Journal.Failed _ -> "failed"
      | o -> Journal.outcome_to_string o)
    rs

(* The events a writer has flushed so far. *)
let events journal = Journal.load (Journal.file journal)

let count p events = List.length (List.filter p events)

let is_retry_of task = function
  | Journal.Task_retry { name; _ } -> name = task
  | _ -> false

let is_timeout = function Journal.Task_timeout _ -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* Cache                                                               *)
(* ------------------------------------------------------------------ *)

let cache_roundtrip () =
  let cache = Cache.create ~dir:(temp_dir ()) in
  let entry = dummy_entry "e1" in
  let key = Cache.key entry in
  check_bool "cold miss" true (Cache.lookup cache ~key = None);
  let r = sample_result () in
  Cache.store cache ~key ~name:"e1" ~spec:entry.Registry.spec ~duration:0.25 r;
  (match Cache.lookup cache ~key with
  | None -> Alcotest.fail "expected a hit after store"
  | Some c ->
      check_string "name" "e1" c.Cache.name;
      check_bool "duration" true (c.Cache.duration = 0.25);
      check_bool "result round-trips" true (c.Cache.result = r));
  check_int "entries" 1 (List.length (Cache.entries cache));
  (* A different salt is a different key: the old file is never consulted. *)
  let key' = Cache.key ~salt:"new-code" entry in
  check_bool "salted key differs" true (key' <> key);
  check_bool "salted miss" true (Cache.lookup cache ~key:key' = None);
  check_int "clean removes" 1 (Cache.clean cache);
  check_bool "miss after clean" true (Cache.lookup cache ~key = None)

let cache_corrupt_is_miss () =
  let cache = Cache.create ~dir:(temp_dir ()) in
  let entry = dummy_entry "e1" in
  let key = Cache.key entry in
  Cache.store cache ~key ~name:"e1" ~spec:entry.Registry.spec ~duration:0.1
    (sample_result ());
  let file = Filename.concat (Cache.dir cache) (key ^ ".json") in
  let oc = open_out file in
  output_string oc "{ definitely not json";
  close_out oc;
  check_bool "corrupt file is a miss" true (Cache.lookup cache ~key = None)

let cache_store_over_existing () =
  (* Two domains (or a retry after a mid-store crash) may both publish the
     same key: the second rename lands on an existing file and must
     succeed, leaving a readable entry and no temp debris. *)
  let cache = Cache.create ~dir:(temp_dir ()) in
  let entry = dummy_entry "e1" in
  let key = Cache.key entry in
  let r = sample_result () in
  Cache.store cache ~key ~name:"e1" ~spec:entry.Registry.spec ~duration:0.1 r;
  Cache.store cache ~key ~name:"e1" ~spec:entry.Registry.spec ~duration:0.2 r;
  (match Cache.lookup cache ~key with
  | None -> Alcotest.fail "hit expected after double store"
  | Some c -> check_bool "latest duration wins" true (c.Cache.duration = 0.2));
  check_int "single entry" 1 (List.length (Cache.entries cache));
  check_bool "no temp files left" true (no_temp_files cache)

let cache_crashed_store_publishes_nothing () =
  (* A crash between temp-write and rename (injected at the Cache_write
     fault point) must leave neither a visible entry nor a temp file. *)
  let cache = Cache.create ~dir:(temp_dir ()) in
  let entry = dummy_entry "e1" in
  let key = Cache.key entry in
  (try
     with_fault ~times:max_int Fault.Cache_write (fun () ->
         Cache.store cache ~key ~name:"e1" ~spec:entry.Registry.spec
           ~duration:0.1 (sample_result ());
         Alcotest.fail "store should have raised")
   with Fault.Injected _ -> ());
  check_bool "nothing published" true (Cache.lookup cache ~key = None);
  check_bool "no temp files left" true (no_temp_files cache)

let cache_trim_oldest_first () =
  let cache = Cache.create ~dir:(temp_dir ()) in
  let keys =
    List.init 4 (fun i ->
        let name = Printf.sprintf "e%d" i in
        let entry = dummy_entry name in
        let key = Cache.key ~salt:name entry in
        Cache.store cache ~key ~name ~spec:entry.Registry.spec ~duration:0.1
          (sample_result ());
        let file = Filename.concat (Cache.dir cache) (key ^ ".json") in
        (* Deterministic ages: stores in a tight loop could share an mtime. *)
        let at = 1000. +. float_of_int i in
        Unix.utimes file at at;
        (key, (Unix.stat file).Unix.st_size))
  in
  let total = List.fold_left (fun acc (_, s) -> acc + s) 0 keys in
  check_int "a sufficient budget evicts nothing" 0
    (Cache.trim cache ~max_bytes:total);
  let s0 = snd (List.nth keys 0) and s1 = snd (List.nth keys 1) in
  check_int "evicts exactly the two oldest" 2
    (Cache.trim cache ~max_bytes:(total - s0 - s1));
  (match keys with
  | (k0, _) :: (k1, _) :: newer ->
      check_bool "oldest gone" true (Cache.lookup cache ~key:k0 = None);
      check_bool "second oldest gone" true (Cache.lookup cache ~key:k1 = None);
      List.iter
        (fun (k, _) ->
          check_bool "newer entries kept" true (Cache.lookup cache ~key:k <> None))
        newer
  | _ -> assert false);
  check_int "zero budget clears the rest" 2 (Cache.trim cache ~max_bytes:0);
  check_int "idempotent when empty" 0 (Cache.trim cache ~max_bytes:0);
  Alcotest.check_raises "negative budget"
    (Invalid_argument "Cache.trim: max_bytes must be >= 0") (fun () ->
      ignore (Cache.trim cache ~max_bytes:(-1)))

let campaign_trim_leaves_journals () =
  let module Campaign = Aqt_harness.Campaign in
  let dir = temp_dir () in
  let jpath =
    Filename.concat (Filename.concat dir "journal") "run-00000000-000000-1.jsonl"
  in
  let w = Journal.create jpath in
  Journal.write w (Journal.Campaign_start { at = 0.; names = [] });
  Journal.close w;
  let cache = Cache.create ~dir:(Filename.concat dir "cache") in
  let entry = dummy_entry "e1" in
  let key = Cache.key entry in
  Cache.store cache ~key ~name:"e1" ~spec:entry.Registry.spec ~duration:0.1
    (sample_result ());
  let options = { Campaign.default_options with Campaign.dir } in
  check_int "evicts the cache entry" 1 (Campaign.trim options ~max_bytes:0);
  check_bool "cache empty" true (Cache.lookup cache ~key = None);
  check_bool "journal untouched" true (Sys.file_exists jpath)

(* ------------------------------------------------------------------ *)
(* Journal                                                             *)
(* ------------------------------------------------------------------ *)

let journal_roundtrip () =
  let dir = temp_dir () in
  let path = Filename.concat dir "run.jsonl" in
  let w = Journal.create path in
  let events =
    [
      Journal.Campaign_start { at = 100.; names = [ "e1"; "e2" ] };
      Journal.Task_start { name = "e1"; at = 101.; attempt = 1 };
      Journal.Task_retry { name = "e1"; attempt = 1; error = "Failure(\"x\")" };
      Journal.Task_finish
        {
          name = "e1";
          at = 102.5;
          outcome = Journal.Failed "Failure(\"x\")";
          duration = 1.5;
          max_queue = None;
          gc_minor_words = None;
          gc_major_words = None;
          trajectory = [];
        };
      Journal.Task_finish
        {
          name = "e2";
          at = 103.;
          outcome = Journal.Done;
          duration = 0.5;
          max_queue = Some 17.;
          gc_minor_words = Some 1234.;
          gc_major_words = Some 56.;
          trajectory = [ [ ("t", 0.); ("q", 2.) ] ];
        };
      Journal.Task_finish
        {
          name = "e3";
          at = 103.5;
          outcome = Journal.Cached;
          duration = 0.1;
          max_queue = None;
          gc_minor_words = None;
          gc_major_words = None;
          trajectory = [];
        };
      Journal.Campaign_end
        { at = 104.; ran = 1; cached = 1; failed = 1; duration = 4. };
    ]
  in
  List.iter (Journal.write w) events;
  Journal.close w;
  check_bool "parse-back equality" true (Journal.load path = events);
  (* Each line is one standalone JSON object. *)
  let ic = open_in path in
  let lines = ref 0 in
  (try
     while true do
       let line = input_line ic in
       ignore (Jsonx.of_string line);
       incr lines
     done
   with End_of_file -> close_in ic);
  check_int "one event per line" (List.length events) !lines

let journal_snapshot_roundtrip () =
  let ev =
    Journal.Snapshot
      {
        at = 12.5;
        label = "serve.metrics";
        values =
          [ ("serve_requests_total", 42.); ("serve_queue_depth", 3.) ];
      }
  in
  check_bool "json round-trip" true
    (Journal.event_of_json (Journal.event_to_json ev) = ev);
  let ev_empty = Journal.Snapshot { at = 1.; label = "x"; values = [] } in
  check_bool "empty values round-trip" true
    (Journal.event_of_json (Journal.event_to_json ev_empty) = ev_empty);
  let path = Filename.concat (temp_dir ()) "run.jsonl" in
  let w = Journal.create path in
  Journal.write w ev;
  Journal.close w;
  check_bool "file round-trip" true (Journal.load path = [ ev ])

let journal_timeout_event_roundtrip () =
  let ev =
    Journal.Task_timeout
      { name = "slow"; at = 99.5; limit = 0.25; duration = 1.75 }
  in
  check_bool "json round-trip" true
    (Journal.event_of_json (Journal.event_to_json ev) = ev);
  let dir = temp_dir () in
  let path = Filename.concat dir "run.jsonl" in
  let w = Journal.create path in
  Journal.write w ev;
  Journal.close w;
  check_bool "file round-trip" true (Journal.load path = [ ev ])

let journal_degrades_on_append_failure () =
  (* Journaling is observability, not correctness: once an append fails
     the writer goes quiet instead of failing the campaign, and the file
     keeps the readable prefix written before the failure. *)
  let dir = temp_dir () in
  let path = Filename.concat dir "run.jsonl" in
  let w = Journal.create path in
  let before = Journal.Task_start { name = "a"; at = 1.; attempt = 1 } in
  Journal.write w before;
  check_bool "healthy before fault" false (Journal.degraded w);
  with_fault ~times:max_int Fault.Journal_append (fun () ->
      (* Must not raise. *)
      Journal.write w (Journal.Task_start { name = "b"; at = 2.; attempt = 1 }));
  check_bool "degraded after fault" true (Journal.degraded w);
  (* Still a no-op with the hook gone: degradation is sticky. *)
  Journal.write w (Journal.Task_start { name = "c"; at = 3.; attempt = 1 });
  Journal.close w;
  check_bool "prefix preserved" true (Journal.load path = [ before ]);
  (* The same under the scheduler: when every append fails, every task
     still runs and is cached, and the file stays empty. *)
  let cache, journal = scheduler_fixture () in
  let results =
    with_fault ~times:max_int Fault.Journal_append (fun () ->
        Scheduler.run ~jobs:1 ~cache ~journal
          [ dummy_entry "a"; dummy_entry "b" ])
  in
  check_bool "scheduler degrades the writer" true (Journal.degraded journal);
  Journal.close journal;
  check_bool "every task done" true
    (outcomes results = [ "done"; "done" ]);
  check_int "every result cached" 2 (List.length (Cache.entries cache));
  check_bool "journal file empty" true (events journal = [])

(* ------------------------------------------------------------------ *)
(* Scheduler                                                           *)
(* ------------------------------------------------------------------ *)

let scheduler_cache_flow () =
  let cache, journal = scheduler_fixture () in
  let runs = ref 0 in
  let entry =
    dummy_entry "e1"
      ~run:(fun () ->
        incr runs;
        sample_result ())
  in
  let first = Scheduler.run ~jobs:1 ~cache ~journal [ entry ] in
  check_int "ran once" 1 !runs;
  check_bool "first is Done" true
    (List.map outcome_of first = [ Journal.Done ]);
  let second = Scheduler.run ~jobs:1 ~cache ~journal [ entry ] in
  check_int "no rerun on hit" 1 !runs;
  (match second with
  | [ r ] ->
      check_bool "second is Cached" true (r.Scheduler.outcome = Journal.Cached);
      check_int "cache hit takes 0 attempts" 0 r.Scheduler.attempts;
      check_bool "cached payload equal" true
        (r.Scheduler.result = Some (sample_result ()))
  | _ -> Alcotest.fail "expected one result");
  let third = Scheduler.run ~jobs:1 ~force:true ~cache ~journal [ entry ] in
  check_int "force reruns" 2 !runs;
  check_bool "forced run is Done" true
    (List.map outcome_of third = [ Journal.Done ]);
  Journal.close journal

let retry_then_fail retries =
  let cache, journal = scheduler_fixture () in
  let attempts = ref 0 in
  let crash =
    dummy_entry "crash"
      ~run:(fun () ->
        incr attempts;
        failwith "synthetic crash")
  in
  let ok = dummy_entry "ok" in
  let results = Scheduler.run ~jobs:1 ~retries ~cache ~journal [ crash; ok ] in
  check_int "initial + retries" (retries + 1) !attempts;
  (match results with
  | [ c; o ] ->
      check_string "order preserved" "crash" c.Scheduler.name;
      check_bool "failed outcome" true
        (match c.Scheduler.outcome with
        | Journal.Failed msg ->
            (* The raising attempt's message survives into the outcome. *)
            let contains s sub =
              let n = String.length sub in
              let rec go i =
                i + n <= String.length s
                && (String.sub s i n = sub || go (i + 1))
              in
              go 0
            in
            contains msg "synthetic crash"
        | _ -> false);
      check_int "attempts recorded" (retries + 1) c.Scheduler.attempts;
      check_bool "no result for failure" true (c.Scheduler.result = None);
      check_bool "sibling still completes" true
        (o.Scheduler.outcome = Journal.Done)
  | _ -> Alcotest.fail "expected two results");
  check_bool "failure not cached" true
    (Cache.lookup cache ~key:(Cache.key crash) = None);
  check_int "only the sibling cached" 1 (List.length (Cache.entries cache));
  (* The journal shows the full story: a start per attempt, a retry
     between each two. *)
  Journal.close journal;
  let events = events journal in
  check_int "a start per attempt" (retries + 1)
    (count
       (function Journal.Task_start { name = "crash"; _ } -> true | _ -> false)
       events);
  check_int "a retry per retry" retries (count (is_retry_of "crash") events)

let scheduler_retry_then_fail () = List.iter retry_then_fail [ 1; 2 ]

(* The retry scope covers the store.  A store that crashes before its
   rename publishes nothing torn; under [~retries:1] the victim ("a", the
   first store) is retried once, and if that store crashes too the victim
   alone fails.  A fault-free rerun then executes exactly the tasks the
   faulty run left uncached. *)
type store_crash = {
  crashes : int;  (** stores that crash *)
  first : string list;  (** outcomes of the faulty run *)
  cached : int;  (** cache entries it leaves *)
  rerun : string list;  (** outcomes of the fault-free rerun *)
  reran : string list;  (** the tasks the rerun executes *)
}

let crashed_store_retried c =
  let cache, journal = scheduler_fixture () in
  let runs = ref [] in
  let entries =
    List.map
      (fun name ->
        dummy_entry name
          ~run:(fun () ->
            runs := name :: !runs;
            sample_result ()))
      [ "a"; "b"; "c" ]
  in
  let results =
    with_fault ~times:c.crashes Fault.Cache_write (fun () ->
        Scheduler.run ~jobs:1 ~retries:1 ~cache ~journal entries)
  in
  check_strings "faulty run" c.first (outcomes results);
  check_bool "only the victim retried" true
    (List.map (fun r -> r.Scheduler.attempts) results = [ 2; 1; 1 ]);
  check_int "one retry journalled, the victim's" 1
    (count (is_retry_of "a") (events journal));
  check_int "cached after the faulty run" c.cached
    (List.length (Cache.entries cache));
  check_bool "no temp files left" true (no_temp_files cache);
  runs := [];
  let rerun = Scheduler.run ~jobs:1 ~cache ~journal entries in
  check_strings "fault-free rerun" c.rerun (outcomes rerun);
  check_strings "rerun executes" c.reran (List.rev !runs);
  check_int "rerun completes the cache" 3 (List.length (Cache.entries cache));
  Journal.close journal

let scheduler_crashed_store_retried () =
  List.iter crashed_store_retried
    [
      { crashes = 1; first = [ "done"; "done"; "done" ]; cached = 3;
        rerun = [ "cached"; "cached"; "cached" ]; reran = [] };
      { crashes = 2; first = [ "failed"; "done"; "done" ]; cached = 2;
        rerun = [ "done"; "cached"; "cached" ]; reran = [ "a" ] };
    ]

let scheduler_timeout_cooperative () =
  (* An overrun: Timed_out after one attempt, not cached, and a post-hoc
     Task_timeout with the budget and the real duration comes right
     before the Timed_out finish.  A larger budget lets it through. *)
  let cache, journal = scheduler_fixture () in
  let slow =
    dummy_entry "slow"
      ~run:(fun () ->
        Unix.sleepf 0.05;
        sample_result ())
  in
  let results = Scheduler.run ~jobs:1 ~timeout:0.01 ~cache ~journal [ slow ] in
  (match results with
  | [ r ] ->
      check_bool "reported timed out" true
        (r.Scheduler.outcome = Journal.Timed_out);
      check_int "timeouts are not retried" 1 r.Scheduler.attempts;
      check_bool "overrun result withheld" true (r.Scheduler.result = None)
  | _ -> Alcotest.fail "expected one result");
  check_bool "timeout not cached" true
    (Cache.lookup cache ~key:(Cache.key slow) = None);
  let rec timeout_event = function
    | Journal.Task_timeout { name; limit; duration; _ } :: rest ->
        check_string "timeout names the task" "slow" name;
        check_bool "timeout carries the budget" true
          (Float.abs (limit -. 0.01) < 1e-9);
        check_bool "timeout carries the real duration" true (duration >= 0.04);
        check_bool "timeout immediately precedes the Timed_out finish" true
          (match rest with
          | Journal.Task_finish { outcome = Journal.Timed_out; _ } :: _ -> true
          | _ -> false)
    | _ :: rest -> timeout_event rest
    | [] -> Alcotest.fail "no Task_timeout journalled"
  in
  timeout_event (events journal);
  let rerun = Scheduler.run ~jobs:1 ~timeout:10. ~cache ~journal [ slow ] in
  check_bool "larger budget: done" true (outcomes rerun = [ "done" ]);
  check_bool "larger budget: cached" true
    (Cache.lookup cache ~key:(Cache.key slow) <> None);
  Journal.close journal;
  (* Within budget: Done, and no Task_timeout at all. *)
  let cache, journal = scheduler_fixture () in
  let results =
    Scheduler.run ~jobs:1 ~timeout:10. ~cache ~journal [ dummy_entry "quick" ]
  in
  Journal.close journal;
  check_bool "within budget: done" true (outcomes results = [ "done" ]);
  check_int "within budget: no Task_timeout" 0 (count is_timeout (events journal))

let scheduler_parallel_campaign () =
  let cache, journal = scheduler_fixture () in
  let entries =
    List.init 12 (fun i ->
        let name = Printf.sprintf "t%02d" i in
        dummy_entry name
          ~spec:[ ("i", Spec.Int i) ]
          ~run:(fun () ->
            let rb = Rb.create () in
            Rb.metric rb "i" (float_of_int i);
            Rb.result rb))
  in
  let done_count = ref 0 in
  let mu = Mutex.create () in
  let on_done _ =
    Mutex.lock mu;
    incr done_count;
    Mutex.unlock mu
  in
  let results = Scheduler.run ~jobs:4 ~on_done ~cache ~journal entries in
  check_bool "input order preserved" true
    (List.map (fun r -> r.Scheduler.name) results
    = List.map (fun e -> e.Registry.name) entries);
  check_bool "all done" true
    (List.for_all (fun r -> r.Scheduler.outcome = Journal.Done) results);
  check_int "progress called per task" 12 !done_count;
  check_int "all cached afterwards" 12 (List.length (Cache.entries cache));
  Journal.close journal

(* ------------------------------------------------------------------ *)
(* Spec readers                                                        *)
(* ------------------------------------------------------------------ *)

let spec_full : Spec.t =
  [
    ("s0", Spec.Int 400);
    ("eps", Spec.Ratio (1, 5));
    ("ns", Spec.List [ Spec.Int 2; Spec.Int 4 ]);
    ("eps_cycles", Spec.List [ Spec.List [ Spec.Ratio (1, 20); Spec.Int 3 ] ]);
  ]

let read_full r =
  Spec.
    ( get r int "s0",
      get r ratio "eps",
      get r (list int) "ns",
      get r (list (pair ratio int)) "eps_cycles" )

let names_field msg field =
  let sub = Printf.sprintf "%S" field in
  let n = String.length sub in
  let rec go i =
    i + n <= String.length msg && (String.sub msg i n = sub || go (i + 1))
  in
  go 0

(* Each input either reads back as written, or raises Invalid_argument
   naming the field at fault. *)
let spec_reader_table () =
  let with_field k v =
    List.map (fun (k', v') -> (k', if k' = k then v else v')) spec_full
  in
  let ratio = Aqt_util.Ratio.make in
  List.iter
    (fun (label, spec, fault) ->
      match (Spec.read spec read_full, fault) with
      | (s0, eps, ns, eps_cycles), None ->
          check_bool label true
            (s0 = 400 && eps = ratio 1 5 && ns = [ 2; 4 ]
            && eps_cycles = [ (ratio 1 20, 3) ])
      | _, Some field ->
          Alcotest.failf "%s: read, but %S is at fault" label field
      | exception Invalid_argument msg -> (
          match fault with
          | None -> Alcotest.failf "%s: %s" label msg
          | Some field ->
              check_bool (label ^ ": " ^ msg) true (names_field msg field)))
    [
      ("every field read", spec_full, None);
      ("missing field", List.remove_assoc "eps" spec_full, Some "eps");
      ("int read as a ratio", with_field "eps" (Spec.Int 5), Some "eps");
      ( "mistyped list element",
        with_field "ns" (Spec.List [ Spec.Int 2; Spec.Str "4" ]),
        Some "ns" );
      ( "field never read",
        spec_full @ [ ("unread", Spec.Int 0) ],
        Some "unread" );
    ]

(* A run that leaves a field unread fails its task, retry included, and
   publishes nothing. *)
let spec_unread_fails_task () =
  let cache, journal = scheduler_fixture () in
  let spec = [ ("a", Spec.Int 1); ("b", Spec.Int 2) ] in
  let run () =
    Spec.read spec (fun r ->
        ignore Spec.(get r int "a");
        sample_result ())
  in
  let results =
    Scheduler.run ~jobs:1 ~cache ~journal [ dummy_entry ~spec ~run "half" ]
  in
  Journal.close journal;
  (match results with
  | [ { Scheduler.outcome = Journal.Failed msg; attempts; _ } ] ->
      check_int "retried once" 2 attempts;
      check_string "failure names the field"
        (Printexc.to_string (Invalid_argument {|Spec: field "b" never read|}))
        msg
  | _ -> Alcotest.fail "expected one failed task");
  check_int "cache stays empty" 0 (List.length (Cache.entries cache))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "aqt_harness"
    [
      ( "jsonx",
        [
          Alcotest.test_case "round-trip" `Quick jsonx_roundtrip;
          Alcotest.test_case "escapes" `Quick jsonx_parses_escapes;
          Alcotest.test_case "rejects garbage" `Quick jsonx_rejects_garbage;
        ] );
      ( "spec",
        [
          Alcotest.test_case "hash deterministic" `Quick
            spec_hash_deterministic;
          Alcotest.test_case "hash sensitivity" `Quick spec_hash_sensitivity;
          Alcotest.test_case "duplicate keys" `Quick spec_rejects_duplicates;
          Alcotest.test_case "reader table" `Quick spec_reader_table;
          Alcotest.test_case "unread field fails the task" `Quick
            spec_unread_fails_task;
        ] );
      ( "registry",
        [
          Alcotest.test_case "result json round-trip" `Quick
            result_json_roundtrip;
          Alcotest.test_case "basics" `Quick registry_basics;
        ] );
      ( "cache",
        [
          Alcotest.test_case "round-trip" `Quick cache_roundtrip;
          Alcotest.test_case "corrupt file" `Quick cache_corrupt_is_miss;
          Alcotest.test_case "store over existing" `Quick
            cache_store_over_existing;
          Alcotest.test_case "crashed store publishes nothing" `Quick
            cache_crashed_store_publishes_nothing;
          Alcotest.test_case "crashed store is retried" `Quick
            scheduler_crashed_store_retried;
          Alcotest.test_case "trim oldest first" `Quick cache_trim_oldest_first;
          Alcotest.test_case "campaign trim leaves journals" `Quick
            campaign_trim_leaves_journals;
        ] );
      ( "journal",
        [
          Alcotest.test_case "jsonl round-trip" `Quick journal_roundtrip;
          Alcotest.test_case "snapshot event round-trip" `Quick
            journal_snapshot_roundtrip;
          Alcotest.test_case "timeout event round-trip" `Quick
            journal_timeout_event_roundtrip;
          Alcotest.test_case "degrades on append failure" `Quick
            journal_degrades_on_append_failure;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "cache flow" `Quick scheduler_cache_flow;
          Alcotest.test_case "retry then fail" `Quick scheduler_retry_then_fail;
          Alcotest.test_case "cooperative timeout" `Quick
            scheduler_timeout_cooperative;
          Alcotest.test_case "parallel campaign" `Quick
            scheduler_parallel_campaign;
        ] );
    ]
