module Tbl = Aqt_util.Tbl
module Clock = Aqt_util.Clock

(* Bump when simulator semantics change in a way that invalidates every
   cached experiment result (the per-experiment "version" spec field covers
   single-experiment changes). *)
let code_salt = "aqt-campaign-1"

type options = {
  dir : string;
  only : string list;
  force : bool;
  jobs : int option;
  timeout : float option;
  retries : int;
  salt : string;
  fail : string list;
  quiet : bool;
}

let default_options =
  {
    dir = "_campaign";
    only = [];
    force = false;
    jobs = None;
    timeout = None;
    retries = 1;
    salt = code_salt;
    fail = [];
    quiet = false;
  }

type summary = {
  results : Scheduler.task_result list;
  journal_file : string;
  ran : int;
  cached : int;
  failed : int;
}

let select ~(registry : Registry.t) (options : options) =
  let resolve name =
    match Registry.find registry name with
    | Some e -> e
    | None ->
        failwith
          (Printf.sprintf "unknown experiment %S (known: %s)" name
             (String.concat ", " (Registry.names registry)))
  in
  List.iter (fun n -> ignore (resolve n)) options.fail;
  match options.only with
  | [] -> Registry.all registry
  | names -> List.map resolve names

let journal_path options =
  let tm = Unix.gmtime (Clock.wall ()) in
  Filename.concat options.dir
    (Filename.concat "journal"
       (Printf.sprintf "run-%04d%02d%02d-%02d%02d%02d-%d.jsonl"
          (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1) tm.Unix.tm_mday
          tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec
          (Unix.getpid ())))

let outcome_cell = function
  | Journal.Done -> "done"
  | Journal.Cached -> "cached"
  | Journal.Timed_out -> "TIMED OUT"
  | Journal.Failed msg ->
      let msg =
        if String.length msg > 48 then String.sub msg 0 48 ^ "..." else msg
      in
      "FAILED: " ^ msg

let print_summary (results : Scheduler.task_result list) =
  let tbl =
    Tbl.create ~headers:[ "experiment"; "outcome"; "seconds"; "attempts" ]
  in
  Tbl.set_align tbl [ Tbl.Left; Tbl.Left; Tbl.Right; Tbl.Right ];
  List.iter
    (fun (r : Scheduler.task_result) ->
      Tbl.add_row tbl
        [
          r.name;
          outcome_cell r.outcome;
          Tbl.ff ~dec:2 r.duration;
          (if r.attempts = 0 then "-" else Tbl.fi r.attempts);
        ])
    results;
  Tbl.print tbl

let run ~registry options =
  let entries = select ~registry options in
  let cache = Cache.create ~dir:(Filename.concat options.dir "cache") in
  let journal = Journal.create (journal_path options) in
  let t0 = Clock.monotonic () in
  Journal.write journal
    (Journal.Campaign_start
       {
         at = Clock.wall ();
         names = List.map (fun (e : Registry.entry) -> e.name) entries;
       });
  let total = List.length entries in
  let progress_lock = Mutex.create () in
  let on_done k =
    if not options.quiet then begin
      Mutex.lock progress_lock;
      Printf.printf "  [%d/%d] experiments finished\n%!" k total;
      Mutex.unlock progress_lock
    end
  in
  let results =
    Scheduler.run ?jobs:options.jobs ?timeout:options.timeout
      ~retries:options.retries ~salt:options.salt ~force:options.force
      ~fail:options.fail ~on_done ~cache ~journal entries
  in
  let count p = List.length (List.filter p results) in
  let ran =
    count (fun (r : Scheduler.task_result) -> r.outcome = Journal.Done)
  in
  let cached =
    count (fun (r : Scheduler.task_result) -> r.outcome = Journal.Cached)
  in
  let failed = total - ran - cached in
  Journal.write journal
    (Journal.Campaign_end
       {
         at = Clock.wall ();
         ran;
         cached;
         failed;
         duration = Clock.monotonic () -. t0;
       });
  let journal_file = Journal.file journal in
  Journal.close journal;
  if not options.quiet then begin
    print_newline ();
    print_summary results;
    Printf.printf "ran: %d  cache hits: %d  failed: %d  (journal: %s)\n" ran
      cached failed journal_file
  end;
  { results; journal_file; ran; cached; failed }

let status ~registry options =
  let entries = select ~registry options in
  let cache = Cache.create ~dir:(Filename.concat options.dir "cache") in
  let now = Clock.wall () in
  let tbl =
    Tbl.create ~headers:[ "experiment"; "cached"; "age (s)"; "seconds"; "key" ]
  in
  Tbl.set_align tbl [ Tbl.Left; Tbl.Left; Tbl.Right; Tbl.Right; Tbl.Left ];
  let hits = ref 0 in
  List.iter
    (fun (e : Registry.entry) ->
      let key = Cache.key ~salt:options.salt e in
      match Cache.lookup cache ~key with
      | Some c ->
          incr hits;
          Tbl.add_row tbl
            [
              e.name;
              "yes";
              Tbl.ff ~dec:0 (now -. c.saved_at);
              Tbl.ff ~dec:2 c.duration;
              String.sub key 0 12;
            ]
      | None -> Tbl.add_row tbl [ e.name; "no"; "-"; "-"; String.sub key 0 12 ])
    entries;
  Tbl.print tbl;
  Printf.printf "%d/%d cached under %s\n" !hits (List.length entries)
    (Cache.dir cache)

let trim options ~max_bytes =
  let cache = Cache.create ~dir:(Filename.concat options.dir "cache") in
  Cache.trim cache ~max_bytes

let clean options =
  let cache = Cache.create ~dir:(Filename.concat options.dir "cache") in
  let removed = Cache.clean cache in
  let journal_dir = Filename.concat options.dir "journal" in
  let journals =
    if Sys.file_exists journal_dir then
      Sys.readdir journal_dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".jsonl")
      |> List.map (Filename.concat journal_dir)
    else []
  in
  List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) journals;
  removed + List.length journals
