module Clock = Aqt_util.Clock

type task_result = {
  name : string;
  outcome : Journal.outcome;
  duration : float;
  attempts : int;
  result : Registry.result option;
}

let finish_event ?gc journal name outcome duration
    (result : Registry.result option) =
  let max_queue =
    match result with
    | None -> None
    | Some r -> List.assoc_opt "max_queue" r.metrics
  in
  let trajectory =
    match result with None -> [] | Some r -> r.trajectory
  in
  let gc_minor_words, gc_major_words =
    match gc with None -> (None, None) | Some (mi, ma) -> (Some mi, Some ma)
  in
  Journal.write journal
    (Journal.Task_finish
       {
         name;
         at = Clock.wall ();
         outcome;
         duration;
         max_queue;
         gc_minor_words;
         gc_major_words;
         trajectory;
       })

let run_one ?timeout ~retries ~salt ~cache ~journal (entry : Registry.entry) =
  let name = entry.name in
  let key = Cache.key ?salt entry in
  let rec attempt k =
    Journal.write journal
      (Journal.Task_start { name; at = Clock.wall (); attempt = k });
    (* Durations, and so the timeout check, are monotonic: a wall-clock
       step mid-task must not shorten or stretch them.  Journal [at]
       stamps stay wall time. *)
    let t0 = Clock.monotonic () in
    (* Precise allocation counter; quick_stat's copy only refreshes at GC
       events, but major_words has no precise accessor, so the major figure
       is approximate on tasks that never trigger a collection. *)
    let minor0 = Gc.minor_words () in
    let major0 = (Gc.quick_stat ()).Gc.major_words in
    (* The whole attempt — run body *and* cache publication — sits inside
       the exception scrutinee: a store that crashes mid-write must take
       the retry path exactly like a crashing experiment, never abort the
       campaign.  (The cache itself guarantees a crashed store publishes
       nothing; see Cache.store.) *)
    match
      let result = entry.run () in
      let duration = Clock.monotonic () -. t0 in
      let gc =
        ( Gc.minor_words () -. minor0,
          (Gc.quick_stat ()).Gc.major_words -. major0 )
      in
      let overrun =
        match timeout with Some t when duration > t -> Some t | _ -> None
      in
      match overrun with
      | Some limit ->
          (* Timeouts are cooperative: the overrun is only detectable
             after the task returns, so journal a distinct post-hoc
             marker carrying the budget and the real duration — the
             Task_finish timestamp is when detection happened, not when
             the budget expired. *)
          Journal.write journal
            (Journal.Task_timeout { name; at = Clock.wall (); limit; duration });
          `Timed_out duration
      | None ->
          Cache.store cache ~key ~name ~spec:entry.spec ~duration result;
          `Done (duration, gc, result)
    with
    | `Timed_out duration ->
        finish_event journal name Journal.Timed_out duration None;
        {
          name;
          outcome = Journal.Timed_out;
          duration;
          attempts = k;
          result = None;
        }
    | `Done (duration, gc, result) ->
        finish_event ~gc journal name Journal.Done duration (Some result);
        {
          name;
          outcome = Journal.Done;
          duration;
          attempts = k;
          result = Some result;
        }
    | exception e ->
        let duration = Clock.monotonic () -. t0 in
        let error = Printexc.to_string e in
        if k <= retries then begin
          Journal.write journal
            (Journal.Task_retry { name; attempt = k; error });
          attempt (k + 1)
        end
        else begin
          finish_event journal name (Journal.Failed error) duration None;
          {
            name;
            outcome = Journal.Failed error;
            duration;
            attempts = k;
            result = None;
          }
        end
  in
  attempt 1

let run ?jobs ?timeout ?(retries = 1) ?salt ?(force = false) ?on_done ~cache
    ~journal entries =
  (* Resolve cache hits inline first: they cost a file read, not a domain. *)
  let resolved =
    List.map
      (fun (entry : Registry.entry) ->
        let hit =
          if force then None
          else Cache.lookup cache ~key:(Cache.key ?salt entry)
        in
        match hit with
        | Some c ->
            finish_event journal entry.name Journal.Cached c.duration
              (Some c.result);
            ( entry,
              Some
                {
                  name = entry.name;
                  outcome = Journal.Cached;
                  duration = c.duration;
                  attempts = 0;
                  result = Some c.result;
                } )
        | None -> (entry, None))
      entries
  in
  let to_run =
    List.filter_map
      (function entry, None -> Some entry | _, Some _ -> None)
      resolved
  in
  let ran =
    Aqt_util.Parallel.map ?workers:jobs ?on_done
      (run_one ?timeout ~retries ~salt ~cache ~journal)
      to_run
  in
  let by_name = Hashtbl.create 17 in
  List.iter (fun (r : task_result) -> Hashtbl.replace by_name r.name r) ran;
  List.map
    (fun ((entry : Registry.entry), hit) ->
      match hit with
      | Some r -> r
      | None -> Hashtbl.find by_name entry.name)
    resolved
