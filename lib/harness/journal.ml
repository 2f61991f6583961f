module Jsonx = Aqt_util.Jsonx
type outcome = Done | Cached | Failed of string | Timed_out

let outcome_to_string = function
  | Done -> "done"
  | Cached -> "cached"
  | Failed msg -> "FAILED: " ^ msg
  | Timed_out -> "TIMED OUT"

type event =
  | Campaign_start of { at : float; names : string list }
  | Task_start of { name : string; at : float; attempt : int }
  | Task_retry of { name : string; attempt : int; error : string }
  | Task_finish of {
      name : string;
      at : float;
      outcome : outcome;
      duration : float;
      max_queue : float option;
      gc_minor_words : float option;
      gc_major_words : float option;
      trajectory : (string * float) list list;
    }
  | Task_timeout of {
      name : string;
      at : float;
      limit : float;
      duration : float;
    }
  | Campaign_end of {
      at : float;
      ran : int;
      cached : int;
      failed : int;
      duration : float;
    }
  | Snapshot of { at : float; label : string; values : (string * float) list }

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let outcome_to_json = function
  | Done -> Jsonx.Obj [ ("kind", Jsonx.Str "done") ]
  | Cached -> Jsonx.Obj [ ("kind", Jsonx.Str "cached") ]
  | Failed msg ->
      Jsonx.Obj [ ("kind", Jsonx.Str "failed"); ("error", Jsonx.Str msg) ]
  | Timed_out -> Jsonx.Obj [ ("kind", Jsonx.Str "timed_out") ]

let outcome_of_json j =
  match Jsonx.to_str (Jsonx.get "kind" j) with
  | "done" -> Done
  | "cached" -> Cached
  | "failed" -> Failed (Jsonx.to_str (Jsonx.get "error" j))
  | "timed_out" -> Timed_out
  | k -> failwith (Printf.sprintf "Journal: unknown outcome kind %S" k)

let event_to_json = function
  | Campaign_start { at; names } ->
      Jsonx.Obj
        [
          ("ev", Jsonx.Str "campaign_start");
          ("at", Jsonx.Float at);
          ("names", Jsonx.List (List.map (fun n -> Jsonx.Str n) names));
        ]
  | Task_start { name; at; attempt } ->
      Jsonx.Obj
        [
          ("ev", Jsonx.Str "task_start");
          ("name", Jsonx.Str name);
          ("at", Jsonx.Float at);
          ("attempt", Jsonx.Int attempt);
        ]
  | Task_retry { name; attempt; error } ->
      Jsonx.Obj
        [
          ("ev", Jsonx.Str "task_retry");
          ("name", Jsonx.Str name);
          ("attempt", Jsonx.Int attempt);
          ("error", Jsonx.Str error);
        ]
  | Task_finish
      {
        name;
        at;
        outcome;
        duration;
        max_queue;
        gc_minor_words;
        gc_major_words;
        trajectory;
      } ->
      let opt_float key = function
        | None -> []
        | Some v -> [ (key, Jsonx.Float v) ]
      in
      Jsonx.Obj
        ([
           ("ev", Jsonx.Str "task_finish");
           ("name", Jsonx.Str name);
           ("at", Jsonx.Float at);
           ("outcome", outcome_to_json outcome);
           ("duration", Jsonx.Float duration);
         ]
        @ opt_float "max_queue" max_queue
        @ opt_float "gc_minor_words" gc_minor_words
        @ opt_float "gc_major_words" gc_major_words
        @
        if trajectory = [] then []
        else
          [
            ( "trajectory",
              Jsonx.List
                (List.map
                   (fun row ->
                     Jsonx.Obj
                       (List.map (fun (k, v) -> (k, Jsonx.Float v)) row))
                   trajectory) );
          ])
  | Task_timeout { name; at; limit; duration } ->
      Jsonx.Obj
        [
          ("ev", Jsonx.Str "task_timeout");
          ("name", Jsonx.Str name);
          ("at", Jsonx.Float at);
          ("limit", Jsonx.Float limit);
          ("duration", Jsonx.Float duration);
        ]
  | Campaign_end { at; ran; cached; failed; duration } ->
      Jsonx.Obj
        [
          ("ev", Jsonx.Str "campaign_end");
          ("at", Jsonx.Float at);
          ("ran", Jsonx.Int ran);
          ("cached", Jsonx.Int cached);
          ("failed", Jsonx.Int failed);
          ("duration", Jsonx.Float duration);
        ]
  | Snapshot { at; label; values } ->
      Jsonx.Obj
        [
          ("ev", Jsonx.Str "snapshot");
          ("at", Jsonx.Float at);
          ("label", Jsonx.Str label);
          ( "values",
            Jsonx.Obj (List.map (fun (k, v) -> (k, Jsonx.Float v)) values) );
        ]

let event_of_json j =
  match Jsonx.to_str (Jsonx.get "ev" j) with
  | "campaign_start" ->
      Campaign_start
        {
          at = Jsonx.to_float (Jsonx.get "at" j);
          names = List.map Jsonx.to_str (Jsonx.to_list (Jsonx.get "names" j));
        }
  | "task_start" ->
      Task_start
        {
          name = Jsonx.to_str (Jsonx.get "name" j);
          at = Jsonx.to_float (Jsonx.get "at" j);
          attempt = Jsonx.to_int (Jsonx.get "attempt" j);
        }
  | "task_retry" ->
      Task_retry
        {
          name = Jsonx.to_str (Jsonx.get "name" j);
          attempt = Jsonx.to_int (Jsonx.get "attempt" j);
          error = Jsonx.to_str (Jsonx.get "error" j);
        }
  | "task_finish" ->
      Task_finish
        {
          name = Jsonx.to_str (Jsonx.get "name" j);
          at = Jsonx.to_float (Jsonx.get "at" j);
          outcome = outcome_of_json (Jsonx.get "outcome" j);
          duration = Jsonx.to_float (Jsonx.get "duration" j);
          max_queue = Option.map Jsonx.to_float (Jsonx.member "max_queue" j);
          gc_minor_words =
            Option.map Jsonx.to_float (Jsonx.member "gc_minor_words" j);
          gc_major_words =
            Option.map Jsonx.to_float (Jsonx.member "gc_major_words" j);
          trajectory =
            (match Jsonx.member "trajectory" j with
            | None -> []
            | Some rows ->
                List.map
                  (fun row ->
                    List.map
                      (fun (k, v) -> (k, Jsonx.to_float v))
                      (Jsonx.to_obj row))
                  (Jsonx.to_list rows));
        }
  | "task_timeout" ->
      Task_timeout
        {
          name = Jsonx.to_str (Jsonx.get "name" j);
          at = Jsonx.to_float (Jsonx.get "at" j);
          limit = Jsonx.to_float (Jsonx.get "limit" j);
          duration = Jsonx.to_float (Jsonx.get "duration" j);
        }
  | "campaign_end" ->
      Campaign_end
        {
          at = Jsonx.to_float (Jsonx.get "at" j);
          ran = Jsonx.to_int (Jsonx.get "ran" j);
          cached = Jsonx.to_int (Jsonx.get "cached" j);
          failed = Jsonx.to_int (Jsonx.get "failed" j);
          duration = Jsonx.to_float (Jsonx.get "duration" j);
        }
  | "snapshot" ->
      Snapshot
        {
          at = Jsonx.to_float (Jsonx.get "at" j);
          label = Jsonx.to_str (Jsonx.get "label" j);
          values =
            List.map
              (fun (k, v) -> (k, Jsonx.to_float v))
              (Jsonx.to_obj (Jsonx.get "values" j));
        }
  | ev -> failwith (Printf.sprintf "Journal: unknown event %S" ev)

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)
(* ------------------------------------------------------------------ *)

type writer = {
  path : string;
  oc : out_channel;
  lock : Mutex.t;
  mutable degraded : bool;
}

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let create path =
  mkdir_p (Filename.dirname path);
  let oc =
    open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path
  in
  { path; oc; lock = Mutex.create (); degraded = false }

let write w ev =
  let line = Jsonx.to_string (event_to_json ev) in
  Mutex.lock w.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock w.lock)
    (fun () ->
      (* Journaling is best-effort: an append failure (disk full, closed
         descriptor, injected fault) degrades the writer to a no-op rather
         than crashing the campaign; the file keeps its readable prefix. *)
      if not w.degraded then
        try
          Fault.hit Fault.Journal_append;
          output_string w.oc line;
          output_char w.oc '\n';
          flush w.oc
        with Sys_error _ | Fault.Injected _ -> w.degraded <- true)

let degraded w = w.degraded
let file w = w.path
let close w = close_out_noerr w.oc

(* ------------------------------------------------------------------ *)
(* Reader                                                              *)
(* ------------------------------------------------------------------ *)

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line ->
            let acc =
              if String.trim line = "" then acc
              else event_of_json (Jsonx.of_string line) :: acc
            in
            go acc
        | exception End_of_file -> List.rev acc
      in
      go [])
