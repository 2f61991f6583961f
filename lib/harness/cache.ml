module Jsonx = Aqt_util.Jsonx
type t = { dir : string }

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let create ~dir =
  mkdir_p dir;
  { dir }

let dir t = t.dir

type cached = {
  key : string;
  name : string;
  saved_at : float;
  duration : float;
  result : Registry.result;
}

let key ?salt (e : Registry.entry) = Spec.hash ?salt ~name:e.name e.spec
let path t key = Filename.concat t.dir (key ^ ".json")

let read_file file =
  let ic = open_in_bin file in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let cached_of_json j =
  {
    key = Jsonx.to_str (Jsonx.get "key" j);
    name = Jsonx.to_str (Jsonx.get "name" j);
    saved_at = Jsonx.to_float (Jsonx.get "saved_at" j);
    duration = Jsonx.to_float (Jsonx.get "duration" j);
    result = Registry.result_of_json (Jsonx.get "result" j);
  }

let lookup t ~key =
  let file = path t key in
  if not (Sys.file_exists file) then None
  else
    match cached_of_json (Jsonx.of_string (read_file file)) with
    | c when c.key = key -> Some c
    | _ -> None
    | exception (Failure _ | Sys_error _) -> None

let store t ~key ~name ~spec ~duration result =
  let json =
    Jsonx.Obj
      [
        ("key", Jsonx.Str key);
        ("name", Jsonx.Str name);
        ("spec", Spec.to_json spec);
        ("saved_at", Jsonx.Float (Aqt_util.Clock.wall ()));
        ("duration", Jsonx.Float duration);
        ("result", Registry.result_to_json result);
      ]
  in
  mkdir_p t.dir;
  (* Unique temp per writer: scheduler domains may store concurrently, and
     separate processes may share one cache dir, so the name must key on
     both the PID and the domain id — domain ids alone collide across
     processes and two writers would clobber each other's file mid-write. *)
  let tmp =
    Filename.concat t.dir
      (Printf.sprintf ".%s.%d.%d.tmp" key (Unix.getpid ())
         (Domain.self () :> int))
  in
  let publish () =
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc (Jsonx.to_string json);
        output_char oc '\n';
        Fault.hit Fault.Cache_write);
    let target = path t key in
    (* Atomic publication.  POSIX rename replaces an existing target; on
       Windows it raises instead, so fall back to remove-then-rename —
       losing atomicity only on the platform that never had it. *)
    try Sys.rename tmp target
    with Sys_error _ ->
      (try Sys.remove target with Sys_error _ -> ());
      Sys.rename tmp target
  in
  (* A crash mid-store must never leave the temp file behind: the entry
     simply does not appear and a later lookup is a miss. *)
  try publish ()
  with e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

let touch t ~key =
  let file = path t key in
  try Unix.utimes file 0. 0. (* 0. 0. means "now" *)
  with Unix.Unix_error _ -> ()

let cache_files t =
  if not (Sys.file_exists t.dir) then []
  else
    Sys.readdir t.dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".json")
    |> List.map (Filename.concat t.dir)

let entries t =
  List.filter_map
    (fun file ->
      match cached_of_json (Jsonx.of_string (read_file file)) with
      | c -> Some c
      | exception (Failure _ | Sys_error _) -> None)
    (cache_files t)

let clean t =
  let files = cache_files t in
  List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) files;
  List.length files

let trim t ~max_bytes =
  if max_bytes < 0 then invalid_arg "Cache.trim: max_bytes must be >= 0";
  let info =
    List.filter_map
      (fun f ->
        match Unix.stat f with
        | st -> Some (f, st.Unix.st_size, st.Unix.st_mtime)
        | exception Unix.Unix_error _ -> None)
      (cache_files t)
  in
  (* Oldest first by mtime: the mtime of a published entry is its store
     time (rename preserves the temp file's), so this evicts in saved_at
     order without parsing every payload. *)
  let info =
    List.sort (fun (_, _, a) (_, _, b) -> Float.compare a b) info
  in
  let total =
    ref (List.fold_left (fun acc (_, sz, _) -> acc + sz) 0 info)
  in
  let removed = ref 0 in
  List.iter
    (fun (f, sz, _) ->
      if !total > max_bytes then
        try
          Sys.remove f;
          total := !total - sz;
          incr removed
        with Sys_error _ -> ())
    info;
  !removed
