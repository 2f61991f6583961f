module Jsonx = Aqt_util.Jsonx
module Tbl = Aqt_util.Tbl
module Csv_out = Aqt_util.Csv_out

type table = {
  id : string;
  headers : string list;
  rows : string list list;
}

type item = Table of table | Note of string

type result = {
  items : item list;
  metrics : (string * float) list;
  trajectory : (string * float) list list;
}

module Rb = struct
  type t = {
    mutable rev_items : item list;
    mutable rev_metrics : (string * float) list;
    mutable traj : (string * float) list list;
  }

  let create () = { rev_items = []; rev_metrics = []; traj = [] }

  let table t ~id ~headers rows =
    t.rev_items <- Table { id; headers; rows } :: t.rev_items

  let rec trim_newlines s =
    let n = String.length s in
    if n > 0 && (s.[n - 1] = '\n' || s.[n - 1] = '\r') then
      trim_newlines (String.sub s 0 (n - 1))
    else s

  let note t s = t.rev_items <- Note (trim_newlines s) :: t.rev_items
  let metric t k v = t.rev_metrics <- (k, v) :: t.rev_metrics
  let trajectory t rows = t.traj <- rows

  let result t =
    {
      items = List.rev t.rev_items;
      metrics = List.rev t.rev_metrics;
      trajectory = t.traj;
    }
end

type entry = {
  name : string;
  title : string;
  spec : Spec.t;
  run : unit -> result;
}

type t = {
  tbl : (string, entry) Hashtbl.t;
  mutable rev_order : entry list;
}

let create () = { tbl = Hashtbl.create 37; rev_order = [] }

let register t e =
  if Hashtbl.mem t.tbl e.name then
    invalid_arg (Printf.sprintf "Registry.register: duplicate name %S" e.name);
  Hashtbl.add t.tbl e.name e;
  t.rev_order <- e :: t.rev_order

let find t name = Hashtbl.find_opt t.tbl name
let all t = List.rev t.rev_order
let names t = List.map (fun e -> e.name) (all t)

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let export_csv ~dir (tb : table) =
  try
    if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
    Csv_out.with_file
      (Filename.concat dir (tb.id ^ ".csv"))
      ~headers:tb.headers
      (fun c -> Csv_out.write_rows c tb.rows)
  with Sys_error _ | Unix.Unix_error _ -> ()

let print_result ?csv_dir (r : result) =
  List.iter
    (function
      | Table tb ->
          let t = Tbl.create ~headers:tb.headers in
          Tbl.add_rows t tb.rows;
          Tbl.print t;
          (match csv_dir with None -> () | Some dir -> export_csv ~dir tb)
      | Note s -> print_endline s)
    r.items

(* ------------------------------------------------------------------ *)
(* Serialization                                                       *)
(* ------------------------------------------------------------------ *)

let table_to_json (tb : table) =
  Jsonx.Obj
    [
      ("id", Jsonx.Str tb.id);
      ("headers", Jsonx.List (List.map (fun h -> Jsonx.Str h) tb.headers));
      ( "rows",
        Jsonx.List
          (List.map
             (fun row -> Jsonx.List (List.map (fun c -> Jsonx.Str c) row))
             tb.rows) );
    ]

let item_to_json = function
  | Table tb -> Jsonx.Obj [ ("table", table_to_json tb) ]
  | Note s -> Jsonx.Obj [ ("note", Jsonx.Str s) ]

let traj_row_to_json row =
  Jsonx.Obj (List.map (fun (k, v) -> (k, Jsonx.Float v)) row)

let result_to_json (r : result) =
  Jsonx.Obj
    [
      ("items", Jsonx.List (List.map item_to_json r.items));
      ( "metrics",
        Jsonx.Obj (List.map (fun (k, v) -> (k, Jsonx.Float v)) r.metrics) );
      ("trajectory", Jsonx.List (List.map traj_row_to_json r.trajectory));
    ]

let table_of_json j =
  {
    id = Jsonx.to_str (Jsonx.get "id" j);
    headers = List.map Jsonx.to_str (Jsonx.to_list (Jsonx.get "headers" j));
    rows =
      List.map
        (fun row -> List.map Jsonx.to_str (Jsonx.to_list row))
        (Jsonx.to_list (Jsonx.get "rows" j));
  }

let item_of_json j =
  match (Jsonx.member "table" j, Jsonx.member "note" j) with
  | Some tb, _ -> Table (table_of_json tb)
  | None, Some n -> Note (Jsonx.to_str n)
  | None, None -> failwith "Registry.item_of_json: neither table nor note"

let result_of_json j =
  {
    items = List.map item_of_json (Jsonx.to_list (Jsonx.get "items" j));
    metrics =
      List.map
        (fun (k, v) -> (k, Jsonx.to_float v))
        (Jsonx.to_obj (Jsonx.get "metrics" j));
    trajectory =
      List.map
        (fun row ->
          List.map (fun (k, v) -> (k, Jsonx.to_float v)) (Jsonx.to_obj row))
        (Jsonx.to_list (Jsonx.get "trajectory" j));
  }
