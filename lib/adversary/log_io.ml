type t = {
  meta : (string * string) list;
  initial : int array array;
  log : (int * int array) array;
}

let meta_value t key = List.assoc_opt key t.meta

let route_to_string route =
  String.concat " " (Array.to_list (Array.map string_of_int route))

let to_string t =
  let buf = Buffer.create (1024 + (Array.length t.log * 16)) in
  Buffer.add_string buf "# aqt injection log\n";
  List.iter
    (fun (k, v) ->
      Buffer.add_string buf (Printf.sprintf "meta %s %s\n" k v))
    t.meta;
  Array.iter
    (fun route ->
      Buffer.add_string buf "init ";
      Buffer.add_string buf (route_to_string route);
      Buffer.add_char buf '\n')
    t.initial;
  Array.iter
    (fun (time, route) ->
      Buffer.add_string buf (string_of_int time);
      Buffer.add_char buf ' ';
      Buffer.add_string buf (route_to_string route);
      Buffer.add_char buf '\n')
    t.log;
  Buffer.contents buf

let of_string s =
  let meta = ref [] and initial = ref [] and log = ref [] in
  let prev_time = ref min_int in
  let parse_route what words =
    match List.map int_of_string words with
    | [] -> failwith (Printf.sprintf "Log_io: empty route in %s record" what)
    | edges -> Array.of_list edges
  in
  String.split_on_char '\n' s
  |> List.iteri (fun lineno line ->
         let line = String.trim line in
         if line = "" || line.[0] = '#' then ()
         else begin
           match String.split_on_char ' ' line |> List.filter (( <> ) "") with
           | [ "meta"; k; v ] ->
               if !initial <> [] || !log <> [] then
                 failwith "Log_io: meta record after data records";
               meta := (k, v) :: !meta
           | "init" :: rest ->
               if !log <> [] then
                 failwith "Log_io: init record after injection records";
               initial := parse_route "init" rest :: !initial
           | time :: rest -> (
               match int_of_string_opt time with
               | None ->
                   failwith
                     (Printf.sprintf "Log_io: bad time on line %d" (lineno + 1))
               | Some time ->
                   if time < !prev_time then
                     failwith "Log_io: injection times not sorted";
                   prev_time := time;
                   log := (time, parse_route "injection" rest) :: !log)
           | [] -> ()
         end);
  {
    meta = List.rev !meta;
    initial = Aqt_util.Boxed_array.of_list (List.rev !initial);
    log = Aqt_util.Boxed_array.of_list (List.rev !log);
  }

let save file t =
  let oc = open_out file in
  (match output_string oc (to_string t) with
  | () -> close_out oc
  | exception e ->
      close_out_noerr oc;
      raise e)

let load file =
  let ic = open_in_bin file in
  let s =
    match really_input_string ic (in_channel_length ic) with
    | s ->
        close_in ic;
        s
    | exception e ->
        close_in_noerr ic;
        raise e
  in
  of_string s

let of_network ?(meta = []) net =
  {
    meta;
    initial = Aqt_engine.Network.initial_final_routes net;
    log = Aqt_engine.Network.injection_log net;
  }
