module Jsonx = Aqt_util.Jsonx
type value =
  | Bool of bool
  | Int of int
  | Float of float
  | Ratio of int * int
  | Str of string
  | List of value list

type t = (string * value) list

let rec encode_value buf = function
  | Bool b -> Buffer.add_string buf (if b then "b:1" else "b:0")
  | Int i ->
      Buffer.add_string buf "i:";
      Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (Printf.sprintf "f:%.17g" f)
  | Ratio (n, d) -> Buffer.add_string buf (Printf.sprintf "r:%d/%d" n d)
  | Str s ->
      Buffer.add_string buf (Printf.sprintf "s:%d:" (String.length s));
      Buffer.add_string buf s
  | List vs ->
      Buffer.add_string buf (Printf.sprintf "l:%d:[" (List.length vs));
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ';';
          encode_value buf v)
        vs;
      Buffer.add_char buf ']'

let canonical t =
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) t in
  let rec dup = function
    | (a, _) :: ((b, _) :: _ as rest) ->
        if String.equal a b then
          invalid_arg (Printf.sprintf "Spec.canonical: duplicate key %S" a)
        else dup rest
    | _ -> ()
  in
  dup sorted;
  let buf = Buffer.create 128 in
  List.iter
    (fun (k, v) ->
      Buffer.add_string buf (Printf.sprintf "%d:%s=" (String.length k) k);
      encode_value buf v;
      Buffer.add_char buf '\n')
    sorted;
  Buffer.contents buf

let hash ?(salt = "") ~name t =
  Digest.to_hex
    (Digest.string (name ^ "\x00" ^ salt ^ "\x00" ^ canonical t))

let rec value_to_json = function
  | Bool b -> Jsonx.Bool b
  | Int i -> Jsonx.Int i
  | Float f -> Jsonx.Float f
  | Ratio (n, d) -> Jsonx.Str (Printf.sprintf "%d/%d" n d)
  | Str s -> Jsonx.Str s
  | List vs -> Jsonx.List (List.map value_to_json vs)

let to_json t = Jsonx.Obj (List.map (fun (k, v) -> (k, value_to_json v)) t)

type reader = { fields : t; mutable seen : string list }

(* [conv] raises [Exit] on a value of another shape. *)
type 'a shape = { what : string; conv : value -> 'a }

let int = { what = "int"; conv = (function Int i -> i | _ -> raise Exit) }

let ratio =
  {
    what = "ratio";
    conv =
      (function
      | Ratio (n, d) when d <> 0 -> Aqt_util.Ratio.make n d | _ -> raise Exit);
  }

let list s =
  {
    what = s.what ^ " list";
    conv = (function List vs -> List.map s.conv vs | _ -> raise Exit);
  }

let pair a b =
  {
    what = Printf.sprintf "(%s * %s)" a.what b.what;
    conv = (function List [ x; y ] -> (a.conv x, b.conv y) | _ -> raise Exit);
  }

let get r shape key =
  match List.assoc_opt key r.fields with
  | None -> invalid_arg (Printf.sprintf "Spec: no field %S" key)
  | Some v -> (
      r.seen <- key :: r.seen;
      try shape.conv v
      with Exit ->
        invalid_arg (Printf.sprintf "Spec: field %S: expected %s" key shape.what))

let read spec f =
  let r = { fields = spec; seen = [] } in
  let x = f r in
  List.iter
    (fun (key, _) ->
      if not (List.mem key r.seen) then
        invalid_arg (Printf.sprintf "Spec: field %S never read" key))
    spec;
  x
