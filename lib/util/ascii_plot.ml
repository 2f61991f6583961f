type series = { glyph : char; points : (float * float) array }

(* Raster size in characters. *)
let width = 72
let height = 20

type t = {
  logy : bool;
  title : string;
  mutable series : series list;
}

let create ?(logy = false) ~title () = { logy; title; series = [] }

let add_series t ~glyph points = t.series <- { glyph; points } :: t.series

let yval t y = if t.logy then log10 (Float.max 1.0 y) else y

let render t =
  let all =
    List.concat_map (fun s -> Array.to_list s.points) t.series
  in
  match all with
  | [] -> t.title ^ "\n(empty plot)\n"
  | _ ->
      let xs = List.map fst all and ys = List.map (fun (_, y) -> yval t y) all in
      let xmin = List.fold_left Float.min Float.infinity xs in
      let xmax = List.fold_left Float.max Float.neg_infinity xs in
      let ymin = List.fold_left Float.min Float.infinity ys in
      let ymax = List.fold_left Float.max Float.neg_infinity ys in
      let xspan = if xmax > xmin then xmax -. xmin else 1.0 in
      let yspan = if ymax > ymin then ymax -. ymin else 1.0 in
      let raster = Array.make_matrix height width ' ' in
      let plot s =
        Array.iter
          (fun (x, y) ->
            let y = yval t y in
            let col =
              int_of_float ((x -. xmin) /. xspan *. float_of_int (width - 1))
            in
            let row =
              height - 1
              - int_of_float
                  ((y -. ymin) /. yspan *. float_of_int (height - 1))
            in
            if col >= 0 && col < width && row >= 0 && row < height then
              raster.(row).(col) <- s.glyph)
          s.points
      in
      List.iter plot (List.rev t.series);
      let buf = Buffer.create ((width + 12) * (height + 3)) in
      Buffer.add_string buf t.title;
      Buffer.add_char buf '\n';
      let ylabel row =
        let frac = float_of_int (height - 1 - row) /. float_of_int (height - 1) in
        let v = ymin +. (frac *. yspan) in
        let v = if t.logy then 10.0 ** v else v in
        Printf.sprintf "%10.3g" v
      in
      for row = 0 to height - 1 do
        let label =
          if row = 0 || row = height - 1 || row = height / 2 then ylabel row
          else String.make 10 ' '
        in
        Buffer.add_string buf label;
        Buffer.add_string buf " |";
        Buffer.add_string buf (String.init width (fun c -> raster.(row).(c)));
        Buffer.add_char buf '\n'
      done;
      Buffer.add_string buf (String.make 11 ' ');
      Buffer.add_char buf '+';
      Buffer.add_string buf (String.make width '-');
      Buffer.add_char buf '\n';
      Buffer.add_string buf
        (Printf.sprintf "%10.3g%s%.3g\n" xmin
           (String.make (max 1 (width - 8)) ' ')
           xmax);
      Buffer.contents buf

let print t = print_string (render t)
