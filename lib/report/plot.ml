type series = {
  label : string;
  points : (float * float) array;
  step : bool;
}

let series ?(step = false) label points = { label; points; step }

(* Nice ticks: largest of 1, 2, 5 x 10^k giving at most [max_ticks]
   intervals over [lo, hi].  Pure float arithmetic on finite inputs. *)
let ticks ~lo ~hi ~max_ticks =
  if not (Float.is_finite lo && Float.is_finite hi) || hi <= lo then [ lo ]
  else begin
    let span = hi -. lo in
    let raw = span /. float_of_int (max 1 max_ticks) in
    let mag = 10.0 ** Float.floor (log10 raw) in
    let norm = raw /. mag in
    let step =
      if norm <= 1.0 then mag
      else if norm <= 2.0 then 2.0 *. mag
      else if norm <= 5.0 then 5.0 *. mag
      else 10.0 *. mag
    in
    let first = Float.ceil (lo /. step) *. step in
    let rec collect t acc =
      if t > hi +. (step *. 1e-9) then List.rev acc
      else collect (t +. step) ((if Float.abs t < step *. 1e-9 then 0.0 else t) :: acc)
    in
    match collect first [] with [] -> [ lo ] | ts -> ts
  end

let finite_points s =
  Array.of_seq
    (Seq.filter
       (fun (x, y) -> Float.is_finite x && Float.is_finite y)
       (Array.to_seq s.points))

(* Pad a degenerate (empty-width) range so scaling stays well-defined:
   a constant series plots as a centered flat line, a single point as a
   centered marker. *)
let pad_range lo hi =
  if hi > lo then (lo, hi)
  else begin
    let pad = Float.max 1.0 (Float.abs lo *. 0.1) in
    (lo -. pad, hi +. pad)
  end

let margin_l = 64.0
let margin_r = 18.0
let margin_t = 34.0
let margin_b = 46.0

let tick_label v =
  (* Large magnitudes render as "12k" to keep the axis quiet. *)
  if Float.abs v >= 10_000.0 && Float.is_integer (v /. 100.0) then
    Svg.f (v /. 1000.0) ^ "k"
  else Svg.f v

let frame ~w ~h ~title ?x_label ?y_label () =
  let open Svg in
  [
    text_at ~x:(w /. 2.0) ~y:20.0
      ~attrs:
        [
          ("text-anchor", "middle"); ("font-size", "14"); ("fill", text_primary);
          ("font-weight", "bold");
        ]
      title;
  ]
  @ (match x_label with
    | Some l ->
        [
          text_at ~x:((margin_l +. (w -. margin_r)) /. 2.0) ~y:(h -. 8.0)
            ~attrs:
              [
                ("text-anchor", "middle"); ("font-size", "11");
                ("fill", text_secondary);
              ]
            l;
        ]
    | None -> [])
  @
  match y_label with
  | Some l ->
      [
        text_at ~x:14.0 ~y:((margin_t +. (h -. margin_b)) /. 2.0)
          ~attrs:
            [
              ("text-anchor", "middle"); ("font-size", "11");
              ("fill", text_secondary);
              ( "transform",
                Printf.sprintf "rotate(-90 %s %s)" (Svg.f 14.0)
                  (Svg.f ((margin_t +. (h -. margin_b)) /. 2.0)) );
            ]
          l;
      ]
  | None -> []

let render ?(w = 640.0) ?(h = 400.0) ?x_label ?y_label ?(y_from_zero = true)
    ~title series_list =
  let open Svg in
  let plots = List.map (fun s -> (s, finite_points s)) series_list in
  let all = List.concat_map (fun (_, p) -> Array.to_list p) plots in
  let x0 = margin_l and x1 = w -. margin_r in
  let y0 = h -. margin_b and y1 = margin_t in
  match all with
  | [] ->
      document ~w ~h ~title
        (frame ~w ~h ~title ?x_label ?y_label ()
        @ [
            rect ~x:x0 ~y:y1 ~w:(x1 -. x0) ~h:(y0 -. y1)
              ~attrs:[ ("fill", "none"); ("stroke", axis_color) ] ();
            text_at ~x:((x0 +. x1) /. 2.0) ~y:((y0 +. y1) /. 2.0)
              ~attrs:
                [
                  ("text-anchor", "middle"); ("font-size", "12");
                  ("fill", text_secondary);
                ]
              "no data";
          ])
  | _ ->
      let xs = List.map fst all and ys = List.map snd all in
      let xmin = List.fold_left Float.min Float.infinity xs in
      let xmax = List.fold_left Float.max Float.neg_infinity xs in
      let ymin = List.fold_left Float.min Float.infinity ys in
      let ymax = List.fold_left Float.max Float.neg_infinity ys in
      let ymin = if y_from_zero && ymin >= 0.0 then 0.0 else ymin in
      let xmin, xmax = pad_range xmin xmax in
      let ymin, ymax = pad_range ymin ymax in
      let sx x = x0 +. ((x -. xmin) /. (xmax -. xmin) *. (x1 -. x0)) in
      let sy y = y0 -. ((y -. ymin) /. (ymax -. ymin) *. (y0 -. y1)) in
      let xticks = ticks ~lo:xmin ~hi:xmax ~max_ticks:6 in
      let yticks = ticks ~lo:ymin ~hi:ymax ~max_ticks:6 in
      let grid =
        List.map
          (fun v ->
            line ~x1:(sx v) ~y1:y0 ~x2:(sx v) ~y2:y1
              ~attrs:[ ("stroke", grid_color) ] ())
          xticks
        @ List.map
            (fun v ->
              line ~x1:x0 ~y1:(sy v) ~x2:x1 ~y2:(sy v)
                ~attrs:[ ("stroke", grid_color) ] ())
            yticks
      in
      let axis_labels =
        List.map
          (fun v ->
            text_at ~x:(sx v) ~y:(y0 +. 16.0)
              ~attrs:
                [
                  ("text-anchor", "middle"); ("font-size", "10");
                  ("fill", text_secondary);
                ]
              (tick_label v))
          xticks
        @ List.map
            (fun v ->
              text_at ~x:(x0 -. 6.0) ~y:(sy v +. 3.5)
                ~attrs:
                  [
                    ("text-anchor", "end"); ("font-size", "10");
                    ("fill", text_secondary);
                  ]
                (tick_label v))
            yticks
      in
      let curves =
        List.concat
          (List.mapi
             (fun i (s, pts) ->
               if Array.length pts = 0 then []
               else begin
                 let color = series_color i in
                 let coords =
                   if s.step then begin
                     (* Staircase: hold y until the next sample's x. *)
                     let acc = ref [] in
                     Array.iteri
                       (fun j (x, y) ->
                         if j > 0 then begin
                           let _, py = pts.(j - 1) in
                           acc := (sx x, sy py) :: !acc
                         end;
                         acc := (sx x, sy y) :: !acc)
                       pts;
                     List.rev !acc
                   end
                   else
                     Array.to_list (Array.map (fun (x, y) -> (sx x, sy y)) pts)
                 in
                 let line_el =
                   if Array.length pts = 1 then []
                   else
                     [
                       polyline coords
                         ~attrs:
                           [
                             ("stroke", color); ("stroke-width", "2");
                             ("stroke-linejoin", "round");
                           ];
                     ]
                 in
                 let markers =
                   if Array.length pts <= 40 then
                     Array.to_list
                       (Array.map
                          (fun (x, y) ->
                            circle ~cx:(sx x) ~cy:(sy y) ~r:4.0
                              ~attrs:
                                [ ("fill", color); ("stroke", surface);
                                  ("stroke-width", "1") ]
                              ())
                          pts)
                   else []
                 in
                 line_el @ markers
               end)
             plots)
      in
      let legend =
        if List.length series_list < 2 then []
        else
          List.concat
            (List.mapi
               (fun i (s, _) ->
                 let ly = y1 +. 8.0 +. (float_of_int i *. 16.0) in
                 [
                   rect ~x:(x1 -. 130.0) ~y:(ly -. 8.0) ~w:10.0 ~h:10.0
                     ~attrs:[ ("fill", series_color i) ] ();
                   text_at ~x:(x1 -. 115.0) ~y:ly
                     ~attrs:
                       [ ("font-size", "11"); ("fill", text_primary) ]
                     s.label;
                 ])
               plots)
      in
      document ~w ~h ~title
        (grid
        @ [
            line ~x1:x0 ~y1:y0 ~x2:x1 ~y2:y0 ~attrs:[ ("stroke", axis_color) ] ();
            line ~x1:x0 ~y1:y0 ~x2:x0 ~y2:y1 ~attrs:[ ("stroke", axis_color) ] ();
          ]
        @ axis_labels
        @ frame ~w ~h ~title ?x_label ?y_label ()
        @ curves @ legend)

let hbars ?(w = 720.0) ?(log_x = false) ?x_label ~title bars =
  let open Svg in
  let n = List.length bars in
  let bar_h = 18.0 and gap = 8.0 in
  let label_w = 260.0 in
  let top = 34.0 in
  let h =
    top +. (float_of_int n *. (bar_h +. gap)) +. 40.0
  in
  let x0 = label_w and x1 = w -. 70.0 in
  let value v = if log_x then log10 (Float.max v 1.0) else Float.max v 0.0 in
  let vmax =
    List.fold_left (fun acc (_, v) -> Float.max acc (value v)) 1.0 bars
  in
  let sx v = x0 +. (value v /. vmax *. (x1 -. x0)) in
  let elements =
    List.concat
      (List.mapi
         (fun i (label, v) ->
           let y = top +. (float_of_int i *. (bar_h +. gap)) in
           [
             text_at ~x:(x0 -. 8.0) ~y:(y +. (bar_h /. 2.0) +. 3.5)
               ~attrs:
                 [
                   ("text-anchor", "end"); ("font-size", "11");
                   ("fill", text_primary);
                 ]
               label;
             rect ~x:x0 ~y ~w:(Float.max 1.0 (sx v -. x0)) ~h:bar_h
               ~attrs:[ ("fill", series_color 0); ("rx", "3") ] ();
             text_at ~x:(sx v +. 6.0) ~y:(y +. (bar_h /. 2.0) +. 3.5)
               ~attrs:[ ("font-size", "10"); ("fill", text_secondary) ]
               (Printf.sprintf "%.3g" v);
           ])
         bars)
  in
  let footer =
    match x_label with
    | Some l ->
        [
          text_at ~x:((x0 +. x1) /. 2.0) ~y:(h -. 12.0)
            ~attrs:
              [
                ("text-anchor", "middle"); ("font-size", "11");
                ("fill", text_secondary);
              ]
            (if log_x then l ^ " (log scale)" else l);
        ]
    | None -> []
  in
  document ~w ~h ~title
    (text_at ~x:(w /. 2.0) ~y:20.0
       ~attrs:
         [
           ("text-anchor", "middle"); ("font-size", "14");
           ("fill", text_primary); ("font-weight", "bold");
         ]
       title
    :: elements
    @ footer)
