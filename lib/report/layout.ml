module D = Aqt_graph.Digraph

(* Feedback edges by DFS from every root in node-id order, visiting
   out-edges in insertion order: an edge into a node currently on the
   stack closes a cycle.  For a gadget cycle this finds exactly [e0]. *)
let feedback_edges g =
  let n = D.n_nodes g in
  let state = Array.make n `White in
  let feedback = ref [] in
  let rec visit v =
    state.(v) <- `Gray;
    List.iter
      (fun eid ->
        let w = D.dst g eid in
        match state.(w) with
        | `Gray -> feedback := eid :: !feedback
        | `White -> visit w
        | `Black -> ())
      (D.out_edges g v);
    state.(v) <- `Black
  in
  for v = 0 to n - 1 do
    if state.(v) = `White then visit v
  done;
  List.rev !feedback

(* Longest-path layering over the forward (non-feedback) edges:
   layer v = 1 + max over forward in-edges of layer (src). *)
let layers g ~is_feedback =
  let n = D.n_nodes g in
  let layer = Array.make n (-1) in
  let rec compute v =
    if layer.(v) >= 0 then layer.(v)
    else begin
      (* Mark to cut (impossible) cycles among forward edges. *)
      layer.(v) <- 0;
      let l =
        List.fold_left
          (fun acc eid ->
            if is_feedback eid then acc
            else max acc (1 + compute (D.src g eid)))
          0 (D.in_edges g v)
      in
      layer.(v) <- l;
      l
    end
  in
  for v = 0 to n - 1 do
    ignore (compute v)
  done;
  layer

let arrow_head ~x ~y ~dx ~dy ~color =
  (* A small triangle with its tip at (x, y), pointing along (dx, dy). *)
  let len = Float.hypot dx dy in
  let len = if len <= 0.0 then 1.0 else len in
  let ux = dx /. len and uy = dy /. len in
  let px = -.uy and py = ux in
  let bx = x -. (ux *. 7.0) and by = y -. (uy *. 7.0) in
  let pt (px, py) = Svg.f px ^ "," ^ Svg.f py in
  Svg.el "polygon"
    [
      ( "points",
        String.concat " "
          [
            pt (x, y);
            pt (bx +. (px *. 3.0), by +. (py *. 3.0));
            pt (bx -. (px *. 3.0), by -. (py *. 3.0));
          ] );
      ("fill", color);
    ]
    []

let render ?(w = 640.0) ?edge_color ?(node_labels = true) ?(legend = []) ~title
    g =
  let open Svg in
  let color_of =
    match edge_color with Some f -> f | None -> fun _ -> text_secondary
  in
  let fb = feedback_edges g in
  let is_feedback eid = List.mem eid fb in
  let layer = layers g ~is_feedback in
  let n_layers = 1 + Array.fold_left max 0 layer in
  let by_layer = Array.make n_layers [] in
  (* Iterate ids downward so each per-layer list ends up id-ascending. *)
  for v = D.n_nodes g - 1 downto 0 do
    by_layer.(layer.(v)) <- v :: by_layer.(layer.(v))
  done;
  let max_rows = Array.fold_left (fun a l -> max a (List.length l)) 1 by_layer in
  let margin_l = 36.0 and margin_r = 36.0 in
  let margin_t = 44.0 in
  let row_gap = 56.0 in
  let has_feedback = fb <> [] in
  let margin_b = (if has_feedback then 56.0 else 34.0) +. 10.0 in
  let dx =
    Float.max 52.0
      ((w -. margin_l -. margin_r) /. float_of_int (max 1 (n_layers - 1)))
  in
  let w = margin_l +. margin_r +. (dx *. float_of_int (max 1 (n_layers - 1))) in
  let h = margin_t +. margin_b +. (row_gap *. float_of_int (max 1 (max_rows - 1))) in
  let pos = Array.make (D.n_nodes g) (0.0, 0.0) in
  Array.iteri
    (fun l nodes ->
      let k = List.length nodes in
      let x = margin_l +. (dx *. float_of_int l) in
      (* Center the layer's rows vertically. *)
      let y_top =
        margin_t +. (row_gap *. float_of_int (max_rows - k) /. 2.0)
      in
      List.iteri
        (fun i v -> pos.(v) <- (x, y_top +. (row_gap *. float_of_int i)))
        nodes)
    by_layer;
  let node_r = 3.5 in
  let forward_edge eid =
    let e = D.edge g eid in
    let x1, y1 = pos.(e.D.src) and x2, y2 = pos.(e.D.dst) in
    let dxe = x2 -. x1 and dye = y2 -. y1 in
    let len = Float.hypot dxe dye in
    let len = if len <= 0.0 then 1.0 else len in
    let ux = dxe /. len and uy = dye /. len in
    (* Shorten to the node boundary at both ends. *)
    let sx = x1 +. (ux *. node_r) and sy = y1 +. (uy *. node_r) in
    let tx = x2 -. (ux *. (node_r +. 2.0)) and ty = y2 -. (uy *. (node_r +. 2.0)) in
    let color = color_of e in
    let label =
      let mx = (sx +. tx) /. 2.0 and my = (sy +. ty) /. 2.0 in
      (* Offset the label perpendicular to the edge, favoring "above". *)
      let ox = -.uy *. 9.0 and oy = Float.min (ux *. -9.0) (-6.0) in
      text_at ~x:(mx +. ox) ~y:(my +. oy)
        ~attrs:
          [
            ("text-anchor", "middle"); ("font-size", "9");
            ("fill", text_secondary);
          ]
        (D.label g eid)
    in
    [
      line ~x1:sx ~y1:sy ~x2:tx ~y2:ty
        ~attrs:[ ("stroke", color); ("stroke-width", "1.5") ]
        ();
      arrow_head ~x:tx ~y:ty ~dx:ux ~dy:uy ~color;
      label;
    ]
  in
  let feedback_edge eid =
    let e = D.edge g eid in
    let x1, y1 = pos.(e.D.src) and x2, y2 = pos.(e.D.dst) in
    let y_arc = h -. 18.0 in
    let color = color_of e in
    let d =
      Printf.sprintf "M %s %s C %s %s, %s %s, %s %s" (Svg.f x1)
        (Svg.f (y1 +. node_r))
        (Svg.f x1) (Svg.f y_arc) (Svg.f x2) (Svg.f y_arc) (Svg.f x2)
        (Svg.f (y2 +. node_r +. 2.0))
    in
    let label =
      text_at ~x:((x1 +. x2) /. 2.0) ~y:(y_arc -. 5.0)
        ~attrs:
          [
            ("text-anchor", "middle"); ("font-size", "9");
            ("fill", text_secondary);
          ]
        (D.label g eid)
    in
    [
      path d
        ~attrs:[ ("stroke", color); ("stroke-width", "1.5"); ("fill", "none") ];
      arrow_head ~x:x2 ~y:(y2 +. node_r +. 2.0) ~dx:0.0 ~dy:(-1.0) ~color;
      label;
    ]
  in
  let edges_svg =
    List.concat
      (List.init (D.n_edges g) (fun eid ->
           if is_feedback eid then feedback_edge eid else forward_edge eid))
  in
  let nodes_svg =
    List.concat
      (List.init (D.n_nodes g) (fun v ->
           let x, y = pos.(v) in
           circle ~cx:x ~cy:y ~r:node_r
             ~attrs:
               [
                 ("fill", surface); ("stroke", text_primary);
                 ("stroke-width", "1.5");
               ]
             ()
           ::
           (if node_labels then
              [
                text_at ~x ~y:(y +. 15.0)
                  ~attrs:
                    [
                      ("text-anchor", "middle"); ("font-size", "8");
                      ("fill", text_secondary);
                    ]
                  (D.node_name g v);
              ]
            else [])))
  in
  let legend_svg =
    List.concat
      (List.mapi
         (fun i (color, lbl) ->
           let ly = 14.0 +. (float_of_int i *. 15.0) in
           [
             line ~x1:(w -. 120.0) ~y1:(ly -. 3.0) ~x2:(w -. 104.0)
               ~y2:(ly -. 3.0)
               ~attrs:[ ("stroke", color); ("stroke-width", "2.5") ]
               ();
             text_at ~x:(w -. 99.0) ~y:ly
               ~attrs:[ ("font-size", "10"); ("fill", text_primary) ]
               lbl;
           ])
         legend)
  in
  document ~w ~h ~title
    (text_at ~x:(w /. 2.0) ~y:22.0
       ~attrs:
         [
           ("text-anchor", "middle"); ("font-size", "14");
           ("fill", text_primary); ("font-weight", "bold");
         ]
       title
    :: (edges_svg @ nodes_svg @ legend_svg))
