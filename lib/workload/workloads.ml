module D = Aqt_graph.Digraph
module B = Aqt_graph.Build

type t = {
  name : string;
  graph : D.t;
  routes : int array list;
  d : int;
}

let d_of routes =
  List.fold_left (fun acc r -> max acc (Array.length r)) 0 routes

let make name graph routes = { name; graph; routes; d = d_of routes }

let line_full ~hops =
  let l = B.line hops in
  make (Printf.sprintf "line%d/full" hops) l.graph [ l.edges ]

let line_suffixes ~hops =
  let l = B.line hops in
  let routes = List.init hops (fun j -> Array.sub l.edges j (hops - j)) in
  make (Printf.sprintf "line%d/suffixes" hops) l.graph routes

let line_windows ~hops ~d =
  if d > hops then invalid_arg "Workloads.line_windows: d > hops";
  let l = B.line hops in
  let routes = List.init (hops - d + 1) (fun j -> Array.sub l.edges j d) in
  make (Printf.sprintf "line%d/windows%d" hops d) l.graph routes

let ring_wrap ~nodes ~d =
  if d >= nodes then invalid_arg "Workloads.ring_wrap: d must be < nodes";
  let r = B.ring nodes in
  let routes =
    List.init nodes (fun i ->
        Array.init d (fun j -> r.edges.((i + j) mod nodes)))
  in
  make (Printf.sprintf "ring%d/wrap%d" nodes d) r.graph routes

let parallel_spread ~branches ~hops =
  let p = B.parallel_paths ~branches ~hops in
  make
    (Printf.sprintf "parallel%dx%d" branches hops)
    p.graph
    (Array.to_list p.paths)

let tree_to_root ~depth =
  let t = B.in_tree ~depth in
  let routes =
    List.map
      (fun leaf ->
        match D.shortest_path t.graph ~src:leaf ~dst:t.root with
        | Some route -> route
        | None -> assert false)
      (Array.to_list t.leaves)
  in
  make (Printf.sprintf "tree%d/to-root" depth) t.graph routes

let random_simple ~prng ~nodes ~n_routes =
  let rec attempt tries =
    let graph =
      B.random_dag ~prng ~nodes ~edge_prob_num:1 ~edge_prob_den:3
    in
    let routes = ref [] in
    for _ = 1 to n_routes do
      let a = Aqt_util.Prng.int prng nodes
      and b = Aqt_util.Prng.int prng nodes in
      let src = min a b and dst = max a b in
      if src <> dst then
        match D.shortest_path graph ~src ~dst with
        | Some route when Array.length route > 0 -> routes := route :: !routes
        | _ -> ()
    done;
    match !routes with
    | [] when tries < 20 -> attempt (tries + 1)
    | [] -> invalid_arg "Workloads.random_simple: no routes found"
    | routes -> make (Printf.sprintf "random%d" nodes) graph routes
  in
  attempt 0

let standard_grid () =
  [
    line_full ~hops:5;
    line_suffixes ~hops:5;
    line_windows ~hops:8 ~d:4;
    ring_wrap ~nodes:12 ~d:5;
    parallel_spread ~branches:4 ~hops:3;
    tree_to_root ~depth:3;
  ]

let max_overlap t =
  let counts = Array.make (D.n_edges t.graph) 0 in
  List.iter
    (fun route -> Array.iter (fun e -> counts.(e) <- counts.(e) + 1) route)
    t.routes;
  Array.fold_left max 0 counts

let validate t =
  t.d = d_of t.routes
  && t.routes <> []
  && List.for_all (fun route -> D.route_is_simple t.graph route) t.routes
