(** Layered left-to-right rendering of gadget graphs as SVG.

    The figures in Section 3 of the paper are chains (Fig 3.1) and cycles
    (Fig 3.2) of gadgets: long horizontal paths with short parallel
    sections and, in the cyclic case, one feedback edge.  A general
    force-directed layout would be overkill and nondeterministic; a
    longest-path layering over the acyclic part of the graph is exact for
    this family and a reasonable default for any mostly-forward digraph.

    Feedback edges (edges that would close a cycle, found by a
    deterministic DFS in node/edge id order) are excluded from the
    layering and drawn as an arc routed below the diagram — for a gadget
    cycle this is precisely the stitch edge [e0]. *)

val render :
  ?w:float ->
  ?edge_color:(Aqt_graph.Digraph.edge -> string) ->
  ?node_labels:bool ->
  ?legend:(string * string) list ->
  title:string ->
  Aqt_graph.Digraph.t ->
  string
(** [render ~title g] is a complete SVG document.

    Nodes become dots with their {!Aqt_graph.Digraph.node_name} beneath
    (suppress with [node_labels:false]); edges become arrows with their
    label at the midpoint.
    [edge_color] maps each edge to a stroke color — default a neutral
    dark gray; use it to distinguish edge classes (e-paths, f-paths,
    shared edges).  [legend] adds color-swatch/label pairs in the top
    right.  [w] is a minimum width; the diagram widens as layers demand.

    Deterministic: layering, per-layer ordering and feedback-edge
    detection depend only on node/edge insertion ids, and every
    coordinate is formatted through {!Svg.f}. *)
