module Ratio = Aqt_util.Ratio
module Jsonx = Aqt_util.Jsonx
module Boxed_array = Aqt_util.Boxed_array
module Registry = Aqt_harness.Registry
module Campaign = Aqt_harness.Campaign
module Journal = Aqt_harness.Journal
module Scheduler = Aqt_harness.Scheduler
module D = Aqt_graph.Digraph
module Build = Aqt_graph.Build
module Spacetime = Aqt_engine.Spacetime
module Phased = Aqt_adversary.Phased
module Stock = Aqt_adversary.Stock
module Policies = Aqt_policy.Policies
module G = Aqt.Gadget

type ctx = {
  results : (string * Registry.result) list;
  bench : (string * float) list;
}

type figure = {
  id : string;
  title : string;
  caption : string;
  experiments : string list;
  render : ctx -> string;
}

(* ------------------------------------------------------------------ *)
(* Data access                                                         *)
(* ------------------------------------------------------------------ *)

let find_table ctx ~experiment ~id =
  match List.assoc_opt experiment ctx.results with
  | None -> None
  | Some r ->
      List.find_map
        (function
          | Registry.Table t when t.Registry.id = id -> Some t
          | _ -> None)
        r.Registry.items

(* Table cells are display strings; parse the shapes the experiment
   tables actually use: ints, floats, "a/b" ratios, "1.85x" growth
   factors, booleans.  Anything else becomes nan and the plot layer
   drops it. *)
let cell_float s =
  let s = String.trim s in
  let s =
    let l = String.length s in
    if l > 1 && s.[l - 1] = 'x' then String.sub s 0 (l - 1) else s
  in
  match String.index_opt s '/' with
  | Some i -> (
      match
        ( int_of_string_opt (String.sub s 0 i),
          int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) )
      with
      | Some a, Some b when b <> 0 -> float_of_int a /. float_of_int b
      | _ -> Float.nan)
  | None -> (
      match s with
      | "true" -> 1.0
      | "false" -> 0.0
      | _ -> Option.value (float_of_string_opt s) ~default:Float.nan)

let header_index (t : Registry.table) name =
  match List.find_index (String.equal name) t.Registry.headers with
  | Some i -> i
  | None -> raise Not_found

let column_s (t : Registry.table) name =
  let i = header_index t name in
  Boxed_array.of_list
    (List.map (fun row -> try List.nth row i with _ -> "") t.Registry.rows)

let column t name = Array.map cell_float (column_s t name)

(* One (x, y) series per distinct [group] cell, named [label cell]: groups
   in first-appearance order, each group's points in table order. *)
let series_by ?(label = Fun.id) t ~group ~x ~y =
  let keys = column_s t group and xs = column t x and ys = column t y in
  let groups = ref [] in
  Array.iteri
    (fun i k ->
      let pt = (xs.(i), ys.(i)) in
      match List.assoc_opt k !groups with
      | Some pts -> pts := pt :: !pts
      | None -> groups := (k, ref [ pt ]) :: !groups)
    keys;
  List.rev_map
    (fun (k, pts) ->
      Plot.series (label k) (Boxed_array.of_list (List.rev !pts)))
    !groups

(* The [cell] column pivoted over the [row] and [col] cells of the rows
   whose column [fst keep] reads [snd keep] (every row by default): row
   and column labels in first-appearance order, nan where no row gives a
   cell. *)
let grid_of ?keep t ~row ~col ~cell =
  let rv = column_s t row and cv = column_s t col and cells = column t cell in
  let kept =
    let all = List.init (Array.length rv) Fun.id in
    match keep with
    | None -> all
    | Some (name, v) ->
        let k = column_s t name in
        List.filter (fun i -> k.(i) = v) all
  in
  let firsts a =
    List.rev
      (List.fold_left
         (fun seen i -> if List.mem a.(i) seen then seen else a.(i) :: seen)
         [] kept)
  in
  let rows = firsts rv and cols = firsts cv in
  let index l v = Option.get (List.find_index (String.equal v) l) in
  let values =
    Array.make_matrix (List.length rows) (List.length cols) Float.nan
  in
  List.iter
    (fun i -> values.(index rows rv.(i)).(index cols cv.(i)) <- cells.(i))
    kept;
  (rows, cols, values)

(* Rate cells as percentages with [decimals] places; an exact zero reads
   "0" and an absent cell stays blank. *)
let annot_percent ~decimals =
  Array.map
    (Array.map (fun v ->
         if Float.is_nan v then None
         else if v = 0.0 then Some "0"
         else Some (Printf.sprintf "%.*f%%" decimals (100. *. v))))

let annot_count =
  Array.map
    (Array.map (fun v ->
         if Float.is_nan v then None else Some (Printf.sprintf "%.0f" v)))

let trajectory_points rows ~x ~y =
  Boxed_array.of_list
    (List.filter_map
       (fun row ->
         match (List.assoc_opt x row, List.assoc_opt y row) with
         | Some xv, Some yv -> Some (xv, yv)
         | _ -> None)
       rows)

let trajectory ctx experiment =
  match List.assoc_opt experiment ctx.results with
  | Some r -> r.Registry.trajectory
  | None -> []

(* ------------------------------------------------------------------ *)
(* Figure renders                                                      *)
(* ------------------------------------------------------------------ *)

(* Edge classes of a gadget graph, by label: e-paths carry the slow old
   flow, f-paths the fat extension, a_k are the shared edges, e0 is the
   cyclic stitch. *)
let gadget_edge_color (e : D.edge) =
  if e.D.label = "e0" then Svg.series_color 7
  else
    match if e.D.label = "" then ' ' else e.D.label.[0] with
    | 'e' -> Svg.series_color 0
    | 'f' -> Svg.series_color 1
    | _ -> Svg.text_primary

let gadget_legend ~cyclic =
  [
    (Svg.series_color 0, "e-path");
    (Svg.series_color 1, "f-path");
    (Svg.text_primary, "shared a_k");
  ]
  @ if cyclic then [ (Svg.series_color 7, "stitch e0") ] else []

let render_fig_3_1 _ =
  let g = G.chain ~n:4 ~m:2 () in
  Layout.render ~edge_color:gadget_edge_color ~legend:(gadget_legend ~cyclic:false)
    ~title:"Figure 3.1 - the gadget chain F(4)^2" g.G.graph

let render_fig_3_2 _ =
  let g = G.cyclic ~n:4 ~m:4 () in
  Layout.render ~edge_color:gadget_edge_color ~legend:(gadget_legend ~cyclic:true)
    ~node_labels:false ~title:"Figure 3.2 - the cyclic chain F(4)^4 + e0"
    g.G.graph

let render_e1_growth ctx =
  let title = "Theorem 3.17 - seed queue at the start of each cycle" in
  match find_table ctx ~experiment:"e1" ~id:"e1_thm_3_17" with
  | None -> Plot.render ~title []
  | Some t ->
      Plot.render ~x_label:"cycle" ~y_label:"seed queue (packets)" ~title
        (series_by t ~group:"eps"
           ~label:(fun e -> "eps=" ^ e)
           ~x:"cycle" ~y:"seed")

let render_e2_pump ctx =
  let title = "Lemma 3.6 - pump growth, measured vs predicted" in
  match find_table ctx ~experiment:"e2" ~id:"e2_lemma_3_6" with
  | None -> Plot.render ~title []
  | Some t ->
      let s = column t "S before" in
      let measured = column t "measured S'/S" in
      let predicted = column t "predicted 2(1-R_n)" in
      let zip ys = Array.map2 (fun x y -> (x, y)) s ys in
      Plot.render ~x_label:"S (packets before the pump)"
        ~y_label:"growth factor S'/S" ~title
        [
          Plot.series "measured" (zip measured);
          Plot.series "predicted 2(1-R_n)" (zip predicted);
        ]

let render_trajectory ~experiment ~title ctx =
  let rows = trajectory ctx experiment in
  Plot.render ~x_label:"step" ~y_label:"packets" ~title
    [
      Plot.series ~step:true "in flight"
        (trajectory_points rows ~x:"t" ~y:"in_flight");
      Plot.series ~step:true "max queue"
        (trajectory_points rows ~x:"t" ~y:"max_queue");
    ]

let render_fluid_pump _ =
  let r = 0.7 and n = 9 and total_old = 2000 in
  let p = Aqt.Fluid.pump_profile ~r ~n ~total_old in
  let dur = float_of_int p.Aqt.Fluid.duration in
  let samples = 200 in
  let series_for i =
    Plot.series
      (Printf.sprintf "buffer e'_%d" i)
      (Array.init (samples + 1) (fun j ->
           let t = dur *. float_of_int j /. float_of_int samples in
           (t, Aqt.Fluid.queue_at p ~i ~t)))
  in
  Plot.render ~x_label:"time since phase start" ~y_label:"fluid queue size"
    ~title:"Claims 3.9-3.11 - fluid buffer trajectories during one pump"
    (List.map series_for [ 1; 3; 5; 7; 9 ])

let sweep_rates =
  [
    Ratio.make 1 8;
    Ratio.make 1 4;
    Ratio.make 1 2;
    Ratio.make 3 4;
    Ratio.make 7 8;
    Ratio.make 19 20;
  ]

let render_sweep _ =
  let k = 8 and d = 4 and horizon = 4_000 in
  let w = 40 in
  let ring = Build.ring k in
  let graph = ring.Build.graph in
  let routes =
    List.init k (fun i ->
        Array.init d (fun j -> ring.Build.edges.((i + j) mod k)))
  in
  let route_table = Aqt_engine.Route_intern.create () in
  let policies = Policies.all_deterministic in
  let matrix =
    Array.of_list
      (List.map
         (fun policy ->
           Array.of_list
             (List.map
                (fun rate ->
                  (* d routes cross every edge, so the legal per-route
                     rate divides by the overlap (as in experiment e15);
                     packed bursts make the (w, r) pressure visible. *)
                  let per_route = Ratio.div rate (Ratio.of_int d) in
                  let adv =
                    Stock.windowed_burst ~packed:true ~w ~rate:per_route
                      ~routes ~horizon ()
                  in
                  let report =
                    Aqt.Sweep.classify ~route_table ~name:"report-sweep" ~graph
                      ~policy ~adversary:adv ~horizon ()
                  in
                  ( float_of_int report.Aqt.Sweep.max_queue,
                    Aqt.Sweep.verdict_to_string report.Aqt.Sweep.verdict ))
                sweep_rates))
         policies)
  in
  let values = Array.map (Array.map fst) matrix in
  let annot =
    Array.map
      (Array.map (fun (_, v) ->
           Some (String.uppercase_ascii (String.sub v 0 1))))
      matrix
  in
  Heatmap.render ~log_scale:true ~annot
    ~x_label:"injection rate" ~y_label:"policy"
    ~title:"Stability sweep - ring(8), d=4: max queue by policy and rate"
    ~rows:(List.map (fun (p : Aqt_engine.Policy_type.t) -> p.name) policies)
    ~cols:(List.map Ratio.to_string sweep_rates)
    values

(* The capacity figures read the c1/c2 campaign tables: the drop-rate
   grid as a heatmap over (cap, s), and the per-discipline tradeoff
   curves.  Both experiments are deterministic seeded simulations, so
   the figures are as reproducible as the rest. *)
let render_capacity_heatmap ctx =
  let title = "C1 - drop rate by buffer size and link speedup" in
  match find_table ctx ~experiment:"c1" ~id:"c1_drop_grid" with
  | None -> Heatmap.render ~title ~rows:[] ~cols:[] [||]
  | Some t ->
      (* Rows and columns in table order: c1's spec lists its speedups and
         caps ascending, as integers. *)
      let ss, caps, values = grid_of t ~row:"s" ~col:"cap" ~cell:"drop_rate" in
      Heatmap.render ~annot:(annot_percent ~decimals:0 values)
        ~x_label:"buffer capacity per edge" ~y_label:"link speedup" ~title
        ~rows:(List.map (fun s -> "s=" ^ s) ss)
        ~cols:caps values

let render_capacity_tradeoff ctx =
  let title = "C2 - drop rate vs buffer budget, by drop discipline" in
  match find_table ctx ~experiment:"c2" ~id:"c2_policies" with
  | None -> Plot.render ~title []
  | Some t ->
      Plot.render ~x_label:"buffer budget (cap per edge; 8*cap shared)"
        ~y_label:"drop rate" ~title
        (series_by t ~group:"discipline" ~x:"cap" ~y:"drop_rate")

(* The adversary-family figures read the n1/n2 campaign tables
   (ring rows only; the gadget rows stay in the tables).  Sweep order
   is preserved from the experiment, so rho decreases down the rows
   and the knob grows along the columns. *)
let render_local_burst_heatmap ctx =
  let title = "N1 - locally bursty: peak queue over (rho, sigma_e)" in
  match find_table ctx ~experiment:"n1" ~id:"n1_local_grid" with
  | None -> Heatmap.render ~title ~rows:[] ~cols:[] [||]
  | Some t ->
      let rows, cols, values =
        grid_of t ~keep:("graph", "ring") ~row:"rho" ~col:"burst"
          ~cell:"max_queue"
      in
      Heatmap.render ~log_scale:true ~annot:(annot_count values)
        ~x_label:"per-flow burst allowance" ~y_label:"aggregate rate rho"
        ~title
        ~rows:(List.map (fun r -> "rho=" ^ r) rows)
        ~cols values

let render_feedback_heatmap ctx =
  let title = "N2 - feedback routing: reroutes over (rate, hot)" in
  match find_table ctx ~experiment:"n2" ~id:"n2_feedback_grid" with
  | None -> Heatmap.render ~title ~rows:[] ~cols:[] [||]
  | Some t ->
      let rows, cols, values =
        grid_of t ~keep:("graph", "ring") ~row:"rate" ~col:"hot"
          ~cell:"reroutes"
      in
      Heatmap.render ~annot:(annot_count values)
        ~x_label:"hot threshold (queue length that triggers a reroute)"
        ~y_label:"injection rate" ~title
        ~rows:(List.map (fun r -> "r=" ^ r) rows)
        ~cols values

(* The fabric figures read the fab1/fab2 campaign tables: the incast
   dwell curves split by policy (queue *sizes* are policy-invariant
   under work conservation, so the interesting signal is who waits),
   and the shared-DT drop-rate grid over (alpha, total). *)
let render_fabric_incast ctx =
  let title = "FAB1 - fat-tree incast: oldest-packet dwell by policy" in
  match find_table ctx ~experiment:"fab1" ~id:"fab1_incast" with
  | None -> Plot.render ~title []
  | Some t ->
      Plot.render ~x_label:"receiver-downlink utilisation"
        ~y_label:"max dwell (steps in flight)" ~title
        (series_by t ~group:"policy" ~x:"util" ~y:"max_dwell")

let render_fabric_dt ctx =
  let title = "FAB2 - shared-DT drop rate over (alpha, total slots)" in
  match find_table ctx ~experiment:"fab2" ~id:"fab2_dt_grid" with
  | None -> Heatmap.render ~title ~rows:[] ~cols:[] [||]
  | Some t ->
      let rows, cols, values =
        grid_of t ~keep:("buffers", "shared-dt") ~row:"alpha" ~col:"total"
          ~cell:"drop_rate"
      in
      Heatmap.render ~annot:(annot_percent ~decimals:1 values)
        ~x_label:"shared pool size (slots)" ~y_label:"DT alpha" ~title
        ~rows:(List.map (fun a -> "alpha=" ^ a) rows)
        ~cols values

(* The loadgen figure reads the committed journal, not the campaign
   cache: `aqt_sim loadgen --snapshot-every` appends one Snapshot per
   tick, and the committed file makes the figure byte-deterministic. *)
let loadgen_journal_file =
  Filename.concat "bench_results" "loadgen_journal.jsonl"

let render_loadgen_latency _ =
  let title = "Loadgen - latency quantiles over one overload run" in
  let events = try Journal.load loadgen_journal_file with _ -> [] in
  let snaps =
    List.filter_map
      (function
        | Journal.Snapshot { label = "loadgen"; values; _ } -> Some values
        | _ -> None)
      events
  in
  let pts key =
    Boxed_array.of_list
      (List.filter_map
         (fun values ->
           match
             (List.assoc_opt "elapsed_s" values, List.assoc_opt key values)
           with
           | Some x, Some y -> Some (x, 1000. *. y)
           | _ -> None)
         snaps)
  in
  Plot.render ~x_label:"elapsed seconds" ~y_label:"latency (ms)" ~title
    [
      Plot.series "p50" (pts "loadgen_request_seconds_p50");
      Plot.series "p99" (pts "loadgen_request_seconds_p99");
      Plot.series "p999" (pts "loadgen_request_seconds_p999");
    ]

let render_spacetime _ =
  (* The `aqt_sim spacetime` scenario: small enough to read (and to
     commit as SVG), big enough to show the pump moving the queue. *)
  let eps = Ratio.make 1 5 in
  let seed = 122 in
  let params = Aqt.Params.make ~eps ~s0:(max 20 ((seed - 2) / 2)) () in
  let net, g = Aqt.Startup.seeded ~n:params.Aqt.Params.n ~m:2 seed in
  let st = Spacetime.make ~every:4 net in
  let wrap = Spacetime.driver_wrap st in
  ignore (Phased.run ~wrap net (Aqt.Startup.phase ~params ~gadget:g));
  ignore (Phased.run ~wrap net (Aqt.Pump.phase ~params ~gadget:g ~k:1));
  let every = Spacetime.every st in
  let matrix = Spacetime.matrix st in
  let labels = Spacetime.labels st in
  (* Keep the figure a sane size: stride columns down to <= 120 samples
     and keep only the busiest <= 48 edges (back in edge-id order), the
     same policy as the text renderer.  Both choices are pure functions
     of the sampled data. *)
  let n_samples = Spacetime.n_samples st in
  let stride = max 1 ((n_samples + 119) / 120) in
  let n_cols = (n_samples + stride - 1) / stride in
  let peak = Array.map (Array.fold_left Float.max 0.0) matrix in
  let order = Array.init (Array.length matrix) Fun.id in
  Array.sort
    (fun a b ->
      match compare peak.(b) peak.(a) with 0 -> compare a b | c -> c)
    order;
  let kept = Array.sub order 0 (min 48 (Array.length order)) in
  Array.sort compare kept;
  let rows =
    Array.to_list (Array.map (fun e -> labels.(e)) kept)
  in
  let values =
    Array.map
      (fun e -> Array.init n_cols (fun c -> matrix.(e).(c * stride)))
      kept
  in
  let cols =
    List.init n_cols (fun i -> string_of_int (i * stride * every))
  in
  Heatmap.render ~log_scale:true
    ~x_label:"step" ~y_label:"edge"
    ~title:"Startup + one pump on F(n)^2 - queue occupancy over time"
    ~rows ~cols values

let render_bench ctx =
  Plot.hbars ~log_x:true ~x_label:"median, in each bar's own unit"
    ~title:"End-to-end benchmark (committed bench/e2e runs)" ctx.bench

let default_figures () =
  [
    {
      id = "fig_3_1";
      title = "Figure 3.1 - the gadget";
      caption =
        "The gadget F(4)^2 as built by `Aqt.Gadget.chain ~n:4 ~m:2`: two \
         gadgets joined at the shared edges a_k, each with a slow e-path \
         and a parallel f-path from y_(k-1) to x_k.  The shared edge a_1 \
         is both the egress of the first gadget and the ingress of the \
         second, exactly as drawn in the paper.";
      experiments = [];
      render = render_fig_3_1;
    };
    {
      id = "fig_3_2";
      title = "Figure 3.2 - the cyclic chain";
      caption =
        "The cyclic chain F(4)^4 + e0 (`Aqt.Gadget.cyclic ~n:4 ~m:4`): the \
         stitch edge e0 closes the daisy chain so Lemma 3.16 can convert \
         the queue at the last egress back into seeds at the first \
         ingress.  Node names elided; the arc below is e0.";
      experiments = [];
      render = render_fig_3_2;
    };
    {
      id = "e1_growth";
      title = "E1 - seed queue growth per cycle (Theorem 3.17)";
      caption =
        "Seed queue at the start of every adversary cycle, one series per \
         epsilon, from campaign experiment `e1`.  Sustained growth at \
         every rate 1/2 + epsilon is the instability theorem made \
         visible: each cycle multiplies the seed queue by a constant \
         factor > 1.";
      experiments = [ "e1" ];
      render = render_e1_growth;
    };
    {
      id = "e2_pump";
      title = "E2 - one pump multiplies the queue (Lemma 3.6)";
      caption =
        "Measured growth factor S'/S of a single pump phase against the \
         paper's exact prediction 2(1-R_n), for increasing seed sizes S \
         (campaign experiment `e2`).  The two curves coincide: the \
         discrete simulation matches the fluid analysis point for point.";
      experiments = [ "e2" ];
      render = render_e2_pump;
    };
    {
      id = "e2_trajectory";
      title = "E2 - startup + pump trajectory";
      caption =
        "Sampled network state (every 50 steps) for the largest `e2` arm \
         (S0 = 1600): total packets in flight and the largest single \
         buffer while the startup phase establishes C(S, F(1)) and one \
         pump moves the queue into the next gadget.";
      experiments = [ "e2" ];
      render =
        (fun ctx ->
          render_trajectory ~experiment:"e2"
            ~title:"E2 startup + pump - sampled network state" ctx);
    };
    {
      id = "e7_trajectory";
      title = "E7 - a certified-stable workload (Theorem 4.3)";
      caption =
        "The FIFO run of campaign experiment `e7` (time-priority bound at \
         r = 1/d), sampled every 100 steps: the in-flight population \
         stays bounded for the whole horizon — stability, in contrast to \
         the E1/E2 instability constructions above.";
      experiments = [ "e7" ];
      render =
        (fun ctx ->
          render_trajectory ~experiment:"e7"
            ~title:"E7 time-priority workload - sampled network state" ctx);
    };
    {
      id = "fluid_pump";
      title = "Fluid pump profile (Claims 3.9-3.11)";
      caption =
        "The paper's piecewise-linear fluid trajectories for one pump \
         (r = 0.7, n = 9, 2S = 2000), evaluated by `Aqt.Fluid.queue_at`: \
         each e-path buffer fills at rate R_i + r - 1, peaks at i + t_i, \
         and drains.  Experiment `e14` checks these curves against the \
         discrete simulation.";
      experiments = [];
      render = render_fluid_pump;
    };
    {
      id = "sweep_heatmap";
      title = "Stability sweep - policy x rate";
      caption =
        "`Aqt.Sweep.classify` on the 8-ring with 4-hop routes under a \
         packed (w, r) burst adversary (w = 40, horizon 4000): darker \
         cells mean larger peak queues (log color scale); the letter is \
         the verdict (S stable / G growing / B blowup).  The ring is \
         universally stable — every verdict stays S — but peak queues \
         climb steadily as the rate approaches saturation.";
      experiments = [];
      render = render_sweep;
    };
    {
      id = "capacity_heatmap";
      title = "C1 - drop rate over (buffer size, speedup)";
      caption =
        "Campaign experiment `c1`: drop-tail FIFO on the 8-ring at \
         critical load arriving in 8-deep single-edge bursts, swept over \
         per-edge buffer capacity and integer link speedup.  Darker \
         cells shed more traffic (cell label = drop rate).  The \
         zero-drop frontier moves toward smaller buffers as the speedup \
         grows — the buffer-vs-speedup tradeoff of arXiv:1902.08069 \
         measured on this engine.";
      experiments = [ "c1" ];
      render = render_capacity_heatmap;
    };
    {
      id = "capacity_tradeoff";
      title = "C2 - drop disciplines under bursty load";
      caption =
        "Campaign experiment `c2`: drop rate against buffer budget for \
         drop-tail, drop-head and the shared Dynamic-Threshold pool, \
         under sub-critical (rho = 0.8) single-edge bursts at unit \
         speed.  The two per-edge disciplines shed identical volume \
         (service fixes what can leave; they differ in *which* packets \
         survive), while the shared pool reaches zero drops at a \
         fraction of the budget by concentrating it where the burst \
         lands — the shared-buffer advantage of arXiv:1707.03856.";
      experiments = [ "c2" ];
      render = render_capacity_tradeoff;
    };
    {
      id = "local_burst_heatmap";
      title = "N1 - locally bursty stability over (rho, sigma_e)";
      caption =
        "Campaign experiment `n1`: three overlapping 3-hop flows on the \
         6-ring under the locally bursty adversary of arXiv:2208.09522, \
         swept over aggregate rate rho and per-flow burst allowance \
         (cell label = peak single-edge queue, log color scale).  Every \
         run is admissible by construction — `Rate_check.check_local` \
         certifies each one against its per-edge (rho, sigma_e) budget \
         — and peak queues track sigma_e, not the horizon: locally \
         bursty injection moves the burst into the budget without \
         breaking stability.";
      experiments = [ "n1" ];
      render = render_local_burst_heatmap;
    };
    {
      id = "feedback_heatmap";
      title = "N2 - feedback routing aggressiveness";
      caption =
        "Campaign experiment `n2`: a feedback-driven adversary \
         (arXiv:1812.11113) that watches per-edge queue lengths and \
         truncates the route of any packet about to enter an edge with \
         more than `hot` queued packets, swept over injection rate and \
         the hot threshold on the 4-ring (cell label = number of \
         truncations performed).  At hot = 1 every packet is rerouted; \
         by hot = 4 the queues never reach the trigger and the \
         adversary goes quiet.  Peak queues stay at most 2 across the \
         whole grid — online rerouting under an admissible rate cannot \
         destabilize the ring.";
      experiments = [ "n2" ];
      render = render_feedback_heatmap;
    };
    {
      id = "fabric_incast";
      title = "FAB1 - fat-tree incast by policy and load";
      caption =
        "Campaign experiment `fab1`: 15 senders converge on one receiver \
         of a k = 4 fat-tree, flow sizes from a heavy-tailed CDF, one \
         series per queueing policy, swept over receiver-downlink \
         utilisation.  Queue *sizes* are identical across policies \
         (work conservation fixes how much waits), so the figure shows \
         the max dwell — how long the unluckiest packet waits: FIFO and \
         longest-in-system stay near the backlog drain time while LIFO \
         starves old packets for the whole run, and every policy's dwell \
         blows up once utilisation passes 1.";
      experiments = [ "fab1" ];
      render = render_fabric_incast;
    };
    {
      id = "fabric_dt";
      title = "FAB2 - shared Dynamic-Threshold buffers on a hotspot";
      caption =
        "Campaign experiment `fab2`: a spine-leaf(4, 8, 4) hotspot at \
         utilisation 1, all 128 edges sharing one Dynamic-Threshold \
         pool (admit while queue < alpha * free), swept over alpha and \
         the pool size (cell label = drop rate).  Small alpha starves \
         the hotspot queue even when slots are free; large alpha lets \
         it hog the pool.  The table adds the partitioned baseline: \
         per-edge buffers still drop packets at 1024 total slots (depth \
         8 on all 128 edges), while a shared pool of 64 drops nothing — \
         the shared-memory advantage of arXiv:1707.03856 on an \
         adversarial-queueing engine.";
      experiments = [ "fab2" ];
      render = render_fabric_dt;
    };
    {
      id = "loadgen_latency";
      title = "Loadgen - latency quantiles over a run";
      caption =
        "p50/p99/p999 request latency over the course of one loadgen \
         overload run against the serve daemon's (rho, sigma) admission \
         envelope, read from the committed \
         `bench_results/loadgen_journal.jsonl` (regenerate with `aqt_sim \
         loadgen --selftest --snapshot-every 0.25 --journal ...`).  The \
         tail settles once the token bucket's initial burst allowance is \
         spent and admission reaches steady state — bounded latency \
         under 10x overload is the serving-plane mirror of bounded \
         queues under admissible injection.";
      experiments = [];
      render = render_loadgen_latency;
    };
    {
      id = "spacetime";
      title = "Spacetime - startup + pump, queue occupancy";
      caption =
        "Every edge of a 2-gadget cyclic chain (eps = 1/5, seeded with \
         122 packets — the `aqt_sim spacetime` scenario), sampled every \
         4 steps through `Aqt_engine.Spacetime`: the seed queue drains \
         through the e-path while the pump re-concentrates it at the \
         next ingress — the paper's construction as a picture.";
      experiments = [];
      render = render_spacetime;
    };
    {
      id = "bench";
      title = "End-to-end benchmark";
      caption =
        "Median of each end-to-end metric per benchmark workload, over \
         the untraced, correct calibration runs committed under \
         `bench/e2e/runs/`; each label gives the unit and the IQR as a \
         share of the median.  The figure moves only when the benchmark \
         is recalibrated.  Log scale.";
      experiments = [];
      render = render_bench;
    };
  ]

(* ------------------------------------------------------------------ *)
(* Generation                                                          *)
(* ------------------------------------------------------------------ *)

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

let dedup names =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun n ->
      if Hashtbl.mem seen n then false
      else begin
        Hashtbl.add seen n ();
        true
      end)
    names

let index_md ~registry figures =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "# Experiment report\n\n";
  Buffer.add_string buf
    "Deterministic figures generated from the campaign cache and seeded\n\
     inline simulations.  Regenerate (byte-identical) with:\n\n\
     ```\n\
     dune exec bin/aqt_sim.exe -- report\n\
     ```\n\n\
     Do not edit this directory by hand - CI regenerates it and fails on\n\
     drift (see docs/REPORT.md).\n";
  List.iter
    (fun f ->
      Buffer.add_string buf (Printf.sprintf "\n## %s\n\n" f.title);
      Buffer.add_string buf
        (Printf.sprintf "![%s](%s.svg)\n\n" f.title f.id);
      Buffer.add_string buf f.caption;
      Buffer.add_char buf '\n';
      (match f.experiments with
      | [] ->
          Buffer.add_string buf
            "\n*Data:* inline seeded simulation (no campaign dependency).\n"
      | exps ->
          Buffer.add_string buf
            (Printf.sprintf "\n*Data:* campaign experiment%s %s.\n"
               (if List.length exps > 1 then "s" else "")
               (String.concat ", "
                  (List.map
                     (fun e ->
                       match Registry.find registry e with
                       | Some entry ->
                           Printf.sprintf "`%s` (%s)" e entry.Registry.title
                       | None -> Printf.sprintf "`%s`" e)
                     exps)))))
    figures;
  Buffer.contents buf

(* Quartiles as Python's [statistics.quantiles (n=4)] computes them (the
   exclusive method), so the bench figure agrees with bench/e2e/calibrate.py
   to the bit.  The middle one is the median. *)
let quartiles values =
  let a = Array.of_list (List.sort compare values) in
  let n = Array.length a in
  let q i =
    let m = i * (n + 1) in
    let j = max 1 (min (n - 1) (m / 4)) in
    let d = m - (4 * j) in
    if n = 1 then a.(0)
    else ((a.(j - 1) *. float_of_int (4 - d)) +. (a.(j) *. float_of_int d)) /. 4.
  in
  (q 1, q 2, q 3)

(* One bar per workload and end-to-end metric of the calibration runs in
   [dir] (JSONL files, one run per line), at its median over the untraced
   runs whose answers were correct; [] when [dir] is missing. *)
let bench_bars dir =
  let str k j = Jsonx.to_str (Jsonx.get k j) and flag k j = Jsonx.to_bool (Jsonx.get k j) in
  let samples file =
    In_channel.with_open_bin (Filename.concat dir file) In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun line -> String.trim line <> "")
    |> List.map Jsonx.of_string
    |> List.filter (fun run -> flag "correct" run && not (flag "trace" run))
    |> List.concat_map (fun run ->
           List.filter_map
             (fun (metric, m) ->
               if str "kind" m <> "end_to_end" then None
               else Some ((str "workload" run, metric, str "unit" m), Jsonx.to_float (Jsonx.get "value" m)))
             (Jsonx.to_obj (Jsonx.get "metrics" run)))
  in
  let samples =
    match Sys.readdir dir with
    | exception Sys_error _ -> []
    | files ->
        List.concat_map samples
          (List.filter (fun f -> Filename.check_suffix f ".jsonl") (Array.to_list files))
  in
  List.sort_uniq compare (List.map fst samples)
  |> List.map (fun ((workload, metric, unit_) as key) ->
         let q1, q2, q3 =
           quartiles (List.filter_map (fun (k, v) -> if k = key then Some v else None) samples)
         in
         (Printf.sprintf "%s %s (%s, IQR %.1f%%)" workload metric unit_ (100. *. (q3 -. q1) /. q2), q2))

let build_ctx ?(bench_runs = Filename.concat (Filename.concat "bench" "e2e") "runs")
    ~registry ~options figures =
  let needed = dedup (List.concat_map (fun f -> f.experiments) figures) in
  let results =
    if needed = [] then []
    else
      let summary =
        Campaign.run ~registry
          { options with Campaign.only = needed; quiet = true }
      in
      List.filter_map
        (fun (tr : Scheduler.task_result) ->
          Option.map (fun r -> (tr.Scheduler.name, r)) tr.Scheduler.result)
        summary.Campaign.results
  in
  { results; bench = bench_bars bench_runs }

let generate ?figures ?only ?bench_runs ~registry ~options ~out () =
  let figures =
    match figures with Some fs -> fs | None -> default_figures ()
  in
  let figures =
    match only with
    | None | Some [] -> figures
    | Some ids ->
        List.map
          (fun id ->
            match List.find_opt (fun f -> f.id = id) figures with
            | Some f -> f
            | None ->
                failwith
                  (Printf.sprintf "report: unknown figure %S (known: %s)" id
                     (String.concat ", " (List.map (fun f -> f.id) figures))))
          ids
  in
  let ctx = build_ctx ?bench_runs ~registry ~options figures in
  mkdir_p out;
  let paths =
    List.map
      (fun f ->
        let path = Filename.concat out (f.id ^ ".svg") in
        write_file path (f.render ctx);
        path)
      figures
  in
  let index = Filename.concat out "index.md" in
  write_file index (index_md ~registry figures);
  index :: paths
