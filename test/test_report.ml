(* Report subsystem: deterministic SVG emission, degenerate plot inputs,
   graph layout, heatmaps, journal readers, and byte-identical report
   generation from a synthetic campaign. *)

module Svg = Aqt_report.Svg
module Plot = Aqt_report.Plot
module Layout = Aqt_report.Layout
module Heatmap = Aqt_report.Heatmap
module Report = Aqt_report.Report
module Registry = Aqt_harness.Registry
module Rb = Aqt_harness.Registry.Rb
module Campaign = Aqt_harness.Campaign
module Journal = Aqt_harness.Journal
module Spec = Aqt_harness.Spec
module G = Aqt.Gadget

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let temp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "aqt_report_test_%d_%d" (Unix.getpid ()) !counter)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* ------------------------------------------------------------------ *)
(* A miniature XML well-formedness checker                             *)
(* ------------------------------------------------------------------ *)

(* Enough XML to validate what Svg emits: tags balance, attributes are
   quoted, no stray '<' or '>' in character data (Svg escapes them). *)
let xml_well_formed s =
  let n = String.length s in
  let stack = ref [] in
  let fail = ref None in
  let i = ref 0 in
  (* Skip the declaration. *)
  if n > 1 && s.[0] = '<' && s.[1] = '?' then begin
    match String.index_from_opt s 0 '>' with
    | Some j -> i := j + 1
    | None -> fail := Some "unterminated declaration"
  end;
  while !fail = None && !i < n do
    match s.[!i] with
    | '<' -> (
        match String.index_from_opt s !i '>' with
        | None -> fail := Some "unterminated tag"
        | Some j ->
            let body = String.sub s (!i + 1) (j - !i - 1) in
            (if String.length body = 0 then fail := Some "empty tag"
             else if body.[0] = '/' then begin
               let name = String.sub body 1 (String.length body - 1) in
               match !stack with
               | top :: rest when top = name -> stack := rest
               | top :: _ ->
                   fail :=
                     Some (Printf.sprintf "mismatch: </%s> vs <%s>" name top)
               | [] -> fail := Some ("close without open: " ^ name)
             end
             else begin
               let self_closing = body.[String.length body - 1] = '/' in
               let name_end =
                 match String.index_opt body ' ' with
                 | Some k -> k
                 | None ->
                     String.length body - if self_closing then 1 else 0
               in
               let name = String.sub body 0 name_end in
               (* Attribute values must be double-quoted: an odd quote
                  count means a bare or broken attribute. *)
               let quotes =
                 String.fold_left
                   (fun acc c -> if c = '"' then acc + 1 else acc)
                   0 body
               in
               if quotes mod 2 <> 0 then
                 fail := Some ("odd quote count in <" ^ name ^ ">")
               else if not self_closing then stack := name :: !stack
             end);
            i := j + 1)
    | '>' ->
        fail := Some "stray '>'";
        incr i
    | _ -> incr i
  done;
  match (!fail, !stack) with
  | None, [] -> Ok ()
  | None, top :: _ -> Error ("unclosed <" ^ top ^ ">")
  | Some msg, _ -> Error msg

let check_xml name s =
  match xml_well_formed s with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: not well-formed XML: %s" name msg

(* ------------------------------------------------------------------ *)
(* Svg                                                                 *)
(* ------------------------------------------------------------------ *)

let svg_number_formatting () =
  check_string "integer" "1" (Svg.f 1.0);
  check_string "two decimals" "1.25" (Svg.f 1.25);
  check_string "rounded" "1.23" (Svg.f 1.2345);
  check_string "trailing zero trimmed" "1.5" (Svg.f 1.50);
  check_string "negative" "-2.5" (Svg.f (-2.5));
  check_string "negative zero normalized" "0" (Svg.f (-0.001));
  check_string "nan is zero" "0" (Svg.f Float.nan);
  check_string "inf is zero" "0" (Svg.f Float.infinity);
  check_string "neg inf is zero" "0" (Svg.f Float.neg_infinity)

let svg_escaping () =
  let doc =
    Svg.document ~w:10.0 ~h:10.0
      [ Svg.text_at ~x:1.0 ~y:1.0 "a<b & \"c\" 'd'" ]
  in
  check_xml "escaped text" doc;
  check_bool "no raw ampersand" true (contains ~needle:"&amp;" doc);
  check_bool "lt escaped" true (contains ~needle:"&lt;" doc)

let svg_sequential_clamps () =
  check_string "0 is the surface" (Svg.sequential 0.0) Svg.surface;
  check_string "clamped below" (Svg.sequential (-3.0)) (Svg.sequential 0.0);
  check_string "clamped above" (Svg.sequential 9.0) (Svg.sequential 1.0);
  check_string "nan maps to 0" (Svg.sequential Float.nan) (Svg.sequential 0.0);
  (* Monotone-ish smoke: distinct thirds give distinct colors. *)
  check_bool "distinct steps" true
    (Svg.sequential 0.2 <> Svg.sequential 0.6)

(* ------------------------------------------------------------------ *)
(* Plot                                                                *)
(* ------------------------------------------------------------------ *)

let plot_ticks () =
  let t = Plot.ticks ~lo:0.0 ~hi:10.0 ~max_ticks:6 in
  check_bool "covers range" true (List.hd t = 0.0 && List.exists (( = ) 10.0) t);
  check_bool "at most 7 ticks" true (List.length t <= 7);
  check_int "empty interval" 1 (List.length (Plot.ticks ~lo:5.0 ~hi:5.0 ~max_ticks:6));
  check_int "nan interval" 1
    (List.length (Plot.ticks ~lo:Float.nan ~hi:1.0 ~max_ticks:6))

let plot_degenerate_inputs () =
  let r = Plot.render ~title:"empty" [] in
  check_xml "empty series list" r;
  check_bool "notes no data" true (contains ~needle:"no data" r);
  let r = Plot.render ~title:"no points" [ Plot.series "s" [||] ] in
  check_xml "series without points" r;
  check_bool "notes no data" true (contains ~needle:"no data" r);
  let nan_only =
    Plot.render ~title:"nan"
      [ Plot.series "s" [| (Float.nan, 1.0); (1.0, Float.nan) |] ]
  in
  check_xml "nan-only series" nan_only;
  check_bool "nan series renders as no data" true
    (contains ~needle:"no data" nan_only);
  let single =
    Plot.render ~title:"single" [ Plot.series "s" [| (2.0, 3.0) |] ]
  in
  check_xml "single point" single;
  check_bool "single point draws a marker" true
    (contains ~needle:"<circle" single);
  let constant =
    Plot.render ~title:"const"
      [ Plot.series "s" [| (0.0, 5.0); (1.0, 5.0); (2.0, 5.0) |] ]
  in
  check_xml "constant series" constant;
  check_bool "constant series draws a line" true
    (contains ~needle:"<polyline" constant)

let plot_legend_rule () =
  let one =
    Plot.render ~title:"one" [ Plot.series "only" [| (0.0, 1.0); (1.0, 2.0) |] ]
  in
  check_bool "single series has no legend entry" false
    (contains ~needle:">only</text>" one);
  let two =
    Plot.render ~title:"two"
      [
        Plot.series "alpha" [| (0.0, 1.0); (1.0, 2.0) |];
        Plot.series "beta" [| (0.0, 2.0); (1.0, 1.0) |];
      ]
  in
  check_xml "two series" two;
  check_bool "legend names first series" true (contains ~needle:"alpha" two);
  check_bool "legend names second series" true (contains ~needle:"beta" two)

let plot_hbars () =
  let r =
    Plot.hbars ~log_x:true ~x_label:"ns" ~title:"bench"
      [ ("fast", 12.0); ("slow", 140000.0); ("zero", 0.0) ]
  in
  check_xml "hbars" r;
  check_bool "labels present" true (contains ~needle:"slow" r);
  check_xml "empty hbars" (Plot.hbars ~title:"none" [])

(* ------------------------------------------------------------------ *)
(* Layout                                                              *)
(* ------------------------------------------------------------------ *)

let layout_chain_and_cycle () =
  let chain = G.chain ~n:3 ~m:2 () in
  let r = Layout.render ~title:"chain" chain.G.graph in
  check_xml "chain layout" r;
  check_bool "names the source node" true (contains ~needle:"x0" r);
  check_bool "labels an e-path edge" true (contains ~needle:"e1_1" r);
  check_bool "no feedback arc in a DAG" false (contains ~needle:"<path" r);
  let cyc = G.cyclic ~n:3 ~m:2 () in
  let r = Layout.render ~title:"cycle" cyc.G.graph in
  check_xml "cyclic layout" r;
  check_bool "stitch edge labelled" true (contains ~needle:"e0" r);
  check_bool "stitch drawn as an arc" true (contains ~needle:"<path" r)

(* ------------------------------------------------------------------ *)
(* Heatmap                                                             *)
(* ------------------------------------------------------------------ *)

let count ~needle hay =
  let nl = String.length needle in
  let rec go i acc =
    if i + nl > String.length hay then acc
    else if String.sub hay i nl = needle then go (i + 1) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

let heatmap_render () =
  let m = [| [| 0.0; 1.0 |]; [| 2.0; 4.0 |] |] in
  let r =
    Heatmap.render ~title:"hm" ~rows:[ "a"; "b" ] ~cols:[ "t0"; "t1" ] m
  in
  check_xml "heatmap" r;
  check_bool "row label present" true (contains ~needle:">a</text>" r);
  (* The zero cell is skipped: surface rect + 20 colorbar steps + 3 value
     cells. *)
  check_int "cells besides chrome" 24 (count ~needle:"<rect" r);
  let annot =
    [| [| Some "S"; None |]; [| None; Some "G" |] |]
  in
  let r =
    Heatmap.render ~annot ~log_scale:true ~title:"hm" ~rows:[ "a"; "b" ]
      ~cols:[ "t0"; "t1" ] m
  in
  check_xml "annotated log heatmap" r;
  check_bool "annotation on a zero cell still emitted" true
    (contains ~needle:">S</text>" r);
  check_bool "second annotation" true (contains ~needle:">G</text>" r);
  check_xml "empty heatmap"
    (Heatmap.render ~title:"empty" ~rows:[] ~cols:[] [||])

(* ------------------------------------------------------------------ *)
(* Journal readers                                                     *)
(* ------------------------------------------------------------------ *)

(* The writer makes [<dir>/journal] on demand, and each file loads back
   its own events. *)
let journal_readers () =
  let dir = temp_dir () in
  let jd = Filename.concat dir "journal" in
  check_bool "no journal dir" false (Sys.file_exists jd);
  let write name events =
    let w = Journal.create (Filename.concat jd name) in
    List.iter (Journal.write w) events;
    Journal.close w
  in
  let finish ?(trajectory = []) name =
    Journal.Task_finish
      {
        name;
        at = 0.0;
        outcome = Journal.Done;
        duration = 0.1;
        max_queue = None;
        gc_minor_words = None;
        gc_major_words = None;
        trajectory;
      }
  in
  write "run-b.jsonl" [ finish "x" ~trajectory:[ [ ("t", 1.0) ] ] ];
  write "run-a.jsonl" [ finish "x" ];
  check_bool "two journals" true
    (List.sort compare (Array.to_list (Sys.readdir jd))
    = [ "run-a.jsonl"; "run-b.jsonl" ]);
  let trajectory name =
    match Journal.load (Filename.concat jd name) with
    | [ Journal.Task_finish { trajectory; _ } ] -> Some trajectory
    | _ -> None
  in
  check_bool "run-b carries its trajectory" true
    (trajectory "run-b.jsonl" = Some [ [ ("t", 1.0) ] ]);
  check_bool "run-a carries none" true (trajectory "run-a.jsonl" = Some [])

(* ------------------------------------------------------------------ *)
(* Report helpers                                                      *)
(* ------------------------------------------------------------------ *)

let table_parsing () =
  let t =
    {
      Registry.id = "t";
      headers = [ "eps"; "growth"; "ok"; "n" ];
      rows =
        [
          [ "1/5"; "1.85x"; "true"; "42" ];
          [ "1/10"; "1.5x"; "false"; "x" ];
        ];
    }
  in
  let eps = Report.column t "eps" in
  check_bool "ratio parsed" true (Float.abs (eps.(0) -. 0.2) < 1e-9);
  let g = Report.column t "growth" in
  check_bool "growth factor parsed" true (Float.abs (g.(0) -. 1.85) < 1e-9);
  let ok = Report.column t "ok" in
  check_bool "bools parsed" true (ok.(0) = 1.0 && ok.(1) = 0.0);
  let n = Report.column t "n" in
  check_bool "junk is nan" true (Float.is_nan n.(1));
  check_bool "unknown header raises" true
    (match Report.column t "nope" with
    | exception Not_found -> true
    | _ -> false);
  let pts =
    Report.trajectory_points
      [ [ ("t", 0.0); ("v", 1.0) ]; [ ("v", 2.0) ]; [ ("t", 2.0); ("v", 3.0) ] ]
      ~x:"t" ~y:"v"
  in
  check_bool "rows missing keys skipped" true (pts = [| (0.0, 1.0); (2.0, 3.0) |])

let default_figure_set () =
  let figs = Report.default_figures () in
  check_bool "at least 6 figures" true (List.length figs >= 6);
  let ids = List.map (fun (f : Report.figure) -> f.id) figs in
  let unique = List.sort_uniq compare ids in
  check_int "ids unique" (List.length ids) (List.length unique);
  check_bool "figure 3.1 present" true (List.mem "fig_3_1" ids);
  check_bool "figure 3.2 present" true (List.mem "fig_3_2" ids)

(* ------------------------------------------------------------------ *)
(* End-to-end: byte-identical generation from a synthetic campaign     *)
(* ------------------------------------------------------------------ *)

let synthetic_registry () =
  let registry = Registry.create () in
  Registry.register registry
    {
      Registry.name = "syn";
      title = "synthetic";
      spec = [ ("k", Spec.Int 3) ];
      run =
        (fun () ->
          let rb = Rb.create () in
          Rb.table rb ~id:"syn_table" ~headers:[ "x"; "y" ]
            [ [ "0"; "1" ]; [ "1"; "3" ]; [ "2"; "9" ] ];
          Rb.trajectory rb
            [ [ ("t", 0.0); ("q", 1.0) ]; [ ("t", 10.0); ("q", 4.0) ] ];
          Rb.result rb);
    };
  registry

let synthetic_figures () =
  [
    {
      Report.id = "syn_plot";
      title = "Synthetic table";
      caption = "y against x from the synthetic experiment.";
      experiments = [ "syn" ];
      render =
        (fun ctx ->
          match Report.find_table ctx ~experiment:"syn" ~id:"syn_table" with
          | None -> Plot.render ~title:"missing" []
          | Some t ->
              let x = Report.column t "x" and y = Report.column t "y" in
              Plot.render ~title:"Synthetic table"
                [ Plot.series "y" (Array.map2 (fun a b -> (a, b)) x y) ]);
    };
    {
      Report.id = "syn_traj";
      title = "Synthetic trajectory";
      caption = "the sampled trajectory.";
      experiments = [ "syn" ];
      render =
        (fun ctx ->
          let rows =
            match List.assoc_opt "syn" ctx.Report.results with
            | Some r -> r.Registry.trajectory
            | None -> []
          in
          Plot.render ~title:"Synthetic trajectory"
            [
              Plot.series ~step:true "q"
                (Report.trajectory_points rows ~x:"t" ~y:"q");
            ]);
    };
  ]

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let generate_is_deterministic () =
  let campaign_dir = temp_dir () in
  let options =
    { Campaign.default_options with dir = campaign_dir; quiet = true }
  in
  let registry = synthetic_registry () in
  let out1 = temp_dir () and out2 = temp_dir () in
  let gen out =
    Report.generate ~figures:(synthetic_figures ())
      ~bench_runs:(Filename.concat campaign_dir "missing") ~registry
      ~options ~out ()
  in
  (* First run executes the experiment; the second is served from the
     campaign cache — the bytes must not change either way. *)
  let paths1 = gen out1 in
  let paths2 = gen out2 in
  check_int "same file count" (List.length paths1) (List.length paths2);
  check_int "index + one svg per figure" 3 (List.length paths1);
  List.iter2
    (fun p1 p2 ->
      check_string
        (Printf.sprintf "%s identical" (Filename.basename p1))
        (read_file p1) (read_file p2))
    paths1 paths2;
  List.iter
    (fun p ->
      if Filename.check_suffix p ".svg" then check_xml (Filename.basename p) (read_file p))
    paths1;
  let index = read_file (List.hd paths1) in
  check_bool "index embeds the plot figure" true
    (contains ~needle:"![Synthetic table](syn_plot.svg)" index);
  check_bool "index names the experiment" true
    (contains ~needle:"`syn`" index);
  check_bool "trajectory figure has points" true
    (contains ~needle:"<polyline" (read_file (List.nth paths1 2)))

(* The bench figure's bars come from committed benchmark runs: one per
   workload and end-to-end metric, at the median of the untraced, correct
   runs, labelled with calibrate.py's (exclusive-method) quartiles. *)
let bench_figure_from_runs () =
  let dir = temp_dir () in
  Sys.mkdir dir 0o755;
  let run ?(trace = false) ?(correct = true) v =
    Printf.sprintf
      "{\"workload\": \"syn\", \"trace\": %b, \"correct\": %b, \"metrics\": \
       {\"cpu_ms_per_op\": {\"value\": %g, \"unit\": \"ms\", \"n\": 1, \"kind\": \"end_to_end\"}, \
       \"engine.step_ms\": {\"value\": 7, \"unit\": \"ms\", \"n\": 1, \"kind\": \"per_layer\"}}}"
      trace correct v
  in
  Out_channel.with_open_bin (Filename.concat dir "set1.jsonl") (fun oc ->
      List.iter
        (fun line -> output_string oc (line ^ "\n"))
        [ run 3.; run 1.; run ~trace:true 100.; run 4.; run ~correct:false 1000.; run 2. ]);
  Out_channel.with_open_bin (Filename.concat dir "notes.txt") (fun oc ->
      output_string oc "not a run\n");
  let ctx dir =
    Report.build_ctx ~bench_runs:dir ~registry:(synthetic_registry ())
      ~options:{ Campaign.default_options with dir = temp_dir (); quiet = true }
      []
  in
  (match (ctx dir).Report.bench with
  | [ (label, median) ] ->
      check_string "label: unit and IQR of quartiles 1.25 and 3.75"
        "syn cpu_ms_per_op (ms, IQR 100.0%)" label;
      Alcotest.(check (float 0.)) "bar at the median" 2.5 median
  | bars -> Alcotest.failf "expected one bar, got %d" (List.length bars));
  let missing = ctx (Filename.concat dir "missing") in
  check_int "missing directory: no bars" 0 (List.length missing.Report.bench);
  let bench =
    List.find (fun (f : Report.figure) -> f.id = "bench") (Report.default_figures ())
  in
  let frame = bench.render missing in
  check_xml "missing directory: empty frame" frame;
  check_bool "missing directory: no bar labels" false (contains ~needle:"IQR" frame)

let unknown_figure_rejected () =
  let options =
    { Campaign.default_options with dir = temp_dir (); quiet = true }
  in
  check_bool "unknown figure id raises" true
    (match
       Report.generate ~figures:(synthetic_figures ()) ~only:[ "nope" ]
         ~registry:(synthetic_registry ()) ~options ~out:(temp_dir ()) ()
     with
    | exception Failure _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "aqt_report"
    [
      ( "svg",
        [
          Alcotest.test_case "number formatting" `Quick svg_number_formatting;
          Alcotest.test_case "escaping" `Quick svg_escaping;
          Alcotest.test_case "sequential ramp" `Quick svg_sequential_clamps;
        ] );
      ( "plot",
        [
          Alcotest.test_case "ticks" `Quick plot_ticks;
          Alcotest.test_case "degenerate inputs" `Quick plot_degenerate_inputs;
          Alcotest.test_case "legend rule" `Quick plot_legend_rule;
          Alcotest.test_case "hbars" `Quick plot_hbars;
        ] );
      ( "layout",
        [ Alcotest.test_case "chain and cycle" `Quick layout_chain_and_cycle ] );
      ( "heatmap", [ Alcotest.test_case "render" `Quick heatmap_render ] );
      ( "journal",
        [ Alcotest.test_case "files, latest, trajectories" `Quick journal_readers ] );
      ( "report",
        [
          Alcotest.test_case "table parsing" `Quick table_parsing;
          Alcotest.test_case "default figures" `Quick default_figure_set;
          Alcotest.test_case "byte-identical generation" `Quick
            generate_is_deterministic;
          Alcotest.test_case "bench figure from benchmark runs" `Quick
            bench_figure_from_runs;
          Alcotest.test_case "unknown figure" `Quick unknown_figure_rejected;
        ] );
    ]
