module Dyn = Aqt_util.Dynarray_compat
module Boxed_array = Aqt_util.Boxed_array
module Digraph = Aqt_graph.Digraph

type t = {
  net : Network.t;
  every : int;
  samples : int array Dyn.t; (* one buffer-length vector per observation *)
}

let make ?(every = 1) net =
  if every < 1 then invalid_arg "Spacetime.make";
  { net; every; samples = Dyn.create () }

let observe t =
  if Network.now t.net mod t.every = 0 then begin
    let m = Digraph.n_edges (Network.graph t.net) in
    Dyn.push t.samples (Array.init m (fun e -> Network.buffer_len t.net e))
  end

let driver_wrap t (driver : Sim.driver) : Sim.driver =
  {
    driver with
    before_step =
      (fun net step ->
        observe t;
        driver.before_step net step);
  }

let n_samples t = Dyn.length t.samples
let every t = t.every

let labels t =
  let graph = Network.graph t.net in
  Boxed_array.init (Digraph.n_edges graph) (Digraph.label graph)

let matrix t =
  let samples = Dyn.to_array t.samples in
  let n = Array.length samples in
  let m = Digraph.n_edges (Network.graph t.net) in
  Boxed_array.init m (fun e ->
      Array.init n (fun s ->
          let row = samples.(s) in
          if e < Array.length row then float_of_int row.(e) else 0.0))

let glyphs = [| '.'; ':'; '-'; '='; '+'; '*'; '#'; '@' |]

(* Cap on edge rows; the busiest edges are kept. *)
let max_rows = 64

let render t =
  let samples = Dyn.to_array t.samples in
  let n_samples = Array.length samples in
  if n_samples = 0 then "(no samples)\n"
  else begin
    let m = Array.length samples.(0) in
    let graph = Network.graph t.net in
    (* Down-sample columns. *)
    let n_cols = min 100 n_samples in
    let col_of c = samples.(c * (n_samples - 1) / max 1 (n_cols - 1)) in
    (* Busiest edges first if we must drop rows. *)
    let peak = Array.make m 0 in
    Array.iter
      (fun row -> Array.iteri (fun e v -> peak.(e) <- max peak.(e) v) row)
      samples;
    let order = Array.init m Fun.id in
    let keep =
      if m <= max_rows then order
      else begin
        Array.sort (fun a b -> compare peak.(b) peak.(a)) order;
        let kept = Array.sub order 0 max_rows in
        Array.sort compare kept;
        kept
      end
    in
    let global_peak = Array.fold_left max 1 peak in
    let glyph v =
      if v = 0 then ' '
      else begin
        let idx =
          (v * Array.length glyphs) / (global_peak + 1)
        in
        glyphs.(min idx (Array.length glyphs - 1))
      end
    in
    let label_width =
      Array.fold_left
        (fun acc e -> max acc (String.length (Digraph.label graph e)))
        0 keep
    in
    let buf = Buffer.create ((label_width + n_cols + 4) * Array.length keep) in
    Buffer.add_string buf
      (Printf.sprintf "queue occupancy over time (peak %d packets; %d samples)\n"
         global_peak n_samples);
    Array.iter
      (fun e ->
        let label = Digraph.label graph e in
        Buffer.add_string buf label;
        Buffer.add_string buf (String.make (label_width - String.length label + 1) ' ');
        Buffer.add_char buf '|';
        for c = 0 to n_cols - 1 do
          Buffer.add_char buf (glyph (col_of c).(e))
        done;
        Buffer.add_string buf "|\n")
      keep;
    Buffer.contents buf
  end

let print t = print_string (render t)
