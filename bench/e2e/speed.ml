(* The host's speed over a run, from sampler.exe (see there): one sampler
   pinned to each CPU, each timing a fixed chunk of work every 50 ms.  The
   host factor over a window of time is the mean CPU time of the chunks
   recorded in it over [nominal_chunk_s], the chunk's time on this 2-vCPU
   host when it was quiet: 1.3 means the window met a host 30% slower than
   that.  The benchmark divides each end-to-end time by the factor over the
   window it was measured in, so it reads as a time on the quiet host. *)

let nominal_chunk_s = 0.0025
let interval_s = 0.05

type t = { pids : int list; files : string list }

(* Samplers not yet stopped; killed at exit if the benchmark dies early. *)
let live = ref []

let kill_and_wait pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

let () = at_exit (fun () -> List.iter kill_and_wait !live)

(* One sampler per CPU (at most four), each pinned to its CPU with
   taskset. *)
let start ~dir =
  let exe = Filename.concat (Filename.dirname Sys.executable_name) "sampler.exe" in
  let one cpu =
    let file = Filename.concat dir (Printf.sprintf "sampler%d.txt" cpu) in
    let fd = Unix.openfile file [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644 in
    let pid =
      Unix.create_process "taskset"
        [| "taskset"; "-c"; string_of_int cpu; exe; Printf.sprintf "%g" interval_s |]
        Unix.stdin fd Unix.stderr
    in
    Unix.close fd;
    live := pid :: !live;
    (pid, file)
  in
  let started = List.init (min 4 (Domain.recommended_domain_count ())) one in
  { pids = List.map fst started; files = List.map snd started }

(* Each sampler's chunk times so far; a line still being written is left
   out. *)
let chunks t =
  List.map
    (fun f ->
      match List.rev (String.split_on_char '\n' (In_channel.with_open_bin f In_channel.input_all)) with
      | _partial :: complete -> List.rev_map float_of_string complete
      | [] -> [])
    t.files

let factor chunks =
  let n = List.length chunks in
  (List.fold_left ( +. ) 0. chunks /. float_of_int (max 1 n) /. nominal_chunk_s, n)

(* How many chunks each sampler has recorded: the start of a window. *)
let mark t = List.map List.length (chunks t)

(* The host factor over the chunks recorded since [mark], and their
   number. *)
let since t mark =
  factor (List.concat (List.map2 (fun cs k -> List.filteri (fun i _ -> i >= k) cs) (chunks t) mark))

(* Stop the samplers; returns the host factor over the whole run and the
   number of chunks it rests on. *)
let stop t =
  List.iter
    (fun pid ->
      live := List.filter (( <> ) pid) !live;
      kill_and_wait pid)
    t.pids;
  factor (List.concat (chunks t))
