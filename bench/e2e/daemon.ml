(* The serve daemon under test, in a child process (this executable run
   with --daemon) so its domains, heap and peak RSS are its own and the
   parent may have run domains of its own already.  The child reports its
   port on stdout, then points stdout at stderr: the benchmark's stdout
   carries only its own report. *)

module Server = Aqt_serve.Server

type t = { pid : int; port : int }

(* ρ is a hundred times the closed loop's throughput, so a faster engine
   shows as throughput and not as 429s. *)
let config ~dir =
  {
    Server.default_config with
    port = 0;
    workers = 2;
    rho = 4000.;
    sigma = 256;
    sweep_rho = 4.;
    sweep_sigma = 4;
    campaign_dir = dir;
    quiet = true;
  }

(* The child's side: serve until SIGTERM, then drain and exit. *)
let serve ~dir =
  let srv = Server.start (config ~dir) in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> Server.request_stop srv));
  Printf.printf "%d\n%!" (Server.port srv);
  Unix.dup2 Unix.stderr Unix.stdout;
  Server.wait srv

(* Children not yet stopped; killed at exit if the benchmark dies early. *)
let live = ref []

let kill_and_wait pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

let () = at_exit (fun () -> List.iter kill_and_wait !live)

let start ~dir =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "--daemon"; dir |]
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let port =
    match Unix.select [ r ] [] [] 30. with
    | [], _, _ -> None
    | _ -> ( try int_of_string_opt (input_line ic) with End_of_file -> None)
  in
  close_in ic;
  match port with
  | Some port ->
      live := pid :: !live;
      { pid; port }
  | None ->
      kill_and_wait pid;
      failwith "daemon did not start"

(* Peak resident set (VmHWM) of a live process, in MiB. *)
let peak_rss_mb pid =
  let file = if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid in
  let ic = open_in file in
  let rec go () =
    match input_line ic with
    | l when String.starts_with ~prefix:"VmHWM:" l ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> go ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

(* CPU seconds (user + system, every thread) a live process has used so
   far, from /proc/PID/stat in clock ticks of 1/100 s.  The kernel counts
   CPU time from the scheduler's task clock, which leaves out the time a
   shared host gives this machine's CPUs to other tenants (steal). *)
let cpu_s pid =
  let line = In_channel.with_open_bin (Printf.sprintf "/proc/%d/stat" pid) In_channel.input_all in
  (* Fields after the parenthesised command name start at field 3. *)
  let i = String.rindex line ')' + 2 in
  let f = Array.of_list (String.split_on_char ' ' (String.sub line i (String.length line - i))) in
  (float_of_string f.(14 - 3) +. float_of_string f.(15 - 3)) /. 100.

(* CPU seconds of every child process reaped so far (getrusage, in
   microseconds). *)
let children_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_cutime +. t.Unix.tms_cstime

(* Steal and total clock ticks of this machine's CPUs so far (/proc/stat):
   how much of its CPUs a shared host gave to other tenants. *)
let host_ticks () =
  let line = In_channel.with_open_bin "/proc/stat" In_channel.input_line |> Option.get in
  (* user nice system idle iowait irq softirq steal; guest time is already
     counted in user. *)
  let f = List.filteri (fun i _ -> i < 8) (List.filter_map int_of_string_opt (String.split_on_char ' ' line)) in
  (List.nth f 7, List.fold_left ( + ) 0 f)

(* Graceful stop (SIGTERM drains the daemon); SIGKILL after 15 s.  Returns
   the child's exit code (-1 if it had to be killed). *)
let stop t =
  live := List.filter (( <> ) t.pid) !live;
  Unix.kill t.pid Sys.sigterm;
  let deadline = Spans.now () +. 15. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] t.pid with
    | 0, _ when Spans.now () < deadline ->
        Unix.sleepf 0.01;
        wait ()
    | 0, _ ->
        kill_and_wait t.pid;
        -1
    | _, Unix.WEXITED c -> c
    | _, _ -> -1
  in
  wait ()
