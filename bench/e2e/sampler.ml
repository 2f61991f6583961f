(* Host-speed sampler: runs one fixed chunk of work every INTERVAL seconds
   and prints each chunk's CPU seconds on its own line, until killed.

     sampler.exe INTERVAL

   The benchmark starts one per CPU, pinned with taskset, for the length of
   a run.  On a shared host the same code runs up to twice as slow at some
   times as at others, because other tenants share the cores' caches and
   execution units; a chunk's time tracks that slowdown, so the benchmark
   divides its times by it (see README, Noise).  The chunk is a small
   store-and-forward simulation (queues of packet records on a ring of
   links), so it meets the host the way the engines do: allocation, pointer
   chasing and branchy code.  This executable links no library of the
   repository, so no change there can move it. *)

type pkt = { born : int; hops : int }

let links = 4096
let steps = 150

let chunk () =
  let qs = Array.init links (fun _ -> Queue.create ()) in
  let x = ref 88172645463325252 and acc = ref 0 in
  for t = 1 to steps do
    for _ = 1 to 48 do
      x := !x lxor (!x lsl 13);
      x := !x lxor (!x lsr 7);
      x := !x lxor (!x lsl 17);
      Queue.push { born = t; hops = 2 + (!x land 7) } qs.((!x lsr 8) land (links - 1))
    done;
    for e = 0 to links - 1 do
      let q = qs.(e) in
      if not (Queue.is_empty q) then begin
        let p = Queue.pop q in
        if p.hops > 1 then Queue.push { p with hops = p.hops - 1 } qs.((e + 1) land (links - 1))
        else acc := !acc + (t - p.born)
      end
    done
  done;
  ignore (Sys.opaque_identity !acc)

let () =
  let interval = float_of_string Sys.argv.(1) in
  while true do
    let c0 = Sys.time () in
    chunk ();
    Printf.printf "%.9f\n%!" (Sys.time () -. c0);
    Unix.sleepf interval
  done
