type point = Cache_write | Journal_append

exception Injected of string

(* A single atomic holding the hook: scheduler domains read it concurrently
   with the (test-side) install/clear writes. *)
let hook : (point -> unit) option Atomic.t = Atomic.make None

let install f = Atomic.set hook (Some f)
let clear () = Atomic.set hook None

let hit p = match Atomic.get hook with None -> () | Some f -> f p
