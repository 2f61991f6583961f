external monotonic : unit -> float = "aqt_monotonic_time"

let wall = Unix.gettimeofday
