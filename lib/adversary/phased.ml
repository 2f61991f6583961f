module Sim = Aqt_engine.Sim
module Network = Aqt_engine.Network

type phase = Network.t -> int -> Sim.driver * int

let of_driver driver duration : phase =
  if duration < 1 then invalid_arg "Phased.of_driver: duration must be >= 1";
  fun _ _ -> (driver, duration)

let idle duration = of_driver Sim.null_driver duration

type state = {
  mutable remaining : phase list;
  mutable current : Sim.driver option;
  mutable phase_end : int; (* last step of the current phase *)
  mutable phase_index : int;
}

(* [next_phases t] supplies a fresh phase list when the current one is
   exhausted; returning [] ends the adversary (no further injections). *)
let make_driver ~next_phases ~on_phase st =
  let rec ensure_phase net t =
    match st.current with
    | Some _ when t <= st.phase_end -> ()
    | _ -> (
        match st.remaining with
        | [] -> (
            match next_phases t with
            | [] -> st.current <- None
            | phases ->
                st.remaining <- phases;
                ensure_phase net t)
        | phase :: rest ->
            st.remaining <- rest;
            let driver, duration = phase net t in
            if duration < 1 then
              invalid_arg "Phased: phase returned non-positive duration";
            on_phase st.phase_index t;
            st.phase_index <- st.phase_index + 1;
            st.current <- Some driver;
            st.phase_end <- t + duration - 1)
  in
  {
    Sim.before_step =
      (fun net t ->
        ensure_phase net t;
        match st.current with
        | Some d -> d.Sim.before_step net t
        | None -> ());
    injections_at =
      (fun net t ->
        ensure_phase net t;
        match st.current with
        | Some d -> d.Sim.injections_at net t
        | None -> []);
    (* The current phase is only resolved lazily inside the two hooks
       above, so a per-phase [observe_queues] cannot be forwarded
       statically; phase drivers that need queue feedback read the
       network in [before_step] instead. *)
    observe_queues = None;
  }

let fresh_state phases =
  { remaining = phases; current = None; phase_end = min_int; phase_index = 0 }

let sequence ?(on_phase = fun _ _ -> ()) phases =
  make_driver ~next_phases:(fun _ -> []) ~on_phase (fresh_state phases)

let run ?recorder ?(wrap = Fun.id) net phase =
  let duration = ref 0 in
  let timed : phase =
   fun net t ->
    let d, dur = phase net t in
    duration := dur;
    (d, dur)
  in
  let driver = wrap (sequence [ timed ]) in
  (* The phase is built, and its duration known, only on the first step. *)
  ignore (Sim.run ?recorder ~net ~driver ~horizon:1 ());
  ignore (Sim.run ?recorder ~net ~driver ~horizon:(!duration - 1) ());
  !duration

let cycle ?(on_cycle = fun _ _ -> ()) ?(on_phase = fun _ _ -> ()) phases =
  if phases = [] then invalid_arg "Phased.cycle: empty phase list";
  let cycle_no = ref 0 in
  let next_phases t =
    on_cycle !cycle_no t;
    incr cycle_no;
    phases
  in
  (* The first cycle also goes through [next_phases], so start empty. *)
  make_driver ~next_phases ~on_phase (fresh_state [])
