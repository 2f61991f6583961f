(* Only bench/e2e/spans.ml still names Aqt_serve.Clock; drop this alias
   when a benchmark change points it at Aqt_util.Clock. *)
include Aqt_util.Clock
