(** Embarrassingly parallel map over OCaml 5 domains.

    A campaign's experiments are independent single-threaded simulations,
    so the harness scheduler fans them out across domains.  Tasks must not
    share mutable state; every simulator object in this repository is
    created inside the task closure, so runs are isolated by
    construction.  The one way for tasks to share a value is {!once}, and
    that value is read-only once it is built. *)

val map :
  ?workers:int ->
  ?on_done:(int -> unit) ->
  ('a -> 'b) ->
  'a list ->
  'b list
(** [map ~workers f xs] applies [f] to every element, preserving order.
    [workers] defaults to [Domain.recommended_domain_count - 1], at least 1;
    with one worker it degrades to [List.map].  Exceptions raised by [f] are
    re-raised in the caller (the first one encountered in input order), with
    the backtrace captured at the failure site inside the worker domain —
    not the useless one of the re-raise.

    [on_done] is called with the total number of completed tasks (1-based,
    each value exactly once) after each task finishes; long grids use it to
    report progress.  It may be invoked concurrently from worker domains,
    so it must be safe to call from any domain. *)

val once : (unit -> 'a) -> unit -> 'a
(** [once f] is a cell that may be read from any domain.  The first call
    runs [f]; calls that arrive while it runs block, without spinning,
    until it returns; every later call returns the stored value.  If [f]
    raises, its caller gets the exception, nothing is stored, and the next
    call runs [f] again (a scheduler retry, say).  A plain [lazy] cannot
    do this: forcing one from two domains at once raises
    [CamlinternalLazy.Undefined].  [f] must not read its own cell. *)
