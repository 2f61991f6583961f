(** Fan experiments across domains with caching, retry, and degradation.

    Cache hits are resolved inline (no domain, no simulation); the
    remaining tasks run via [Aqt_util.Parallel.map].  A task that raises
    is retried up to [retries] extra times and then reported as [Failed]
    — one crashing experiment never aborts the campaign.  The retry scope
    covers the cache publication too: a [Cache.store] that fails mid-write
    (disk full, crash) re-runs the task instead of killing the campaign,
    and the cache's temp-file protocol guarantees nothing torn was
    published.  Timeouts are elapsed time on
    {!Aqt_util.Clock.monotonic}, so a wall-clock step cannot stretch or
    shorten them, and they are *cooperative*: a domain cannot be killed
    mid-OCaml code, so a task that overruns its budget is allowed to
    finish but is reported as [Timed_out] and its result is not cached
    (a later run, e.g. with a larger budget, will re-execute it).

    Known limitation: because the overrun check runs only {e after} the
    task returns, a genuinely hung experiment (infinite loop, deadlock)
    is never interrupted — the campaign waits for it.  When an overrun
    {e is} detected, the journal records a distinct post-hoc
    [Journal.Task_timeout] event with the configured budget and the real
    duration, so tooling can tell "ran 30s against a 10s budget" from
    "was stopped at 10s" (the latter never happens).  The fault-injection
    suite ([Aqt_check.Faults]) covers both the within-budget and the
    overrun path. *)

type task_result = {
  name : string;
  outcome : Journal.outcome;
  duration : float;  (** Seconds; for cache hits, the original run's. *)
  attempts : int;  (** 0 for cache hits. *)
  result : Registry.result option;  (** [None] iff failed or timed out. *)
}

val run :
  ?jobs:int ->
  ?timeout:float ->
  ?retries:int ->
  ?salt:string ->
  ?force:bool ->
  ?fail:string list ->
  ?on_done:(int -> unit) ->
  cache:Cache.t ->
  journal:Journal.writer ->
  Registry.entry list ->
  task_result list
(** Results are returned in the order of the input entries.

    [jobs] is the number of worker domains (default [Parallel.map]'s);
    [timeout] the per-task budget in monotonic seconds (default none);
    [retries] the extra attempts after a raise (default 1); [salt] the
    cache salt (see {!Spec.hash}); [force] skips cache lookups (results
    are still stored); [fail] names scenarios forced to raise, which
    exercises the degradation path end-to-end (used by
    [campaign run --fail] and the test suite); [on_done] is a progress
    callback invoked with the completed count (1-based) after each
    non-cached task, possibly from a worker domain. *)
