(** Fault-injection points for the campaign harness.

    The harness calls {!hit} at the two I/O boundaries that only a hook
    can fail at a chosen moment: between a cache store's temp write and
    its rename, and at a journal append in the middle of a run.  By
    default a hit is free (one atomic load); a test installs a hook with
    {!install} to make a point raise {!Injected}.  A crashing or hanging
    task needs no hook: an entry whose [run] raises or sleeps reaches the
    same retry and timeout paths.  test/test_harness.ml drives both
    points through the scheduler.

    Hooks run on whichever domain reaches the fault point, so an installed
    hook must be domain-safe (use [Atomic] counters for fail-N-times
    policies).  Production code never installs a hook; the cost of a
    disabled point is a single atomic read. *)

type point =
  | Cache_write
      (** Inside [Cache.store], after the payload is written to the temp
          file but before the atomic rename publishes it.  Raising here
          simulates a writer crashing mid-store: the entry must never
          become visible and the temp file must not corrupt the cache. *)
  | Journal_append
      (** Inside [Journal.write], before the line is emitted.  Raising
          simulates a full disk / closed descriptor; the writer degrades
          to a no-op rather than failing the campaign (see
          {!Journal.degraded}). *)

exception Injected of string
(** The canonical exception raised by fault hooks.  Harness code that
    degrades gracefully on real I/O errors ([Sys_error]) treats [Injected]
    the same way, so tests exercise exactly the production error paths. *)

val install : (point -> unit) -> unit
(** [install hook] makes every subsequent {!hit} call [hook].  The hook may
    raise to fail the point.  Replaces any previous hook. *)

val clear : unit -> unit
(** Remove the hook; all points become free again. *)

val hit : point -> unit
(** Called by the harness at each fault point.  No-op unless a hook is
    installed. *)
