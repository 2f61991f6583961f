(** Fault-injection policies and the harness degradation self-test.

    {!Aqt_harness.Fault} is the mechanism (a single hook the harness calls
    at its failure-prone boundaries); this module is the policy layer:
    fail-once, fail-N-times, fail-always and delay policies composed into
    a hook, installed for the duration of a callback.  Counters are
    atomic, so policies behave deterministically even when scheduler
    domains race through fault points.

    {!selftest} is the executable claim that the campaign harness degrades
    gracefully: it builds throwaway campaign directories and drives
    {!Aqt_harness.Scheduler.run} through crash-mid-cache-write,
    journal-append-failure, hung-task-timeout and crashing-task scenarios,
    asserting after each that retries happened as configured, outcomes are
    reported honestly, the journal keeps a readable prefix, and the
    content-addressed cache is never corrupted (no stray temp files, no
    partially-written entries, failed and timed-out results never
    published).  test/test_check.ml runs it as [harness degrades
    gracefully]. *)

type action =
  | Fail  (** Raise {!Aqt_harness.Fault.Injected} at the point. *)
  | Delay of float  (** Sleep that many seconds at the point. *)

type spec = {
  point : Aqt_harness.Fault.point;
  action : action;
  times : int option;  (** Trigger only on the first [n] hits; [None] = always. *)
}

val fail_once : Aqt_harness.Fault.point -> spec
val fail_n : Aqt_harness.Fault.point -> int -> spec
val fail_always : Aqt_harness.Fault.point -> spec
val delay : Aqt_harness.Fault.point -> float -> spec

val with_faults : spec list -> (unit -> 'a) -> 'a
(** Install the specs as the global fault hook, run the callback, always
    clear the hook (even on exceptions).  Not reentrant — the harness has
    one hook slot. *)

type outcome = { case : string; passed : bool; detail : string }

val selftest : unit -> outcome list
(** Runs every degradation scenario in fresh temp directories (removed
    afterwards).  All [passed] flags true means the harness honoured its
    fault contract. *)
