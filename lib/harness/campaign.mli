(** Campaign orchestration: registry -> scheduler -> journal -> summary.

    A campaign is one invocation of "run these scenarios": it resolves the
    requested names against a {!Registry.t}, opens a fresh JSONL journal
    under [<dir>/journal/], serves unchanged scenarios from the cache
    under [<dir>/cache/], fans the rest across domains, and prints a
    summary table.  [status] and [clean] inspect / empty the campaign
    directory without running anything. *)

type options = {
  dir : string;  (** Campaign state directory, default ["_campaign"]. *)
  only : string list;  (** Scenario names; empty means all registered. *)
  force : bool;  (** Ignore cached results (they get overwritten). *)
  jobs : int option;
  timeout : float option;  (** Per-task seconds (cooperative). *)
  retries : int;
  salt : string;
      (** Mixed into every cache key.  The default is the build's code
          digest: one hash over every source under lib/ and the experiment
          suite, so an edit to any of them starts the cache cold. *)
  quiet : bool;  (** Suppress progress lines and the summary table. *)
}

val default_options : options
(** [dir = "_campaign"], no filter, [retries = 1], the code digest as
    salt, verbose. *)

type summary = {
  results : Scheduler.task_result list;
  journal_file : string;
  ran : int;
  cached : int;
  failed : int;  (** Failed + timed out. *)
}

val run : registry:Registry.t -> options -> summary
(** @raise Failure if a name in [only] is not registered. *)

val status : registry:Registry.t -> options -> unit
(** Print, per registered (or selected) scenario, whether a cached result
    exists for the current spec + salt, its age, and the recorded
    duration. *)

val clean : options -> int
(** Remove cached results and journals under [options.dir]; returns the
    number of files deleted. *)

val trim : options -> max_bytes:int -> int
(** Size-capped sweep of the result cache under [options.dir]: evict
    oldest entries until at most [max_bytes] remain ({!Cache.trim});
    journals are untouched.  Returns the number of files removed. *)
