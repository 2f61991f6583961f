(** Structured run journal: one JSON object per line (JSONL).

    Every campaign run appends machine-readable events — task start,
    finish (with outcome, monotonic duration, peak queue when the
    experiment reports one, and an optional sampled trajectory), retries,
    cache hits, and campaign start/end markers — to a journal file.  The
    writer is mutex-protected so scheduler domains can log concurrently;
    each event is flushed as a whole line, so a crashed campaign leaves a
    readable prefix.  [load] parses a journal back for tooling and tests. *)

type outcome =
  | Done  (** Ran and produced a result. *)
  | Cached  (** Result served from the content-addressed cache. *)
  | Failed of string  (** Raised after all retries; message attached. *)
  | Timed_out  (** Exceeded the per-task time budget. *)

val outcome_to_string : outcome -> string

type event =
  | Campaign_start of { at : float; names : string list }
  | Task_start of { name : string; at : float; attempt : int }
  | Task_retry of { name : string; attempt : int; error : string }
  | Task_finish of {
      name : string;
      at : float;
      outcome : outcome;
      duration : float;
      max_queue : float option;
      gc_minor_words : float option;
      gc_major_words : float option;
          (** Heap words the task allocated while running (minor = total
              allocation, major = direct major allocation + promotions);
              [None] for cached, failed and timed-out tasks.  Lets a campaign
              journal double as an allocation regression log for the engine
              fast path. *)
      trajectory : (string * float) list list;
    }
  | Task_timeout of {
      name : string;
      at : float;
      limit : float;  (** The configured time budget, seconds. *)
      duration : float;  (** How long the task actually ran. *)
    }
      (** Post-hoc timeout marker.  Timeouts are cooperative (a domain
          cannot be interrupted mid-OCaml code), so an overrunning task is
          detected only {e after} it returns: this event records, at
          detection time, that the task exceeded [limit] and ran for
          [duration] — reading [Task_finish]'s [at] as "when the timeout
          fired" would misreport it.  Written immediately before the
          corresponding [Task_finish] with outcome [Timed_out]. *)
  | Campaign_end of {
      at : float;
      ran : int;
      cached : int;
      failed : int;
      duration : float;
    }
  | Snapshot of { at : float; label : string; values : (string * float) list }
      (** Periodic state dump from a long-running process — the serve
          daemon journals its metrics registry this way (label
          ["serve.metrics"], one value per series) so a scrape-less
          deployment still leaves a load time-series behind. *)

val event_to_json : event -> Aqt_util.Jsonx.t
val event_of_json : Aqt_util.Jsonx.t -> event  (** @raise Failure on mismatch. *)

(** {2 Writer} *)

type writer

val create : string -> writer
(** Open [file] for append, creating parent directories as needed. *)

val write : writer -> event -> unit
(** Thread-safe; flushes the line.  Journaling is observability, not
    correctness: if an append fails (disk full, closed descriptor, an
    injected {!Fault.Journal_append} fault), the writer marks itself
    {!degraded} and every subsequent [write] becomes a no-op instead of
    failing the campaign — the journal keeps its readable prefix. *)

val degraded : writer -> bool
(** True once an append has failed; later writes were dropped. *)

val file : writer -> string
val close : writer -> unit

(** {2 Reader} *)

val load : string -> event list
(** @raise Failure on an unparseable line (blank lines are skipped). *)

val files : dir:string -> string list
(** Journal files under [dir/journal], oldest first.  File names embed a
    UTC timestamp, so lexicographic order is chronological.  [[]] when
    the directory does not exist. *)

val latest : dir:string -> string option
(** The newest journal file under [dir/journal], if any. *)

val final_trajectories : event list -> (string * (string * float) list list) list
(** The last non-empty trajectory each task reported, in order of each
    task's first appearance.  Cache hits replay the cached trajectory, so
    this is defined for cached as well as freshly-run tasks — the report
    generator uses it to plot per-experiment time series without
    re-running anything. *)
