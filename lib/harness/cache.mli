(** Content-addressed result cache.

    Results persist as one JSON file per scenario under a cache directory
    (by default [_campaign/cache/<key>.json]).  The key is
    [Spec.hash ~salt ~name spec]: changing any experiment parameter, the
    experiment name, or the salt (the campaign's is a digest of the
    sources, [Campaign.options.salt]) changes the key, so a stale file is
    simply never looked up again — [clean] exists for hygiene, not
    correctness.  Corrupt or unreadable files count as misses.  Writes go
    through a per-writer temp file (named by PID and domain id, so
    concurrent domains {e and} concurrent processes sharing a cache dir
    never collide) and [Sys.rename], so a torn file can never be
    published; a writer that crashes mid-store removes its temp file and
    leaves the cache exactly as it was. *)

type t

val create : dir:string -> t
(** Creates [dir] (and its parent) on demand. *)

val dir : t -> string

type cached = {
  key : string;
  name : string;
  saved_at : float;  (** Unix time of the store. *)
  duration : float;  (** Wall-clock seconds of the original run. *)
  result : Registry.result;
}

val key : ?salt:string -> Registry.entry -> string

val lookup : t -> key:string -> cached option

val store :
  t -> key:string -> name:string -> spec:Spec.t -> duration:float ->
  Registry.result -> unit

val touch : t -> key:string -> unit
(** Bump the entry's file mtime to now, if it exists.  {!trim} evicts in
    mtime order, so touching on every cache {e hit} turns store-time
    eviction into least-recently-used eviction — a hot entry survives
    trims no matter how old it is.  Errors (entry vanished, permissions)
    are ignored: the touch is an optimisation, never correctness. *)

val entries : t -> cached list
(** Every parseable cache file, unordered. *)

val clean : t -> int
(** Delete all cache files; returns how many were removed. *)

val trim : t -> max_bytes:int -> int
(** Evict oldest-first (by file mtime: store time, or last hit when the
    caller {!touch}es on lookup — i.e. LRU) until the
    cache directory's total payload size is at most [max_bytes]; returns
    how many files were removed.  Eviction is always safe: a removed
    entry is simply a future miss.  This is how a long-running daemon
    keeps the content-addressed cache bounded.
    @raise Invalid_argument if [max_bytes < 0]. *)
