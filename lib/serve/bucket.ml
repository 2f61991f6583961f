type t = {
  rho_ : float;
  sigma_ : int;
  now : unit -> float;
  lock : Mutex.t;
  mutable tokens : float;
  mutable last : float;
}

let create ?now ~rho ~sigma () =
  if not (rho > 0.) then invalid_arg "Bucket.create: rho must be > 0";
  if sigma < 1 then invalid_arg "Bucket.create: sigma must be >= 1";
  let now = match now with Some f -> f | None -> Aqt_util.Clock.monotonic in
  {
    rho_ = rho;
    sigma_ = sigma;
    now;
    lock = Mutex.create ();
    tokens = float_of_int sigma;
    last = now ();
  }

(* Caller holds the lock. *)
let refill t =
  let n = t.now () in
  let dt = n -. t.last in
  if dt > 0. then begin
    t.tokens <- Float.min (float_of_int t.sigma_) (t.tokens +. (dt *. t.rho_));
    t.last <- n
  end

let try_take t =
  Mutex.lock t.lock;
  refill t;
  let ok = t.tokens >= 1. in
  if ok then t.tokens <- t.tokens -. 1.;
  Mutex.unlock t.lock;
  ok

let refund t =
  Mutex.lock t.lock;
  refill t;
  t.tokens <- Float.min (float_of_int t.sigma_) (t.tokens +. 1.);
  Mutex.unlock t.lock

let level t =
  Mutex.lock t.lock;
  refill t;
  let v = t.tokens in
  Mutex.unlock t.lock;
  v

let rho t = t.rho_
let sigma t = t.sigma_

module Keyed = struct
  type bucket = t

  let bucket_create = create
  let bucket_try_take = try_take
  let bucket_refund = refund
  let bucket_level = level

  type slot = {
    b : bucket;
    mutable last_used : float; (* for LRU eviction of idle keys *)
  }

  type nonrec t = {
    rho : float;
    sigma : int;
    now : unit -> float;
    max_entries : int;
    lock : Mutex.t;
    tbl : (string, slot) Hashtbl.t;
  }

  let create ?now ?(max_entries = 1024) ~rho ~sigma () =
    if not (rho > 0.) then invalid_arg "Bucket.Keyed.create: rho must be > 0";
    if sigma < 1 then invalid_arg "Bucket.Keyed.create: sigma must be >= 1";
    if max_entries < 1 then
      invalid_arg "Bucket.Keyed.create: max_entries must be >= 1";
    let now = match now with Some f -> f | None -> Aqt_util.Clock.monotonic in
    {
      rho;
      sigma;
      now;
      max_entries;
      lock = Mutex.create ();
      tbl = Hashtbl.create 64;
    }

  (* Caller holds the lock.  Evict the least-recently-used key.  An
     evicted key that comes back gets a fresh (full) bucket — a burst of
     [sigma] beyond its entitlement, bounded and biased toward
     admitting, which is the right failure mode for an eviction that
     only fires on idle keys anyway. *)
  let evict_lru t =
    let victim = ref None in
    Hashtbl.iter
      (fun k s ->
        match !victim with
        | Some (_, at) when at <= s.last_used -> ()
        | _ -> victim := Some (k, s.last_used))
      t.tbl;
    match !victim with
    | Some (k, _) -> Hashtbl.remove t.tbl k
    | None -> ()

  let try_take t key =
    Mutex.lock t.lock;
    let slot =
      match Hashtbl.find_opt t.tbl key with
      | Some s -> s
      | None ->
          if Hashtbl.length t.tbl >= t.max_entries then evict_lru t;
          let s =
            {
              b = bucket_create ~now:t.now ~rho:t.rho ~sigma:t.sigma ();
              last_used = 0.;
            }
          in
          Hashtbl.add t.tbl key s;
          s
    in
    slot.last_used <- t.now ();
    Mutex.unlock t.lock;
    bucket_try_take slot.b

  let refund t key =
    Mutex.lock t.lock;
    let s = Hashtbl.find_opt t.tbl key in
    Mutex.unlock t.lock;
    match s with Some s -> bucket_refund s.b | None -> ()

  let keys t =
    Mutex.lock t.lock;
    let n = Hashtbl.length t.tbl in
    Mutex.unlock t.lock;
    n

  let level t key =
    Mutex.lock t.lock;
    let s = Hashtbl.find_opt t.tbl key in
    Mutex.unlock t.lock;
    Option.map (fun s -> bucket_level s.b) s
end
