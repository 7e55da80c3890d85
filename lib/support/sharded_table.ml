(** Sharded concurrent memo table.

    A [Sharded_table.t] is a string-keyed hash table striped over N
    shards, each guarded by its own mutex.  Writers touching different
    shards never contend, so a pool of domains can insert results as
    they complete instead of funnelling them through a serial
    fill loop on the calling domain — the access pattern of the
    synthesis evaluator's memo cache, which this module exists for.

    Design points:

    - {b Striping}: a key's shard is a pure function of the key
      ([Hashtbl.hash] masked to a power-of-two shard count), so every
      domain agrees where a key lives without coordination.
    - {b Counters}: each shard carries a caller-defined array of
      integer counters, bumped under the shard lock with key affinity
      (the bump lands on the key's shard) and {e merged on read}.
      Totals are sums of per-shard values, so they are independent of
      which domain performed each bump — a caller whose bumps are a
      deterministic function of its requests gets deterministic
      totals for any domain count.
    - {b Contention}: a shard lock is taken with [Mutex.try_lock]
      first; a miss is counted on an [Atomic] before falling back to a
      blocking [Mutex.lock].  [contention] therefore measures how
      often the striping actually failed to separate writers — the
      number the bench harness reports as shard contention.
    - {b Exactly-once}: [compute] is a get-or-compute that holds the
      shard lock across the computation, so racing callers of the
      same key run the function exactly once.  Use it only for
      computations cheap enough to serialize per shard; bulk callers
      should deduplicate up front, compute off-lock, and [set]. *)

type 'v shard = {
  mutex : Mutex.t;
  table : (string, 'v) Hashtbl.t;
  counters : int array;
  contended : int Atomic.t; (* lock acquisitions that found the shard busy *)
}

type 'v t = {
  mask : int; (* shard count - 1; shard count is a power of two *)
  shards : 'v shard array;
}

let rec next_pow2 n = if n <= 1 then 1 else 2 * next_pow2 ((n + 1) / 2)

(** [create ~shards ~counters ()] — [shards] is rounded up to a power
    of two (default 16); [counters] is the number of per-shard
    counter slots (default 0). *)
let create ?(shards = 16) ?(counters = 0) () =
  let n = next_pow2 (max 1 shards) in
  {
    mask = n - 1;
    shards =
      Array.init n (fun _ ->
          {
            mutex = Mutex.create ();
            table = Hashtbl.create 64;
            counters = Array.make counters 0;
            contended = Atomic.make 0;
          });
  }

let shard_count t = Array.length t.shards

let shard_of t key = t.shards.(Hashtbl.hash key land t.mask)

let lock_shard (s : 'v shard) =
  if not (Mutex.try_lock s.mutex) then begin
    Atomic.incr s.contended;
    Mutex.lock s.mutex
  end

let with_shard t key f =
  let s = shard_of t key in
  lock_shard s;
  Fun.protect ~finally:(fun () -> Mutex.unlock s.mutex) (fun () -> f s)

let find t key = with_shard t key (fun s -> Hashtbl.find_opt s.table key)

let set t key v = with_shard t key (fun s -> Hashtbl.replace s.table key v)

(** [compute t key f] — return the cached value for [key], or run [f]
    and cache its result.  The shard lock is held across [f], so
    concurrent callers of the same key compute exactly once (callers
    of other keys on the same shard wait).  Returns the value and
    whether this call computed it.  [f] must not touch [t] (the shard
    mutex is not reentrant). *)
let compute t key f =
  with_shard t key (fun s ->
      match Hashtbl.find_opt s.table key with
      | Some v -> (v, false)
      | None ->
          let v = f () in
          Hashtbl.replace s.table key v;
          (v, true))

(** [bump t key i delta] — add [delta] to counter slot [i] on [key]'s
    shard.  The key only picks the shard (spreading concurrent bumps
    like it spreads inserts); [counter] sums over all shards. *)
let bump t key i delta =
  with_shard t key (fun s -> s.counters.(i) <- s.counters.(i) + delta)

(** Merged value of counter slot [i]: the sum over all shards, each
    read under its lock. *)
let counter t i =
  Array.fold_left
    (fun acc s ->
      lock_shard s;
      let v = s.counters.(i) in
      Mutex.unlock s.mutex;
      acc + v)
    0 t.shards

(** Lock acquisitions that found their shard busy, summed over shards
    — the observable cost of striping failures. *)
let contention t = Array.fold_left (fun acc s -> acc + Atomic.get s.contended) 0 t.shards
