(** Fixed-size domain work pool.

    A [Pool.t] owns [jobs - 1] worker domains (plus the calling
    domain, which participates in every batch) and fans [Pool.map]
    batches across them.  The pool is designed for the synthesis
    pipeline's evaluation engine, so its contract is strict:

    - {b Ordering}: [map t f arr] returns results positionally —
      result [i] is [f arr.(i)] — regardless of which domain ran
      which element or in what order they finished.
    - {b Exceptions}: if any element raises, the whole batch still
      runs to completion and the exception of the {e lowest} index is
      re-raised on the calling domain, so failure behaviour does not
      depend on scheduling.
    - {b Nesting}: a [map] issued while another [map] on the same
      pool is in flight (from a worker, or from another domain)
      raises [Busy] instead of deadlocking.
    - [jobs = 1] degrades to a plain sequential [Array.map] with no
      domains spawned, so callers can thread a pool through
      unconditionally.
    - {b Parking}: [acquire]/[release] keep at most one idle pool in a
      process-wide slot, so consecutive searches run on the same
      worker domains instead of spawning and joining a set each
      (OCaml 5.1 keeps a joined domain's heap pools mapped; DESIGN.md
      §8 "Peak memory").  [acquire] always empties the slot: it hands
      the parked pool to one caller if the size matches and shuts it
      down otherwise.  [release] parks a pool in place of whatever was
      parked, which is shut down.  A parked pool is not free: its
      worker takes part, through its backup thread, in every minor
      collection of the other domains, so work that is not a search
      calls [shutdown_parked] first (the domains backend does before
      it spawns), and an [at_exit] hook joins the pool still parked.
      [create]/[shutdown] stay for callers that own their pool.

    Determinism note: the pool itself introduces no nondeterminism —
    any observable order dependence must come from [f] sharing
    mutable state across elements, which callers must not do. *)

exception Busy of string

type batch = {
  mutable next : int;          (* next unclaimed element index *)
  total : int;
  mutable completed : int;
  run : int -> unit;           (* claim-and-run one element *)
}

type t = {
  jobs : int;
  mutex : Mutex.t;
  work_ready : Condition.t;    (* a batch was posted, or shutdown began *)
  work_done : Condition.t;     (* batch element completed *)
  mutable batch : batch option;
  mutable in_map : bool;       (* a map is in flight (nested-use detection) *)
  mutable stopping : bool;
  mutable workers : unit Domain.t array;
}

let jobs t = t.jobs

(* Claim elements of the current batch until it is exhausted.  Called
   with [t.mutex] held; returns with it held. *)
let drain_batch t (b : batch) =
  while b.next < b.total do
    let i = b.next in
    b.next <- i + 1;
    Mutex.unlock t.mutex;
    b.run i;
    Mutex.lock t.mutex;
    b.completed <- b.completed + 1;
    if b.completed = b.total then Condition.broadcast t.work_done
  done

let worker_loop t =
  Mutex.lock t.mutex;
  let rec loop () =
    if t.stopping then Mutex.unlock t.mutex
    else begin
      (match t.batch with
      | Some b when b.next < b.total -> drain_batch t b
      | _ -> Condition.wait t.work_ready t.mutex);
      loop ()
    end
  in
  loop ()

let create ~jobs =
  let jobs = max 1 jobs in
  let t =
    {
      jobs;
      mutex = Mutex.create ();
      work_ready = Condition.create ();
      work_done = Condition.create ();
      batch = None;
      in_map = false;
      stopping = false;
      workers = [||];
    }
  in
  if jobs > 1 then
    t.workers <- Array.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let shutdown t =
  Mutex.lock t.mutex;
  t.stopping <- true;
  Condition.broadcast t.work_ready;
  Mutex.unlock t.mutex;
  Array.iter Domain.join t.workers;
  t.workers <- [||]

let map (type a b) (t : t) (f : a -> b) (arr : a array) : b array =
  let n = Array.length arr in
  if t.jobs = 1 then Array.map f arr
  else begin
    let results : b option array = Array.make n None in
    let errors : (exn * Printexc.raw_backtrace) option array = Array.make n None in
    let run i =
      match f arr.(i) with
      | v -> results.(i) <- Some v
      | exception e -> errors.(i) <- Some (e, Printexc.get_raw_backtrace ())
    in
    Mutex.lock t.mutex;
    if t.stopping then begin
      Mutex.unlock t.mutex;
      invalid_arg "Pool.map: pool has been shut down"
    end;
    if t.in_map then begin
      Mutex.unlock t.mutex;
      raise (Busy "Pool.map: pool already running a batch (nested or concurrent map)")
    end;
    t.in_map <- true;
    let b = { next = 0; total = n; completed = 0; run } in
    t.batch <- Some b;
    Condition.broadcast t.work_ready;
    (* The calling domain works the batch too, then sleeps until the
       stragglers claimed by workers finish. *)
    drain_batch t b;
    while b.completed < b.total do
      Condition.wait t.work_done t.mutex
    done;
    t.batch <- None;
    t.in_map <- false;
    Mutex.unlock t.mutex;
    let first_error = Array.find_opt (fun e -> e <> None) errors in
    (match first_error with
    | Some (Some (e, bt)) -> Printexc.raise_with_backtrace e bt
    | _ -> ());
    Array.map (function Some v -> v | None -> assert false) results
  end

(* The parking slot.  Pools without workers are never parked: they
   hold no domain to keep, and parking one would displace one that does. *)
let parked : t option ref = ref None
let parked_mutex = Mutex.create ()

(* Put [v] in the slot; return what it held. *)
let swap_parked v =
  Mutex.protect parked_mutex (fun () ->
      let p = !parked in
      parked := v;
      p)

(** [shutdown_parked ()] empties the slot and shuts down the pool it
    held, if any.  Call it before work that is not a search: a parked
    worker would take part in every minor collection of that work. *)
let shutdown_parked () = Option.iter shutdown (swap_parked None)

let () = at_exit shutdown_parked

(** [acquire ~jobs] empties the slot and returns the pool it held if
    that pool's [jobs] match; otherwise it shuts the parked pool down
    and creates one, so no search runs beside an idle pool.  Hand the
    pool back with [release]. *)
let acquire ~jobs =
  let jobs = max 1 jobs in
  match swap_parked None with
  | Some p when p.jobs = jobs -> p
  | other ->
      Option.iter shutdown other;
      create ~jobs

(** [release t] parks [t] for the next [acquire] and shuts down the
    pool it displaces (releasing a pool twice keeps it parked).  [t]
    must be idle and must not be used again. *)
let release t =
  if Array.length t.workers > 0 then
    match swap_parked (Some t) with Some p when p != t -> shutdown p | _ -> ()

(** [map_list] is [map] over lists, preserving order. *)
let map_list t f xs = Array.to_list (map t f (Array.of_list xs))

(** [with_pool ~jobs f] runs [f] with a fresh pool and guarantees
    shutdown (worker domains joined) on both return and exception. *)
let with_pool ~jobs f =
  let t = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
