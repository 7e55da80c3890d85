(** True many-core execution: the Bamboo runtime on OCaml 5 domains.

    This backend executes a program under a layout the way the paper's
    TILEPro64 runtime does (§4.7) — but for real, in parallel, instead
    of under the deterministic cycle-level simulation of
    {!Bamboo_runtime.Runtime}:

    - every mapped core runs a per-core scheduler with its own
      parameter-set deques, ready queue and interpreter context;
      schedulers are multiplexed over [N] OCaml domains (core [i] is
      owned by domain [i mod N]), so all per-core state is accessed by
      exactly one domain and needs no locks;
    - objects are forwarded core-to-core over lock-free MPSC mailboxes
      ({!Bamboo_support.Mailbox}) as immutable {e snapshot entries}
      (object, generation, flag word, tag bindings) taken while the
      sender still held the object's lock;
    - before executing an invocation a core try-locks every parameter
      with a real [Atomic] compare-and-set, acquiring keys in a global
      order (group keys before object keys, each sorted by id) and
      releasing everything on the first failure — the paper's
      transactional task semantics, no aborts, no hold-and-wait;
    - termination is detected by a global outstanding-work counter:
      every mailbox message and every assembled invocation is counted
      {e before} the work that triggers it is released, and domains
      quiesce exactly when the counter reaches zero;
    - each domain carries its own PRNG stream split from the root
      seed, used to jitter the idle backoff (breaking retry symmetry
      between domains contending for the same locks).

    Object ids and tag ids are partitioned per core
    ([id_base = cid], [id_stride = ncores]) so allocation never
    contends.  Cost accounting is per-core ([Interp.ctx.cycles] plus
    the executed/retry/message counters) and merged at quiescence.

    The sequential runtime stays the equivalence oracle: for every
    program, [run] and [Runtime.run] must agree on the canonical
    output digest ({!Canon.digest}). *)

module Ir = Bamboo_ir.Ir
module Interp = Bamboo_interp.Interp
module Value = Bamboo_interp.Value
module Machine = Bamboo_machine.Machine
module Layout = Bamboo_machine.Layout
module Runtime = Bamboo_runtime.Runtime
module Mailbox = Bamboo_support.Mailbox
module Clock = Bamboo_support.Clock
module Deque = Bamboo_support.Deque
module Chase_lev = Bamboo_support.Chase_lev
module Prng = Bamboo_support.Prng
module Astg = Bamboo_analysis.Astg
module Effects = Bamboo_analysis.Effects
open Value

exception Exec_stuck of string

(** Domains are capped here; the CLI documents and enforces the same
    bound on [--domains]. *)
let max_domains = 64

(* ------------------------------------------------------------------ *)
(* Snapshot entries *)

(** A parameter-set entry carrying the snapshot of the object's
    dispatch-relevant state, taken while the dispatching core held the
    object's lock.  Receivers evaluate guards against the snapshot
    only; the single source of truth for staleness is the generation
    counter.  The runtime's invariant makes this sound: [o_flags] and
    [o_tags] change only under the object's lock and every such change
    bumps [o_gen] before the lock is released, so
    [gen unchanged ⟺ snapshot still exact]. *)
type entry = {
  x_obj : obj;
  x_gen : int;
  x_flags : int;
  x_tags : tag_inst list;
  x_req : int;
  (* the serve-mode request this object belongs to, or [-1] in batch
     runs.  Objects never migrate between requests: every allocation
     made while executing request [r] is dispatched with [x_req = r],
     so the tag travels with the object's whole downstream cone. *)
}

let dummy_obj : obj =
  {
    o_id = -1;
    o_class = -1;
    o_site = -1;
    o_fields = [||];
    o_flags = 0;
    o_tags = [];
    o_lock = Atomic.make (-1);
    o_lock_until = 0;
    o_gen = Atomic.make min_int;
  }

let dummy_entry = { x_obj = dummy_obj; x_gen = max_int; x_flags = 0; x_tags = []; x_req = -1 }

let entry_fresh (e : entry) = Atomic.get e.x_obj.o_gen = e.x_gen

(** Snapshot [o]'s dispatch-relevant state.  Only sound while the
    caller holds [o]'s lock (or before any domain has been spawned).
    [req] tags the snapshot with the serve-mode request id ([-1] =
    batch work). *)
let snapshot ?(req = -1) (o : obj) =
  { x_obj = o; x_gen = Atomic.get o.o_gen; x_flags = o.o_flags; x_tags = o.o_tags; x_req = req }

(** Guard evaluation against the snapshot. *)
let satisfies (p : Ir.paraminfo) (e : entry) =
  Ir.eval_flagexp p.p_guard e.x_flags
  && List.for_all (fun (tty, _) -> List.exists (fun t -> t.tg_ty = tty) e.x_tags) p.p_tags

type invocation = {
  iv_task : Ir.taskinfo;
  iv_params : entry array;
  iv_tags : (Ir.slot * tag_inst) list;
  iv_home : int;
  (* the core that assembled this invocation — where dropped-parameter
     entries must be re-delivered when a thief executes it elsewhere *)
  iv_req : int;
  (* request id inherited from the parameter entries ([-1] in batch
     runs); {!try_assemble} never mixes entries of different requests,
     so all parameters agree on it *)
}

(* ------------------------------------------------------------------ *)
(* Scheduling policy *)

(** How ready invocations are placed:

    - [Static]: the PR 4 behaviour — every invocation runs on the core
      whose routing assembled it;
    - [Steal]: assembled invocations of {e steal-safe} tasks (the
      BAM011 contract, {!Effects.steal_contract}) go to a per-core
      Chase–Lev deque instead of the private ready queue, and an idle
      domain — before backing off on its mailboxes — steals one from a
      victim core and executes it locally.  Stealing whole invocations
      (never raw parameter-set entries) preserves the tag-hash
      "co-tagged objects meet at one core" property; the ordered
      [Atomic] try-lock protocol preserves mutual exclusion on any
      core, which is exactly what the steal-safety gate certifies. *)
type schedule = Static | Steal

(* ------------------------------------------------------------------ *)
(* Per-core scheduler state *)

type consumers = (Ir.taskinfo * int * Ir.paraminfo) list

type xcore = {
  cid : int;
  mailbox : entry Mailbox.t;            (* written by any domain *)
  ready : invocation Queue.t;           (* owner domain only *)
  psets : entry Deque.t array array;    (* owner domain only *)
  ictx : Interp.ctx;                    (* owner domain only *)
  mutable san : Sanitize.session option;(* lockset sanitizer, when enabled *)
  invoke :
    Ir.taskinfo ->
    obj array ->
    tag_binds:(Ir.slot * tag_inst) list ->
    Interp.invocation_result;
  (* [ictx]'s engine (closure engine or tree-walking oracle),
     resolved once per core at construction *)
  rr : int array array;                 (* round-robin routing counters *)
  stealq : invocation Chase_lev.t;      (* steal-safe work; stolen by any domain *)
  stolen : invocation Queue.t;          (* stolen work awaiting a lock retry; owner only *)
  mutable executed : int;
  mutable trim_seen : int;              (* last trim watermark this core purged to *)
  mutable retries : int;                (* failed lock-acquisition rounds *)
  mutable sent : int;                   (* cross-core messages pushed *)
  mutable stolen_run : int;             (* invocations executed here, assembled elsewhere *)
  mutable idle_polls : int;             (* scheduler steps that made no progress *)
  mutable steal_attempts : int;         (* victim probes *)
  mutable steal_hits : int;             (* successful steals *)
  mutable steal_aborts : int;           (* steals lost to a CAS race *)
}

(** Per-request completion tracking for the serve runtime.  Every unit
    of outstanding work (mailbox message or queued invocation) tagged
    with request [r] is mirrored in [tk_pending.(r)]; the counter
    follows the same discipline as the global quiescence counter —
    successors are incremented before the work that produced them is
    decremented — so it reaches zero exactly once, when the request's
    entire downstream cone has resolved.  [tk_done] fires at that
    transition, on whichever domain consumed the last piece of work
    ([core] = that scheduler core's id, or the injector's). *)
type tracker = {
  tk_pending : int Atomic.t array;      (* request id -> in-flight work *)
  tk_done : req:int -> core:int -> unit;
}

type state = {
  prog : Ir.program;
  layout : Layout.t;
  cores : xcore array;
  consumer_table : consumers array;     (* class id -> all consumers *)
  hosted : consumers array array;       (* cid -> class id -> consumers on cid *)
  lock_groups : int array;
  use_group : bool array;
  group_locks : int Atomic.t array;     (* group root class -> owner core or -1 *)
  outstanding : int Atomic.t;           (* in-flight messages + queued invocations *)
  total_invocations : int Atomic.t;     (* budget check only; results use per-core sums *)
  max_invocations : int;
  crashed : exn option Atomic.t;        (* first failure; all domains drain out *)
  draining : bool Atomic.t;
  (* batch runs drain from the start (quiescence = termination); a
     serve session keeps domains parked through transient quiescence
     until the generator closes the stream *)
  trim_before : int Atomic.t;
  (* serve-mode watermark: every request id below it is complete or
     shed, so parked parameter-set entries tagged with one are dead
     and may be purged (stays 0 in batch runs) *)
  tracker : tracker option;             (* serve-mode completion hook *)
  schedule : schedule;
  steal_safe : bool array;              (* task id -> BAM011 steal-safe (all-false when Static) *)
  victims : int array;                  (* active cores — the steal candidates *)
}

let make_xcore (prog : Ir.program) ncores cid =
  let ictx = Interp.create ~id_base:cid ~id_stride:ncores prog in
  (* sentinel for the Chase–Lev slots; never executed *)
  let dummy_invocation =
    { iv_task = prog.tasks.(0); iv_params = [||]; iv_tags = []; iv_home = -1; iv_req = -1 }
  in
  {
    cid;
    mailbox = Mailbox.create ();
    ready = Queue.create ();
    psets =
      Array.map
        (fun (t : Ir.taskinfo) ->
          Array.init (Array.length t.t_params) (fun _ -> Deque.create ~dummy:dummy_entry))
        prog.tasks;
    ictx;
    san = None;
    invoke = Interp.executor ictx;
    rr =Array.map (fun (t : Ir.taskinfo) -> Array.make (Array.length t.t_params) 0) prog.tasks;
    stealq = Chase_lev.create ~dummy:dummy_invocation ();
    stolen = Queue.create ();
    executed = 0;
    trim_seen = 0;
    retries = 0;
    sent = 0;
    stolen_run = 0;
    idle_polls = 0;
    steal_attempts = 0;
    steal_hits = 0;
    steal_aborts = 0;
  }

let build_consumer_table (prog : Ir.program) : consumers array =
  let table = Array.make (Array.length prog.classes) [] in
  Array.iter
    (fun (t : Ir.taskinfo) ->
      Array.iteri
        (fun pidx (p : Ir.paraminfo) -> table.(p.p_class) <- (t, pidx, p) :: table.(p.p_class))
        t.t_params)
    prog.tasks;
  Array.map List.rev table

(* ------------------------------------------------------------------ *)
(* Outstanding-work accounting.  All counter traffic goes through
   these two helpers so the per-request tracker mirrors the global
   quiescence counter exactly: one [count_up] per unit of work
   created, one [count_down] per unit consumed, successors counted
   before their producer is released. *)

let count_up st req =
  (match st.tracker with
  | Some tk when req >= 0 -> Atomic.incr tk.tk_pending.(req)
  | _ -> ());
  Atomic.incr st.outstanding

(** [core] is the scheduler core on which the unit of work was
    consumed — it picks the (domain-exclusive) histogram a completed
    request's latency is recorded into. *)
let count_down st ~core req =
  (match st.tracker with
  | Some tk when req >= 0 ->
      if Atomic.fetch_and_add tk.tk_pending.(req) (-1) = 1 then tk.tk_done ~req ~core
  | _ -> ());
  Atomic.decr st.outstanding

(* ------------------------------------------------------------------ *)
(* Routing: identical placement policy to the sequential runtime,
   except the round-robin counters live on the dispatching core so
   routing never shares state across domains. *)

let route st (core : xcore) (task : Ir.taskinfo) pidx (e : entry) =
  let nparams = Array.length task.t_params in
  let key =
    if nparams <= 1 then 0
    else
      (* Multi-instance multi-parameter task: hash the bound tag
         instance so all co-tagged objects meet at the same core. *)
      match task.t_params.(pidx).p_tags with
      | (tty, _) :: _ -> (
          match List.find_opt (fun t -> t.tg_ty = tty) e.x_tags with
          | Some tag -> tag.tg_id
          | None -> Layout.no_key)
      | [] -> 0
  in
  let c =
    Layout.route_core
      ~cores:(Layout.cores_of st.layout task.t_id)
      ~nparams ~key ~rr:core.rr ~tid:task.t_id pidx
  in
  if c < 0 then None else Some c

(** Send [e] to every core hosting a consumer it satisfies — one
    mailbox message per destination core (the receiver fans it out to
    all of its matching parameter sets).  The outstanding-work counter
    is incremented {e before} each push so the counter can never read
    zero while a message is in flight. *)
let dispatch st (core : xcore) (e : entry) =
  let dsts = ref [] in
  List.iter
    (fun ((task : Ir.taskinfo), pidx, p) ->
      if satisfies p e then
        match route st core task pidx e with
        | Some dst when not (List.mem dst !dsts) -> dsts := dst :: !dsts
        | _ -> ())
    st.consumer_table.(e.x_obj.o_class);
  List.iter
    (fun dst ->
      count_up st e.x_req;
      if dst <> core.cid then core.sent <- core.sent + 1;
      Mailbox.push st.cores.(dst).mailbox e)
    !dsts

(* ------------------------------------------------------------------ *)
(* Invocation assembly: the same backtracking search over the
   parameter-set deques as the sequential runtime, with one
   difference — staleness is the generation check alone (the snapshot
   invariant above makes the guard re-check redundant). *)

let try_assemble (core : xcore) (task : Ir.taskinfo) =
  let sets = core.psets.(task.t_id) in
  let nparams = Array.length task.t_params in
  if nparams = 0 then None
  else begin
    Array.iter Deque.maybe_compact sets;
    let chosen = Array.make nparams (-1) in
    let chosen_e = Array.make nparams dummy_entry in
    let bindings : (Ir.slot, tag_inst) Hashtbl.t = Hashtbl.create 4 in
    let rec search pidx =
      if pidx = nparams then true
      else begin
        let p = task.t_params.(pidx) in
        let set = sets.(pidx) in
        let len = Deque.length set in
        let rec scan i =
          if i >= len then false
          else if not (Deque.is_live set i) then scan (i + 1)
          else begin
            let e = Deque.get set i in
            if not (entry_fresh e) then begin
              Deque.delete set i;
              scan (i + 1)
            end
            else if pidx > 0 && e.x_req <> chosen_e.(0).x_req then
              (* Never assemble parameters from different serve-mode
                 requests: each request must complete (and be digest-
                 checked) as the closed system the sequential oracle
                 executes.  Batch entries all carry [-1], so this
                 constraint is vacuous outside serve. *)
              scan (i + 1)
            else begin
              let distinct = ref true in
              for j = 0 to pidx - 1 do
                if chosen_e.(j).x_obj == e.x_obj then distinct := false
              done;
              if not !distinct then scan (i + 1)
              else begin
                (* unify tag constraints against the snapshot *)
                let saved = Hashtbl.copy bindings in
                let ok =
                  List.for_all
                    (fun (tty, slot) ->
                      match Hashtbl.find_opt bindings slot with
                      | Some tag -> List.memq tag e.x_tags
                      | None -> (
                          match List.find_opt (fun t -> t.tg_ty = tty) e.x_tags with
                          | Some tag ->
                              Hashtbl.replace bindings slot tag;
                              true
                          | None -> false))
                    p.p_tags
                in
                if ok then begin
                  chosen.(pidx) <- i;
                  chosen_e.(pidx) <- e;
                  if search (pidx + 1) then true
                  else begin
                    chosen.(pidx) <- -1;
                    chosen_e.(pidx) <- dummy_entry;
                    Hashtbl.reset bindings;
                    Hashtbl.iter (Hashtbl.replace bindings) saved;
                    scan (i + 1)
                  end
                end
                else begin
                  Hashtbl.reset bindings;
                  Hashtbl.iter (Hashtbl.replace bindings) saved;
                  scan (i + 1)
                end
              end
            end
          end
        in
        scan 0
      end
    in
    if search 0 then begin
      Array.iteri (fun pidx slot -> Deque.delete sets.(pidx) slot) chosen;
      let tags = Hashtbl.fold (fun slot tag acc -> (slot, tag) :: acc) bindings [] in
      Some
        {
          iv_task = task;
          iv_params = chosen_e;
          iv_tags = List.sort compare tags;
          iv_home = core.cid;
          iv_req = chosen_e.(0).x_req;
        }
    end
    else None
  end

(** Queue a freshly assembled invocation, counted.  Under [Steal],
    steal-safe work goes to the core's public Chase–Lev deque where
    idle domains can take it; everything else stays on the private
    ready queue and can only ever run here. *)
let enqueue_invocation st (core : xcore) (inv : invocation) =
  count_up st inv.iv_req;
  if st.schedule == Steal && st.steal_safe.(inv.iv_task.Ir.t_id) then
    Chase_lev.push core.stealq inv
  else Queue.add inv core.ready

(** Insert an arriving entry into this core's parameter sets (one copy
    per matching hosted consumer) and enqueue every invocation it
    completes.  Runs on the core's owner domain only. *)
let deliver st (core : xcore) (e : entry) =
  List.iter
    (fun ((task : Ir.taskinfo), pidx, p) ->
      if entry_fresh e && satisfies p e then begin
        let set = core.psets.(task.t_id).(pidx) in
        let dup = Deque.exists (fun e' -> e'.x_obj == e.x_obj && e'.x_gen = e.x_gen) set in
        if not dup then begin
          Deque.push set e;
          let rec assemble () =
            match try_assemble core task with
            | Some inv ->
                enqueue_invocation st core inv;
                assemble ()
            | None -> ()
          in
          assemble ()
        end
      end)
    st.hosted.(core.cid).(e.x_obj.o_class)

(* ------------------------------------------------------------------ *)
(* Locking: ordered Atomic-CAS try-lock over group and object keys.
   Try-lock with release-all-on-failure has no hold-and-wait, so the
   protocol is deadlock-free by construction; the global acquisition
   order (groups before objects, each by id) additionally makes two
   cores contending for the same key set collide on the *first*
   common key, keeping failed rounds cheap. *)

type lock_key = KGroup of int | KObj of obj

let key_cmp a b =
  match (a, b) with
  | KGroup x, KGroup y -> compare x y
  | KObj x, KObj y -> compare x.o_id y.o_id
  | KGroup _, KObj _ -> -1
  | KObj _, KGroup _ -> 1

let cell_of st = function KGroup g -> st.group_locks.(g) | KObj o -> o.o_lock

let lock_keys st (inv : invocation) =
  Array.to_list inv.iv_params
  |> List.map (fun e ->
         if st.use_group.(e.x_obj.o_class) then KGroup st.lock_groups.(e.x_obj.o_class)
         else KObj e.x_obj)
  |> List.sort_uniq key_cmp

(** Acquire every cell or none: on the first CAS failure, release all
    cells acquired so far and report failure.  Takes the already
    key-ordered cell list so the lock-protocol model tests can drive
    it directly. *)
let try_lock_all cid cells =
  let rec go acquired = function
    | [] -> Some acquired
    | cell :: rest ->
        if Atomic.compare_and_set cell (-1) cid then go (cell :: acquired) rest
        else begin
          List.iter (fun c -> Atomic.set c (-1)) acquired;
          None
        end
  in
  go [] cells

let release_all cells = List.iter (fun c -> Atomic.set c (-1)) cells

(* ------------------------------------------------------------------ *)
(* Invocation execution *)

(** Outcome of one attempt at an invocation.  [`Ran] and [`Dropped]
    consume the invocation (the caller decrements the outstanding
    counter); [`Retry] means the locks could not be taken — the caller
    must requeue it wherever it came from (ready queue, stolen queue
    or the core's own Chase–Lev deque), still counted. *)
let sanitize_key = function
  | KGroup g -> Sanitize.Kgroup g
  | KObj o -> Sanitize.Kobject o.o_id

let run_invocation st (core : xcore) (inv : invocation) =
  let keys = lock_keys st inv in
  match try_lock_all core.cid (List.map (cell_of st) keys) with
  | None ->
      core.retries <- core.retries + 1;
      `Retry
  | Some cells ->
      if not (Array.for_all entry_fresh inv.iv_params) then begin
        (* A parameter was consumed by another invocation after this
           one was assembled: drop it, re-delivering the entries that
           are still fresh (their snapshots are still exact).  A
           stolen invocation re-delivers by mailing the entries back
           to its home core — this thief need not host the consumers,
           and home is where routing placed them (counted before the
           push, like any message). *)
        release_all cells;
        Array.iter
          (fun e ->
            if entry_fresh e then
              if inv.iv_home = core.cid then deliver st core e
              else begin
                count_up st e.x_req;
                core.sent <- core.sent + 1;
                Mailbox.push st.cores.(inv.iv_home).mailbox e
              end)
          inv.iv_params;
        `Dropped
      end
      else begin
        let n = Atomic.fetch_and_add st.total_invocations 1 in
        if n >= st.max_invocations then begin
          release_all cells;
          raise (Exec_stuck "invocation budget exceeded (livelock?)")
        end;
        (* Execute the body and apply the exit actions while every
           parameter is locked; generation bumps and snapshots happen
           before release so receivers only ever see exact snapshots. *)
        let params = Array.map (fun e -> e.x_obj) inv.iv_params in
        (match core.san with
        | Some ses ->
            Sanitize.enter ses ~task:inv.iv_task.Ir.t_id ~keys:(List.map sanitize_key keys)
        | None -> ());
        let r = core.invoke inv.iv_task params ~tag_binds:inv.iv_tags in
        ignore (Interp.apply_exit inv.iv_task r.tr_exit params r.tr_frame);
        (match core.san with
        | Some ses ->
            Sanitize.check_exit ses inv.iv_task r.tr_exit params;
            Sanitize.leave ses
        | None -> ());
        Array.iter (fun o -> Atomic.incr o.o_gen) params;
        let snaps = Array.map (snapshot ~req:inv.iv_req) params in
        let created = List.map (snapshot ~req:inv.iv_req) r.tr_created in
        release_all cells;
        core.executed <- core.executed + 1;
        if inv.iv_home <> core.cid then core.stolen_run <- core.stolen_run + 1;
        (* Publication after release is safe: mailbox pushes are
           sequentially consistent, and any receiver must win the
           object's lock CAS before touching non-snapshot state, which
           orders it after our release. *)
        Array.iter (dispatch st core) snaps;
        List.iter (dispatch st core) created;
        `Ran
      end

(** Sweep [q] once: run every queued invocation whose locks can be
    taken; lock-contended ones go back to the tail, still counted. *)
let sweep_queue st (core : xcore) (q : invocation Queue.t) progressed =
  let n = Queue.length q in
  for _ = 1 to n do
    match Queue.take_opt q with
    | None -> ()
    | Some inv -> (
        match run_invocation st core inv with
        | `Ran | `Dropped ->
            count_down st ~core:core.cid inv.iv_req;
            progressed := true
        | `Retry -> Queue.add inv q)
  done

(** Purge dead parameter-set entries: every request below the trim
    watermark is complete or shed, so its parked entries can never
    assemble again (request isolation) — drop them so a long-running
    serve session's parameter sets do not accumulate one residue per
    request forever.  Owner domain only, like any pset access. *)
let purge_completed (core : xcore) before =
  Array.iter
    (fun sets ->
      Array.iter
        (fun set ->
          let len = Deque.length set in
          for i = 0 to len - 1 do
            if Deque.is_live set i then begin
              let e = Deque.get set i in
              if e.x_req >= 0 && e.x_req < before then Deque.delete set i
            end
          done;
          Deque.maybe_compact set)
        sets)
    core.psets

(** One scheduler step for [core]: drain the mailbox, then sweep the
    work queues once, executing everything whose locks can be taken.
    Under [Steal] that includes the core's own Chase–Lev deque
    (owner-side pops, racing thieves only for the last element) and
    the queue of stolen-then-contended invocations.  Returns [true] if
    any message was consumed or invocation resolved.  The counter
    discipline — increment successors before decrementing the work
    that produced them — is what makes the quiescence check sound. *)
let step st (core : xcore) =
  let progressed = ref false in
  let trim = Atomic.get st.trim_before in
  if trim > core.trim_seen then begin
    core.trim_seen <- trim;
    purge_completed core trim
  end;
  List.iter
    (fun e ->
      deliver st core e;
      count_down st ~core:core.cid e.x_req;
      progressed := true)
    (Mailbox.drain core.mailbox);
  sweep_queue st core core.ready progressed;
  if st.schedule == Steal then begin
    sweep_queue st core core.stolen progressed;
    (* Bounded pop sweep of the own deque: contended invocations are
       re-pushed at the end (visible to thieves again), and pops are
       bounded by the pre-sweep size so a persistently contended
       invocation cannot spin this loop forever. *)
    let n = Chase_lev.size core.stealq in
    let contended = ref [] in
    (try
       for _ = 1 to n do
         match Chase_lev.pop core.stealq with
         | None -> raise Exit (* thieves got there first *)
         | Some inv -> (
             match run_invocation st core inv with
             | `Ran | `Dropped ->
                 count_down st ~core:core.cid inv.iv_req;
                 progressed := true
             | `Retry -> contended := inv :: !contended)
       done
     with Exit -> ());
    List.iter (Chase_lev.push core.stealq) !contended
  end;
  !progressed

(** Steal one invocation for [core] from some other active core's
    deque, probing victims in descending observed-load order, and run
    it here.  Load is a racy snapshot of each victim's deque size —
    advisory only (a stale read costs at most a wasted probe), but it
    points thieves at the cores that actually have stealable work
    instead of spraying probes uniformly.  Victims of equal observed
    load keep a per-attempt random rotation so idle thieves do not
    herd onto one victim.  Returns [true] when an invocation was
    stolen (even if its locks were busy — it then waits on
    [core.stolen], counted, and retries in [step]).  The stolen
    invocation's accounting is exactly as at home: decrement
    [outstanding] only after it ran or dropped, successors counted
    first. *)
let try_steal st (core : xcore) (rng : Prng.t) =
  let nv = Array.length st.victims in
  if nv <= 1 then false
  else begin
    let loads = Array.map (fun vid -> Chase_lev.size st.cores.(vid).stealq) st.victims in
    (* Rotate first so the stable sort breaks load ties in a random
       order, then probe best-loaded victims first. *)
    let start = Prng.int rng nv in
    let order = Array.init nv (fun i -> (start + i) mod nv) in
    Array.stable_sort (fun a b -> compare loads.(b) loads.(a)) order;
    let rec probe i =
      if i >= nv then None
      else
        let vi = order.(i) in
        let vid = st.victims.(vi) in
        (* Zero observed load: nothing visibly stealable there or at
           any later (lighter) victim; give up rather than burn probes.
           A push racing past the snapshot is caught on the next
           attempt. *)
        if vid = core.cid then probe (i + 1)
        else if loads.(vi) = 0 then None
        else begin
          core.steal_attempts <- core.steal_attempts + 1;
          match Chase_lev.steal st.cores.(vid).stealq with
          | Chase_lev.Stolen inv -> Some inv
          | Chase_lev.Empty -> probe (i + 1)
          | Chase_lev.Retry ->
              core.steal_aborts <- core.steal_aborts + 1;
              probe (i + 1)
        end
    in
    match probe 0 with
    | None -> false
    | Some inv ->
        core.steal_hits <- core.steal_hits + 1;
        (match run_invocation st core inv with
        | `Ran | `Dropped -> count_down st ~core:core.cid inv.iv_req
        | `Retry -> Queue.add inv core.stolen);
        true
  end

(* ------------------------------------------------------------------ *)
(* Domain loop, backoff, quiescence *)

let record_crash st e =
  ignore (Atomic.compare_and_set st.crashed None (Some e))

(** Main loop of one domain, driving the cores it owns.  When no core
    makes progress the domain backs off exponentially with jitter from
    its own PRNG stream: short [cpu_relax] bursts first, then brief
    sleeps so an idle domain does not starve the ones still working.
    Under [Steal] an idle domain first tries to steal work for one of
    its cores (rotating which, so every hosted interpreter context
    gets used) before burning a backoff round.  [chaos > 0] injects
    random per-step delays (with that probability) to shake out
    schedule-dependent bugs in the stress tests. *)
let domain_loop st (mycores : xcore array) (rng : Prng.t) ~chaos =
  let backoff = ref 0 in
  let next_thief = ref 0 in
  (* Epoch draining, not one-shot quiescence: a serve session's
     outstanding counter hits zero between requests, so domains park
     in the backoff (instead of exiting) until the stream is closed —
     only [draining && outstanding = 0] terminates.  Batch runs set
     [draining] before the first spawn, restoring the old condition. *)
  while
    (Atomic.get st.outstanding > 0 || not (Atomic.get st.draining))
    && Atomic.get st.crashed = None
  do
    let progressed = ref false in
    Array.iter
      (fun core ->
        if chaos > 0.0 && Prng.float rng 1.0 < chaos then
          for _ = 1 to 1 + Prng.int rng 64 do
            Domain.cpu_relax ()
          done;
        try
          if step st core then progressed := true
          else core.idle_polls <- core.idle_polls + 1
        with e -> record_crash st e)
      mycores;
    if (not !progressed) && st.schedule == Steal && Array.length mycores > 0 then begin
      let thief = mycores.(!next_thief mod Array.length mycores) in
      incr next_thief;
      try if try_steal st thief rng then progressed := true
      with e -> record_crash st e
    end;
    if !progressed then backoff := 0
    else begin
      if !backoff < 8 then
        for _ = 1 to 1 + Prng.int rng (1 lsl !backoff) do
          Domain.cpu_relax ()
        done
      else Unix.sleepf (0.0001 *. float_of_int (1 + Prng.int rng 8));
      incr backoff
    end
  done

(* ------------------------------------------------------------------ *)
(* Results *)

(** Per-core utilization: how much work ran on the core, how much of
    its scheduler's time was wasted polling, and its thief-side steal
    ledger.  [cs_busy_cycles] are cost-model cycles charged to this
    core's interpreter context (schedule-dependent under stealing —
    work executes where it runs, the totals still sum identically). *)
type core_stats = {
  cs_core : int;
  cs_invocations : int;
  cs_stolen : int;                  (* invocations run here, assembled elsewhere *)
  cs_busy_cycles : int;
  cs_idle_polls : int;              (* scheduler steps that made no progress *)
  cs_steal_attempts : int;          (* victim probes *)
  cs_steals : int;                  (* successful steals *)
  cs_steal_aborts : int;            (* steals lost to a CAS race *)
}

type result = {
  x_wall_seconds : float;
  x_cycles : int;                   (* cost-model cycles, summed over cores *)
  x_invocations : int;
  x_lock_retries : int;             (* failed lock-acquisition rounds *)
  x_messages : int;                 (* cross-core mailbox messages *)
  x_domains : int;                  (* domains actually used *)
  x_output : string;                (* per-core outputs, core order *)
  x_objects : obj list;
  x_digest : string;                (* {!Canon.digest}: output + abstract heap state *)
  x_per_core_invocations : int array;
  x_violations : string list;       (* sanitizer reports; [] when not sanitizing *)
  x_core_stats : core_stats array;  (* per-core utilization, core order *)
  x_idle_polls : int;               (* summed over cores *)
  x_steal_attempts : int;
  x_steals : int;
  x_steal_aborts : int;
  x_stolen_invocations : int;       (* invocations executed off their home core *)
}

(* ------------------------------------------------------------------ *)
(* Top-level run *)

(** Build the shared scheduler state: validated layout, per-core
    schedulers, consumer tables, counters.  [serving] switches the
    session shape — an extra (never-scheduled) injector core's worth
    of id-space ([stride = ncores + 1]) and epoch draining instead of
    quiescence-at-start.  Returns the state and the active core ids
    (the cores hosting at least one consumer). *)
let build_state ~max_invocations ?lock_groups ~schedule ?steal_safe ?tracker ~serving
    (prog : Ir.program) (layout : Layout.t) =
  (match Layout.validate prog layout with
  | [] -> ()
  | problems -> invalid_arg ("Exec.run: invalid layout: " ^ String.concat "; " problems));
  let lock_groups =
    match lock_groups with Some g -> g | None -> Runtime.default_lock_groups prog
  in
  let steal_safe =
    match (schedule, steal_safe) with
    | Static, _ -> Array.make (Array.length prog.Ir.tasks) false
    | Steal, Some s -> s
    | Steal, None ->
        let eff = Effects.analyse prog (Astg.of_program prog) in
        (Effects.steal_contract eff ~lock_groups prog).Effects.st_safe
  in
  let ncores = layout.Layout.machine.Machine.cores in
  (* Compile the program for the selected engine here, on the main
     domain, before any worker exists: the per-program code caches in
     Compile/Closure are mutex-guarded (so a first-compile race would
     be safe), but compiling up front keeps every worker's first
     invocation off the lock and out of the timed parallel section. *)
  Interp.precompile prog;
  let stride = if serving then ncores + 1 else ncores in
  let cores = Array.init ncores (make_xcore prog stride) in
  let consumer_table = build_consumer_table prog in
  let hosted =
    Array.init ncores (fun cid ->
        Array.map
          (List.filter (fun ((t : Ir.taskinfo), _, _) ->
               Array.exists (fun c -> c = cid) (Layout.cores_of layout t.t_id)))
          consumer_table)
  in
  (* Only cores hosting at least one consumer can ever receive work;
     they are also the steal victims (all other deques stay empty). *)
  let active =
    Array.of_list
      (List.filter
         (fun cid -> Array.exists (fun cls -> cls <> []) hosted.(cid))
         (List.init ncores Fun.id))
  in
  let st =
    {
      prog;
      layout;
      cores;
      consumer_table;
      hosted;
      lock_groups;
      use_group = Array.init (Array.length prog.Ir.classes) (Ir.uses_group_lock lock_groups);
      group_locks = Array.init (Array.length prog.Ir.classes) (fun _ -> Atomic.make (-1));
      outstanding = Atomic.make 0;
      total_invocations = Atomic.make 0;
      max_invocations;
      crashed = Atomic.make None;
      draining = Atomic.make (not serving);
      trim_before = Atomic.make 0;
      tracker;
      schedule;
      steal_safe;
      victims = active;
    }
  in
  (st, active)

let collect_core_stats (cores : xcore array) =
  Array.map
    (fun c ->
      {
        cs_core = c.cid;
        cs_invocations = c.executed;
        cs_stolen = c.stolen_run;
        cs_busy_cycles = c.ictx.Interp.cycles;
        cs_idle_polls = c.idle_polls;
        cs_steal_attempts = c.steal_attempts;
        cs_steals = c.steal_hits;
        cs_steal_aborts = c.steal_aborts;
      })
    cores

(** The cores domain [d] of [ndomains] owns: every active core
    congruent to [d]. *)
let cores_of_domain st (active : int array) ndomains d =
  Array.of_list
    (List.filter_map
       (fun i -> if i mod ndomains = d then Some st.cores.(active.(i)) else None)
       (List.init (Array.length active) Fun.id))

(** Execute [prog] under [layout] on [domains] OCaml domains.  The
    domain count is clamped to [1 .. min max_domains (active cores)];
    the CLI validates user input before it gets here.  [seed] feeds
    the per-domain jitter streams only — it cannot affect the digest,
    just the schedule.  [chaos] (default 0) is the probability of an
    injected random delay before each core step, used by the
    randomized-schedule stress tests.  [sanitize] installs the dynamic
    lockset sanitizer ({!Sanitize}) with the given static effect
    results; its reports land in [x_violations].

    [schedule] selects the placement discipline ([Static] default;
    [Steal] lets idle domains steal steal-safe invocations, see
    {!schedule}).  [steal_safe] optionally supplies the BAM011
    contract ({!Effects.steal_contract}[.st_safe]) — when absent under
    [Steal] it is computed here from a fresh effects analysis. *)
let run ?(args = []) ?(max_invocations = 2_000_000) ?lock_groups ?(domains = 4) ?(seed = 0)
    ?(chaos = 0.0) ?sanitize ?(schedule = Static) ?steal_safe (prog : Ir.program)
    (layout : Layout.t) : result =
  let st, active =
    build_state ~max_invocations ?lock_groups ~schedule ?steal_safe ~serving:false prog
      layout
  in
  let cores = st.cores in
  let sanitizer =
    match sanitize with
    | None -> None
    | Some eff ->
        let sn = Sanitize.create prog eff in
        Array.iter
          (fun core ->
            let ses = Sanitize.session sn in
            core.san <- Some ses;
            core.ictx.Interp.monitor <- Some (Sanitize.monitor ses))
          cores;
        Some sn
  in
  let ndomains = max 1 (min (min domains max_domains) (max 1 (Array.length active))) in
  let t0 = Clock.now () in
  (* Boot: create the startup object on core 0's context and
     dispatch it before any domain exists (no lock needed). *)
  let startup = Interp.make_startup cores.(0).ictx args in
  dispatch st cores.(0) (snapshot startup);
  let root = Prng.create ~seed in
  let streams = Array.init ndomains (fun _ -> Prng.split root) in
  let workers =
    Array.init (ndomains - 1) (fun i ->
        let d = i + 1 in
        Domain.spawn (fun () ->
            try domain_loop st (cores_of_domain st active ndomains d) streams.(d) ~chaos
            with e -> record_crash st e))
  in
  (try domain_loop st (cores_of_domain st active ndomains 0) streams.(0) ~chaos
   with e -> record_crash st e);
  Array.iter Domain.join workers;
  (match Atomic.get st.crashed with Some e -> raise e | None -> ());
  let wall = Clock.elapsed t0 in
  let output =
    String.concat "" (Array.to_list (Array.map (fun c -> Interp.output c.ictx) cores))
  in
  let objects = List.concat_map (fun c -> Interp.final_objects c.ictx) (Array.to_list cores) in
  let core_stats = collect_core_stats cores in
  let sum f = Array.fold_left (fun a c -> a + f c) 0 cores in
  {
    x_wall_seconds = wall;
    x_cycles = sum (fun c -> c.ictx.Interp.cycles);
    x_invocations = sum (fun c -> c.executed);
    x_lock_retries = sum (fun c -> c.retries);
    x_messages = sum (fun c -> c.sent);
    x_domains = ndomains;
    x_output = output;
    x_objects = objects;
    x_digest = Canon.digest prog ~output ~objects;
    x_per_core_invocations = Array.map (fun c -> c.executed) cores;
    x_violations =
      (match sanitizer with Some sn -> Sanitize.violations sn | None -> []);
    x_core_stats = core_stats;
    x_idle_polls = sum (fun c -> c.idle_polls);
    x_steal_attempts = sum (fun c -> c.steal_attempts);
    x_steals = sum (fun c -> c.steal_hits);
    x_steal_aborts = sum (fun c -> c.steal_aborts);
    x_stolen_invocations = sum (fun c -> c.stolen_run);
  }

(* ------------------------------------------------------------------ *)
(* Streaming sessions: the serve runtime's injection surface.

   A session is the parallel backend kept alive between requests:
   workers are spawned once and park in their idle backoff whenever
   the outstanding counter is transiently zero, and the caller's
   thread (the load generator) injects startup objects while they run.
   Injection is made race-free by giving the injector its own
   pseudo-core: core id [ncores], never scheduled by any domain, with
   its own interpreter context (id partition [ncores] of stride
   [ncores + 1] — the scheduler cores use partitions [0 .. ncores-1]
   of the same stride) and its own round-robin routing counters.  The
   canonical digest ({!Canon.digest}) abstracts object/tag ids away,
   so the different stride cannot move a program's digest. *)

type session = {
  ses_st : state;
  ses_injector : xcore;               (* pseudo-core, caller's thread only *)
  ses_workers : unit Domain.t array;
  ses_domains : int;
}

(** Spawn the backend and leave it idling for injections.  All
    [ndomains] workers are real spawned domains — the caller's thread
    stays free to generate load.  [tracker] receives per-request
    completion callbacks; it must be sized for every request id that
    will ever be injected. *)
let open_session ?(max_invocations = max_int) ?lock_groups ?(domains = 4) ?(seed = 0)
    ?(schedule = Static) ?steal_safe ~(tracker : tracker) (prog : Ir.program)
    (layout : Layout.t) : session =
  let st, active =
    build_state ~max_invocations ?lock_groups ~schedule ?steal_safe ~tracker ~serving:true
      prog layout
  in
  let ncores = Array.length st.cores in
  let injector = make_xcore prog (ncores + 1) ncores in
  let ndomains = max 1 (min (min domains max_domains) (max 1 (Array.length active))) in
  let root = Prng.create ~seed in
  let streams = Array.init ndomains (fun _ -> Prng.split root) in
  let workers =
    Array.init ndomains (fun d ->
        Domain.spawn (fun () ->
            try domain_loop st (cores_of_domain st active ndomains d) streams.(d) ~chaos:0.0
            with e -> record_crash st e))
  in
  { ses_st = st; ses_injector = injector; ses_workers = workers; ses_domains = ndomains }

(** Inject one request: boot a startup object tagged [req] into the
    running backend.  Caller's thread only.  A guard increment keeps
    the request's tracker counter above zero across the dispatch
    fan-out, so [tk_done] cannot fire while the injection is still in
    progress (and fires from here if the startup object satisfies no
    consumer at all). *)
let inject (ses : session) ~req (args : string list) =
  let st = ses.ses_st in
  count_up st req;
  let startup = Interp.make_startup ses.ses_injector.ictx args in
  dispatch st ses.ses_injector (snapshot ~req startup);
  count_down st ~core:ses.ses_injector.cid req

(** First worker failure, if any — the generator polls this to stop
    feeding a crashed backend. *)
let session_crashed (ses : session) = Atomic.get ses.ses_st.crashed

(** Raise the purge watermark: every request id below [before] is
    complete or shed, and its parked parameter-set entries may be
    reclaimed by the cores (lazily, on their next scheduler step). *)
let advance_trim (ses : session) before =
  if before > Atomic.get ses.ses_st.trim_before then
    Atomic.set ses.ses_st.trim_before before

(** Close the stream: workers drain every remaining obligation, then
    exit; the first worker crash (if any) is re-raised here.  The
    caller must have stopped injecting. *)
let close_session (ses : session) =
  Atomic.set ses.ses_st.draining true;
  Array.iter Domain.join ses.ses_workers;
  match Atomic.get ses.ses_st.crashed with Some e -> raise e | None -> ()

(* ------------------------------------------------------------------ *)
(* Layout helpers *)

(** A layout that spreads every task over all cores of [machine]
    (restriction-permitting): single-parameter and all-tagged tasks go
    everywhere, untagged multi-parameter tasks are pinned to a
    deterministic core.  Used by the equivalence tests and [bamboo
    exec --layout spread] to exercise parallelism without paying for
    layout synthesis. *)
let spread_layout (prog : Ir.program) (machine : Machine.t) =
  let l = Layout.create machine ~ntasks:(Array.length prog.Ir.tasks) in
  Array.iteri
    (fun tid (t : Ir.taskinfo) ->
      if machine.Machine.cores > 1 && Layout.multi_instance_ok t then
        Layout.set_cores l tid (Array.init machine.Machine.cores Fun.id)
      else Layout.set_cores l tid [| tid mod machine.Machine.cores |])
    prog.Ir.tasks;
  l
