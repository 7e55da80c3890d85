(** The many-core execution substrate (the paper's §4.7 runtime, with
    the TILEPro64 replaced by a deterministic cycle-level simulation).

    Each core runs a lightweight distributed scheduler: objects whose
    abstract state satisfies a task's parameter guard are forwarded
    directly to the core(s) hosting that task and placed in per-task
    *parameter sets*; complete assignments of parameter objects to
    parameters become *task invocations*; before executing an
    invocation the core try-locks all parameter objects and, on
    failure, releases everything and tries a different invocation
    (transactional task semantics, no aborts).

    Task bodies execute for real through {!Bamboo_interp.Interp}, so
    the run both produces the program's actual output and charges the
    cost model.  Event ordering is fully deterministic. *)

module Ir = Bamboo_ir.Ir
module Interp = Bamboo_interp.Interp
module Cost = Bamboo_interp.Cost
module Value = Bamboo_interp.Value
module Machine = Bamboo_machine.Machine
module Layout = Bamboo_machine.Layout
module Pqueue = Bamboo_support.Pqueue
module Deque = Bamboo_support.Deque
open Value

exception Runtime_stuck of string

(* ------------------------------------------------------------------ *)
(* Invocations and parameter sets *)

(** A parameter-set entry.  Validity (generation match + guard) is
    monotone: an object's guard-relevant state ([o_flags], [o_tags])
    is only mutated by [Interp.apply_exit], which the event loop
    always follows with an [o_gen] bump — so an entry, once invalid,
    stays invalid, and the deque-based sets below may tombstone it
    lazily instead of sweeping eagerly. *)
type entry = { en_obj : obj; en_gen : int }

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

(* The deque tombstone; real entries are freshly allocated records,
   never physically equal to it. *)
let dummy_entry = { en_obj = dummy_obj; en_gen = max_int }

type invocation = {
  iv_task : Ir.taskinfo;
  iv_params : entry array;
  iv_tags : (Ir.slot * tag_inst) list;
}

type core = {
  cid : int;
  mutable busy_until : int;
  mutable executing : invocation option;
  mutable pending : Interp.invocation_result option;
  mutable ready_scheduled : bool;
  ready : invocation Queue.t;
  (* parameter sets: task id -> per-parameter entry deques (O(1)
     amortized arrival, lazy tombstone deletion) *)
  psets : entry Deque.t array array;
}

type event = Arrive of int * entry | Ready of int | Finish of int

(** Per-invocation record handed to profiling hooks. *)
type invocation_record = {
  ir_task : Ir.task_id;
  ir_core : int;
  ir_exit : int;
  ir_cycles : int;            (* body cycles only *)
  ir_start : int;             (* cycle at which the body started *)
  ir_created : Ir.site_id list;
}

type result = {
  r_total_cycles : int;
  r_invocations : int;
  r_failed_locks : int;
  r_messages : int;
  r_output : string;
  r_per_core_busy : int array;
  r_records : invocation_record list; (* reversed order of completion *)
  r_objects : obj list;               (* final heap, in allocation order *)
}

type consumers = (Ir.taskinfo * int * Ir.flagexp) list
(* per class: tasks that may consume an object of that class *)

type state = {
  prog : Ir.program;
  layout : Layout.t;
  ictx : Interp.ctx;
  invoke :
    Ir.taskinfo ->
    obj array ->
    tag_binds:(Ir.slot * tag_inst) list ->
    Interp.invocation_result;
  (* [ictx]'s engine (closure engine or tree-walking oracle),
     resolved once at state construction *)
  machine : Machine.t;
  cores : core array;
  events : event Pqueue.t;
  consumer_table : consumers array;      (* class id -> consumers *)
  lock_groups : int array;               (* class id -> group root class (or itself) *)
  use_group : bool array;                (* class id -> class locks via its group *)
  group_locks : (int, int * int) Hashtbl.t; (* group -> core, release *)
  rr : int array array;                  (* task -> param -> round-robin counter *)
  mutable invocations : int;
  mutable failed_locks : int;
  mutable messages : int;
  mutable records : invocation_record list;
  max_invocations : int;
  record_trace : bool;
}

let make_core (prog : Ir.program) cid =
  {
    cid;
    busy_until = 0;
    executing = None;
    pending = None;
    ready_scheduled = false;
    ready = Queue.create ();
    psets =
      Array.map
        (fun (t : Ir.taskinfo) ->
          Array.init (Array.length t.t_params) (fun _ -> Deque.create ~dummy:dummy_entry))
        prog.tasks;
  }

let build_consumer_table (prog : Ir.program) : consumers array =
  let table = Array.make (Array.length prog.classes) [] in
  Array.iter
    (fun (t : Ir.taskinfo) ->
      Array.iteri
        (fun pidx (p : Ir.paraminfo) ->
          table.(p.p_class) <- (t, pidx, p.p_guard) :: table.(p.p_class))
        t.t_params)
    prog.tasks;
  Array.map List.rev table

(** Does an object's current state satisfy the guard of a consumer,
    including the existence of required tags? *)
let satisfies (p : Ir.paraminfo) (o : obj) =
  Ir.eval_flagexp p.p_guard o.o_flags
  && List.for_all (fun (tty, _) -> List.exists (fun t -> t.tg_ty = tty) o.o_tags) p.p_tags

(* ------------------------------------------------------------------ *)
(* Routing *)

(** Destination core for dispatching [o] to parameter [pidx] of
    [task].  The placement policy itself is {!Layout.route_core},
    shared with the parallel backend and the dense simulator; this
    wrapper only computes the tag-hash key (the bound tag instance's
    id) for multi-parameter tasks. *)
let route st (task : Ir.taskinfo) pidx (o : obj) =
  let nparams = Array.length task.t_params in
  let key =
    if nparams <= 1 then 0
    else
      match task.t_params.(pidx).p_tags with
      | (tty, _) :: _ -> (
          match List.find_opt (fun t -> t.tg_ty = tty) o.o_tags with
          | Some tag -> tag.tg_id
          | None -> Layout.no_key)
      | [] -> 0
  in
  let c =
    Layout.route_core
      ~cores:(Layout.cores_of st.layout task.t_id)
      ~nparams ~key ~rr:st.rr ~tid:task.t_id pidx
  in
  if c < 0 then None else Some c

(* ------------------------------------------------------------------ *)
(* Parameter sets and invocation assembly *)

let entry_valid (p : Ir.paraminfo) (e : entry) =
  e.en_gen = Atomic.get e.en_obj.o_gen && satisfies p e.en_obj

(** Try to assemble one invocation of [task] on [core].  Performs a
    backtracking search over the parameter-set deques subject to tag
    unification and object-distinctness.  Entries are visited in
    arrival order; stale entries are tombstoned on sight (validity is
    monotone, so they can never become assemblable again).  On success
    exactly the chosen slots are deleted. *)
let try_assemble core (task : Ir.taskinfo) =
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
            if not (entry_valid p e) then begin
              Deque.delete set i;
              scan (i + 1)
            end
            else begin
              let distinct = ref true in
              for j = 0 to pidx - 1 do
                if chosen_e.(j).en_obj == e.en_obj then distinct := false
              done;
              if not !distinct then scan (i + 1)
              else begin
                (* unify tag constraints *)
                let saved = Hashtbl.copy bindings in
                let ok =
                  List.for_all
                    (fun (tty, slot) ->
                      match Hashtbl.find_opt bindings slot with
                      | Some tag -> List.memq tag e.en_obj.o_tags
                      | None -> (
                          match List.find_opt (fun t -> t.tg_ty = tty) e.en_obj.o_tags with
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
      Some { iv_task = task; iv_params = chosen_e; iv_tags = List.sort compare tags }
    end
    else None
  end

let schedule_ready st core at =
  if not core.ready_scheduled then begin
    core.ready_scheduled <- true;
    Pqueue.push st.events ~prio:(max at core.busy_until) (Ready core.cid)
  end

(** Insert an arriving entry into the core's parameter sets and
    assemble any invocations it enables. *)
let deliver st core (e : entry) now =
  let consumers = st.consumer_table.(e.en_obj.o_class) in
  let inserted = ref false in
  List.iter
    (fun ((task : Ir.taskinfo), pidx, _) ->
      (* Only tasks hosted on this core receive the entry. *)
      if Array.exists (fun c -> c = core.cid) (Layout.cores_of st.layout task.t_id) then
        if entry_valid task.t_params.(pidx) e then begin
          (* The same object may already sit in this set under the
             same generation (duplicate sends are dropped).  Only a
             currently valid entry can match the incoming one, and
             valid entries are never tombstoned, so the live-slot scan
             sees every possible duplicate. *)
          let set = core.psets.(task.t_id).(pidx) in
          let dup = Deque.exists (fun e' -> e'.en_obj == e.en_obj && e'.en_gen = e.en_gen) set in
          if not dup then begin
            Deque.push set e;
            inserted := true;
            let rec drain () =
              match try_assemble core task with
              | Some inv ->
                  Queue.add inv core.ready;
                  drain ()
              | None -> ()
            in
            drain ()
          end
        end)
    consumers;
  if !inserted || not (Queue.is_empty core.ready) then schedule_ready st core now

(* ------------------------------------------------------------------ *)
(* Dispatch: send an object to every task that can consume it *)

let dispatch st ~from_core (o : obj) now =
  let consumers = st.consumer_table.(o.o_class) in
  let send_cost = ref 0 in
  List.iter
    (fun ((task : Ir.taskinfo), pidx, _) ->
      if satisfies task.t_params.(pidx) o then
        match route st task pidx o with
        | None -> ()
        | Some dst ->
            let e = { en_obj = o; en_gen = Atomic.get o.o_gen } in
            if dst = from_core then begin
              send_cost := !send_cost + Cost.enqueue;
              deliver st st.cores.(dst) e (now + !send_cost)
            end
            else begin
              st.messages <- st.messages + 1;
              send_cost := !send_cost + Cost.message_send;
              let words =
                Ir.(Array.length (class_of st.prog o.o_class).c_fields) + 2
              in
              let lat =
                Machine.transfer_latency st.machine ~src:from_core ~dst ~words
              in
              Pqueue.push st.events ~prio:(now + !send_cost + lat) (Arrive (dst, e))
            end)
    consumers;
  !send_cost

(* ------------------------------------------------------------------ *)
(* Locking *)

(* Classes that the disjointness analysis placed in a multi-class
   group use one group lock — including the group's representative
   class, which must exclude against the other members; singleton
   classes use per-object locks.  The keying predicate is shared with
   the static verifier's BAM007 audit ({!Ir.uses_group_lock}). *)
let lock_key st (o : obj) =
  if st.use_group.(o.o_class) then `Group st.lock_groups.(o.o_class) else `Obj o

(** Attempt to lock all parameters at [now] until [until].  Returns
    [Ok ()] or [Error release] with the earliest cycle at which a
    blocking lock is released. *)
let try_lock st core (inv : invocation) ~now ~until =
  let keys =
    Array.to_list inv.iv_params
    |> List.map (fun e -> lock_key st e.en_obj)
    |> List.sort_uniq (fun a b ->
           match (a, b) with
           | `Obj x, `Obj y -> compare x.o_id y.o_id
           | `Group x, `Group y -> compare x y
           | `Group _, `Obj _ -> -1
           | `Obj _, `Group _ -> 1)
  in
  let blocked =
    List.filter_map
      (fun k ->
        match k with
        | `Obj o ->
            let owner = Atomic.get o.o_lock in
            if owner >= 0 && owner <> core.cid && o.o_lock_until > now then Some o.o_lock_until
            else None
        | `Group g -> (
            match Hashtbl.find_opt st.group_locks g with
            | Some (c, rel) when c <> core.cid && rel > now -> Some rel
            | _ -> None))
      keys
  in
  match blocked with
  | [] ->
      List.iter
        (fun k ->
          match k with
          | `Obj o ->
              Atomic.set o.o_lock core.cid;
              o.o_lock_until <- until
          | `Group g -> Hashtbl.replace st.group_locks g (core.cid, until))
        keys;
      Ok ()
  | rs -> Error (List.fold_left max now rs)

let unlock st core (inv : invocation) =
  Array.iter
    (fun e ->
      match lock_key st e.en_obj with
      | `Obj o -> if Atomic.get o.o_lock = core.cid then Atomic.set o.o_lock (-1)
      | `Group g -> (
          match Hashtbl.find_opt st.group_locks g with
          | Some (c, _) when c = core.cid -> Hashtbl.remove st.group_locks g
          | _ -> ()))
    inv.iv_params

(* ------------------------------------------------------------------ *)
(* Core execution *)

(** An invocation is fresh when every parameter entry still matches
    the object's current generation and guard. *)
let invocation_fresh (inv : invocation) =
  let ok = ref true in
  Array.iteri
    (fun pidx (e : entry) -> if not (entry_valid inv.iv_task.t_params.(pidx) e) then ok := false)
    inv.iv_params;
  !ok

(** After the body duration is known, stamp the real release time on
    every lock taken for this invocation. *)
let refresh_lock_until st core (inv : invocation) finish =
  Array.iter
    (fun (e : entry) ->
      match lock_key st e.en_obj with
      | `Obj o ->
          if Atomic.get o.o_lock = core.cid then o.o_lock_until <- finish
      | `Group g -> (
          match Hashtbl.find_opt st.group_locks g with
          | Some (c, _) when c = core.cid -> Hashtbl.replace st.group_locks g (c, finish)
          | _ -> ()))
    inv.iv_params

let core_ready st core now =
  core.ready_scheduled <- false;
  if core.executing = None then begin
    let t = ref (max now core.busy_until) in
    let n = Queue.length core.ready in
    let retry = ref None in
    let started = ref false in
    let i = ref 0 in
    while (not !started) && !i < n do
      incr i;
      match Queue.take_opt core.ready with
      | None -> i := n
      | Some inv ->
          if not (invocation_fresh inv) then
            (* A concurrent task transitioned a parameter: drop the
               invocation, re-inserting entries that are still valid. *)
            Array.iteri
              (fun pidx e ->
                if entry_valid inv.iv_task.t_params.(pidx) e then deliver st core e !t)
              inv.iv_params
          else begin
            t := !t + Cost.dispatch + (Cost.lock_op * Array.length inv.iv_params);
            match try_lock st core inv ~now:!t ~until:max_int with
            | Ok () ->
                (* Execute the body now that every parameter is locked;
                   its heap effects are invisible to other cores until
                   [finish] because any conflicting invocation must
                   first take one of these locks. *)
                let r =
                  st.invoke inv.iv_task
                    (Array.map (fun e -> e.en_obj) inv.iv_params)
                    ~tag_binds:inv.iv_tags
                in
                let finish = !t + r.tr_cycles in
                refresh_lock_until st core inv finish;
                st.invocations <- st.invocations + 1;
                if st.invocations > st.max_invocations then
                  raise (Runtime_stuck "invocation budget exceeded (livelock?)");
                if st.record_trace then
                  st.records <-
                    {
                      ir_task = inv.iv_task.t_id;
                      ir_core = core.cid;
                      ir_exit = r.tr_exit;
                      ir_cycles = r.tr_cycles;
                      ir_start = !t;
                      ir_created = List.map (fun o -> o.o_site) r.tr_created;
                    }
                    :: st.records;
                core.executing <- Some inv;
                core.pending <- Some r;
                core.busy_until <- finish;
                started := true;
                Pqueue.push st.events ~prio:finish (Finish core.cid)
            | Error release ->
                st.failed_locks <- st.failed_locks + 1;
                Queue.add inv core.ready;
                retry := (match !retry with Some x -> Some (min x release) | None -> Some release)
          end
    done;
    if not !started then begin
      core.busy_until <- max core.busy_until !t;
      match !retry with
      | Some rel ->
          core.ready_scheduled <- true;
          Pqueue.push st.events ~prio:(rel + 1) (Ready core.cid)
      | None -> ()
    end
  end

let core_finish st core now =
  match (core.executing, core.pending) with
  | Some inv, Some r ->
      unlock st core inv;
      let params = Array.map (fun (e : entry) -> e.en_obj) inv.iv_params in
      ignore (Interp.apply_exit inv.iv_task r.tr_exit params r.tr_frame);
      Array.iter (fun o -> Atomic.incr o.o_gen) params;
      let t = ref (now + Cost.flag_update) in
      Array.iter (fun o -> t := !t + dispatch st ~from_core:core.cid o !t) params;
      List.iter (fun o -> t := !t + dispatch st ~from_core:core.cid o !t) r.tr_created;
      core.busy_until <- !t;
      core.executing <- None;
      core.pending <- None;
      schedule_ready st core !t
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Top-level run loop *)

let default_lock_groups prog = Array.init (Array.length prog.Ir.classes) (fun i -> i)

(** Execute [prog] under [layout].  [lock_groups] maps each class to
    its shared-lock group root (from the disjointness analysis);
    classes mapped to themselves use per-object locks.  Returns the
    cycle-level result, including the program's printed output. *)
let run ?(args = []) ?(max_invocations = 2_000_000) ?(record_trace = false) ?lock_groups
    (prog : Ir.program) (layout : Layout.t) : result =
  (match Layout.validate prog layout with
  | [] -> ()
  | problems -> invalid_arg ("Runtime.run: invalid layout: " ^ String.concat "; " problems));
  let lock_groups =
    match lock_groups with Some g -> g | None -> default_lock_groups prog
  in
  let ictx = Interp.create prog in
  let st =
    {
      prog;
      layout;
      ictx;
      invoke = Interp.executor ictx;
      machine = layout.Layout.machine;
      cores = Array.init layout.Layout.machine.Machine.cores (make_core prog);
      events = Pqueue.create ~dummy:(Ready 0);
      consumer_table = build_consumer_table prog;
      lock_groups;
      use_group =
        Array.init (Array.length prog.Ir.classes) (Ir.uses_group_lock lock_groups);
      group_locks = Hashtbl.create 8;
      rr =
        Array.map (fun (t : Ir.taskinfo) -> Array.make (Array.length t.t_params) 0) prog.tasks;
      invocations = 0;
      failed_locks = 0;
      messages = 0;
      records = [];
      max_invocations;
      record_trace;
    }
  in
  (* Boot: create the startup object and dispatch it. *)
  let startup = Interp.make_startup st.ictx args in
  ignore (dispatch st ~from_core:0 startup 0);
  (* Event loop. *)
  while not (Pqueue.is_empty st.events) do
    let now = Pqueue.min_prio st.events in
    match Pqueue.take st.events with
    | Arrive (c, e) -> deliver st st.cores.(c) e now
    | Ready c -> core_ready st st.cores.(c) now
    | Finish c -> core_finish st st.cores.(c) now
  done;
  let total = Array.fold_left (fun acc c -> max acc c.busy_until) 0 st.cores in
  {
    r_total_cycles = total;
    r_invocations = st.invocations;
    r_failed_locks = st.failed_locks;
    r_messages = st.messages;
    r_output = Interp.output st.ictx;
    r_per_core_busy = Array.map (fun c -> c.busy_until) st.cores;
    r_records = List.rev st.records;
    r_objects = Interp.final_objects st.ictx;
  }

(** Convenience: run on a single core with every task on core 0 —
    the "1-core Bamboo version" of the paper's Figure 7. *)
let single_core_layout prog =
  let l = Layout.create Machine.single ~ntasks:(Array.length prog.Ir.tasks) in
  Array.iteri (fun tid _ -> Layout.set_cores l tid [| 0 |]) prog.Ir.tasks;
  l

let run_single ?(args = []) ?max_invocations ?lock_groups ?(record_trace = false) prog =
  run ~args ?max_invocations ?lock_groups ~record_trace prog (single_core_layout prog)
