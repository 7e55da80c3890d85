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

    The parameter sets, routing key, assembly and lock-key order are
    {!Pset}'s, shared with the domains backend.  This module adds what
    the simulation needs: message latency from {!Machine}, locks held
    until a simulated release cycle, and a deterministic event loop.
    Task bodies execute for real through {!Bamboo_interp.Interp}, so
    the run both produces the program's actual output and charges the
    cost model. *)

module Ir = Bamboo_ir.Ir
module Interp = Bamboo_interp.Interp
module Cost = Bamboo_interp.Cost
module Value = Bamboo_interp.Value
module Machine = Bamboo_machine.Machine
module Layout = Bamboo_machine.Layout
module Pqueue = Bamboo_support.Pqueue
open Value

exception Runtime_stuck of string

(* ------------------------------------------------------------------ *)
(* Cores *)

type core = {
  cid : int;
  mutable busy_until : int;
  mutable executing : Pset.invocation option;
  mutable pending : Interp.invocation_result option;
  mutable ready_scheduled : bool;
  ready : Pset.invocation Queue.t;
  psets : Pset.sets;
}

type event = Arrive of int * Pset.entry | Ready of int | Finish of int

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
  consumers : Pset.consumer list array;  (* class id -> consumers *)
  hosted : Pset.consumer list array array; (* core -> class id -> consumers there *)
  lock_group : int array;                (* {!Pset.lock_group_of} *)
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
    psets = Pset.create_sets prog;
  }

let schedule_ready st core at =
  if not core.ready_scheduled then begin
    core.ready_scheduled <- true;
    Pqueue.push st.events ~prio:(max at core.busy_until) (Ready core.cid)
  end

(** Insert an arriving entry into the core's parameter sets and
    assemble any invocations it enables. *)
let deliver st core (e : Pset.entry) now =
  let inserted =
    Pset.deliver core.psets ~home:core.cid st.hosted.(core.cid).(e.obj.o_class) e
      ~enqueue:(fun inv -> Queue.add inv core.ready)
  in
  if inserted || not (Queue.is_empty core.ready) then schedule_ready st core now

(* ------------------------------------------------------------------ *)
(* Dispatch: send an object to every task that can consume it *)

let dispatch st ~from_core (o : obj) now =
  let e = Pset.snapshot o in
  let send_cost = ref 0 in
  List.iter
    (fun ((task : Ir.taskinfo), pidx, p) ->
      if Pset.satisfies p e then begin
        let dst = Pset.route st.layout ~rr:st.rr task pidx e in
        if dst = from_core then begin
          send_cost := !send_cost + Cost.enqueue;
          deliver st st.cores.(dst) e (now + !send_cost)
        end
        else if dst >= 0 then begin
          st.messages <- st.messages + 1;
          send_cost := !send_cost + Cost.message_send;
          let words = Ir.(Array.length (class_of st.prog o.o_class).c_fields) + 2 in
          let lat = Machine.transfer_latency st.machine ~src:from_core ~dst ~words in
          Pqueue.push st.events ~prio:(now + !send_cost + lat) (Arrive (dst, e))
        end
      end)
    st.consumers.(o.o_class);
  !send_cost

(* ------------------------------------------------------------------ *)
(* Locking *)

(** Attempt to take every lock key in [keys] at [now] until [until].
    Returns [Ok ()] or [Error release] with the earliest cycle at which
    a blocking lock is released.  A lock is held until its release
    cycle, and events run in cycle order, so a lock whose release cycle
    has passed is free: finishing an invocation releases nothing. *)
let try_lock st core keys ~now ~until =
  let blocked =
    List.filter_map
      (function
        | Pset.Obj o ->
            let owner = Atomic.get o.o_lock in
            if owner >= 0 && owner <> core.cid && o.o_lock_until > now then Some o.o_lock_until
            else None
        | Pset.Group g -> (
            match Hashtbl.find_opt st.group_locks g with
            | Some (c, rel) when c <> core.cid && rel > now -> Some rel
            | _ -> None))
      keys
  in
  match blocked with
  | [] ->
      List.iter
        (function
          | Pset.Obj o ->
              Atomic.set o.o_lock core.cid;
              o.o_lock_until <- until
          | Pset.Group g -> Hashtbl.replace st.group_locks g (core.cid, until))
        keys;
      Ok ()
  | rs -> Error (List.fold_left max now rs)

(* ------------------------------------------------------------------ *)
(* Core execution *)

(** After the body duration is known, stamp the real release time on
    the lock keys [try_lock] just took for [core]. *)
let refresh_lock_until st core keys finish =
  List.iter
    (function
      | Pset.Obj o -> o.o_lock_until <- finish
      | Pset.Group g -> Hashtbl.replace st.group_locks g (core.cid, finish))
    keys

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
          if not (Array.for_all Pset.fresh inv.iv_params) then
            (* A concurrent task transitioned a parameter: drop the
               invocation, re-inserting entries that are still fresh. *)
            Array.iter (fun e -> if Pset.fresh e then deliver st core e !t) inv.iv_params
          else begin
            t := !t + Cost.dispatch + (Cost.lock_op * Array.length inv.iv_params);
            let keys = Pset.lock_keys st.lock_group inv in
            match try_lock st core keys ~now:!t ~until:max_int with
            | Ok () ->
                (* Execute the body now that every parameter is locked;
                   its heap effects are invisible to other cores until
                   [finish] because any conflicting invocation must
                   first take one of these locks. *)
                let r =
                  st.invoke inv.iv_task
                    (Array.map (fun (e : Pset.entry) -> e.obj) inv.iv_params)
                    ~tag_binds:inv.iv_tags
                in
                let finish = !t + r.tr_cycles in
                refresh_lock_until st core keys finish;
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
      let params = Array.map (fun (e : Pset.entry) -> e.obj) inv.iv_params in
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
  let consumers = Pset.consumers prog in
  let st =
    {
      prog;
      layout;
      ictx;
      invoke = Interp.executor ictx;
      machine = layout.Layout.machine;
      cores = Array.init layout.Layout.machine.Machine.cores (make_core prog);
      events = Pqueue.create ~dummy:(Ready 0);
      consumers;
      hosted = Pset.hosted layout consumers;
      lock_group = Pset.lock_group_of lock_groups;
      group_locks = Hashtbl.create 8;
      rr = Pset.round_robin prog;
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
