(** Parameter sets and invocation assembly (§4.7), shared by the
    cycle-level runtime ({!Runtime}) and the domains backend
    ([Bamboo_exec.Exec]).

    Every core keeps, for each task it hosts, one set of {e entries}
    per parameter.  An entry is a snapshot of an object's
    dispatch-relevant state (generation, flag word, tags) taken when
    the object was dispatched.  Both runtimes change an object's flags
    and tags only in [Interp.apply_exit] and bump its [o_gen] before
    any other core can see the object again, so a generation match
    means the snapshot is still exact.  Guards are therefore checked
    once, when an entry is inserted, and staleness afterwards is the
    generation check alone.  Staleness is also monotone (an entry,
    once stale, stays stale), so the sets tombstone stale entries
    lazily ({!Bamboo_support.Deque}).

    This module holds what the two runtimes share: the entries, the
    consumer tables, the tag-hash routing key, the backtracking
    assembly and the lock-key order.  Each runtime keeps its own
    transport (simulated latency or mailboxes), its own lock mechanics
    (simulated release times or [Atomic] compare-and-set) and its own
    event loop.  The dense simulator assembles tokens rather than
    objects, over compiled guard tables, and keeps its own search
    ([Bamboo_sim.Schedsim]). *)

module Ir = Bamboo_ir.Ir
module Layout = Bamboo_machine.Layout
module Deque = Bamboo_support.Deque
open Bamboo_interp.Value

(* ------------------------------------------------------------------ *)
(* Snapshot entries *)

type entry = {
  obj : obj;
  gen : int;                (* [obj.o_gen] when the snapshot was taken *)
  flags : int;
  tags : tag_inst list;
  req : int;
  (* the serve-mode request this object belongs to, or [-1] outside
     serve.  Objects never migrate between requests: everything
     allocated while executing request [r] is dispatched with
     [req = r], so the id travels with the request's whole cone. *)
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

(* The deque tombstone; real entries are freshly allocated records,
   never physically equal to it. *)
let dummy_entry = { obj = dummy_obj; gen = max_int; flags = 0; tags = []; req = -1 }

(** Snapshot [o].  Exact only while no other core can change [o]:
    under its lock, or before it is published. *)
let snapshot ?(req = -1) (o : obj) =
  { obj = o; gen = Atomic.get o.o_gen; flags = o.o_flags; tags = o.o_tags; req }

let fresh e = Atomic.get e.obj.o_gen = e.gen

(** Does the snapshot satisfy [p]'s guard, required tags included? *)
let satisfies (p : Ir.paraminfo) e =
  Ir.eval_flagexp p.p_guard e.flags
  && List.for_all (fun (tty, _) -> List.exists (fun t -> t.tg_ty = tty) e.tags) p.p_tags

type invocation = {
  iv_task : Ir.taskinfo;
  iv_params : entry array;
  iv_tags : (Ir.slot * tag_inst) list;  (* tag bindings, sorted by slot *)
  iv_home : int;                        (* the core whose sets assembled it *)
  iv_req : int;                         (* its parameters' request id *)
}

(** A filler for containers that need a value of every slot (the
    Chase–Lev deques).  It names no program task, so a program without
    tasks needs none; it is never executed. *)
let dummy_invocation =
  {
    iv_task =
      {
        t_id = -1;
        t_name = "";
        t_params = [||];
        t_nslots = 0;
        t_body = [];
        t_exits = [||];
        t_pos = { line = 0; col = 0 };
      };
    iv_params = [||];
    iv_tags = [];
    iv_home = -1;
    iv_req = -1;
  }

(* ------------------------------------------------------------------ *)
(* Consumers and routing *)

(** A parameter that may consume an object: task, index, parameter. *)
type consumer = Ir.taskinfo * int * Ir.paraminfo

(** Class id -> its consumers, in task and then parameter order. *)
let consumers (prog : Ir.program) : consumer list array =
  let table = Array.make (Array.length prog.classes) [] in
  Array.iter
    (fun (t : Ir.taskinfo) ->
      Array.iteri
        (fun pidx (p : Ir.paraminfo) -> table.(p.p_class) <- (t, pidx, p) :: table.(p.p_class))
        t.t_params)
    prog.tasks;
  Array.map List.rev table

(** Core id -> class id -> the consumers whose task [layout] places on
    that core, in the order of [table]. *)
let hosted (layout : Layout.t) (table : consumer list array) =
  let on cid ((t : Ir.taskinfo), _, _) = Array.mem cid (Layout.cores_of layout t.t_id) in
  Array.init layout.machine.cores (fun cid -> Array.map (List.filter (on cid)) table)

(** Destination core for sending [e] to parameter [pidx] of [task], or
    [-1] for nowhere.  The placement policy is {!Layout.route_core};
    this adds its key.  A multi-parameter task routes on the id of the
    tag instance its parameter binds, so co-tagged objects meet on one
    core.  [rr] holds the sender's round-robin counters. *)
let route (layout : Layout.t) ~rr (task : Ir.taskinfo) pidx e =
  let nparams = Array.length task.t_params in
  let key =
    if nparams <= 1 then 0
    else
      match task.t_params.(pidx).p_tags with
      | (tty, _) :: _ -> (
          match List.find_opt (fun t -> t.tg_ty = tty) e.tags with
          | Some tag -> tag.tg_id
          | None -> Layout.no_key)
      | [] -> 0
  in
  Layout.route_core ~cores:(Layout.cores_of layout task.t_id) ~nparams ~key ~rr ~tid:task.t_id
    pidx

(** Task id -> parameter -> round-robin counter, all zero. *)
let round_robin (prog : Ir.program) =
  Array.map (fun (t : Ir.taskinfo) -> Array.make (Array.length t.t_params) 0) prog.tasks

(* ------------------------------------------------------------------ *)
(* Parameter sets and assembly *)

(** One core's parameter sets: task id -> parameter -> entries, in
    arrival order. *)
type sets = entry Deque.t array array

let create_sets (prog : Ir.program) : sets =
  Array.map
    (fun (t : Ir.taskinfo) ->
      Array.init (Array.length t.t_params) (fun _ -> Deque.create ~dummy:dummy_entry))
    prog.tasks

(* Unify a parameter's tag constraints with the snapshot's tags: a slot
   already bound needs that very instance, an unbound one binds the
   first instance of its type.  [binds] is extended, never mutated. *)
let rec unify tags ptags binds =
  match ptags with
  | [] -> Some binds
  | (tty, slot) :: rest -> (
      match List.assoc_opt slot binds with
      | Some tag -> if List.memq tag tags then unify tags rest binds else None
      | None -> (
          match List.find_opt (fun t -> t.tg_ty = tty) tags with
          | Some tag -> unify tags rest ((slot, tag) :: binds)
          | None -> None))

(** Try to assemble one invocation of [task] from [sets]: a
    backtracking search, parameter by parameter and in arrival order,
    for distinct objects whose tags unify.  Parameters of different
    serve requests are never combined, so each request stays the closed
    system the digest oracle executes; outside serve every entry
    carries [-1] and the constraint is vacuous.  Stale entries are
    tombstoned on sight.  On success exactly the chosen slots are
    deleted. *)
let try_assemble (sets : sets) ~home (task : Ir.taskinfo) =
  let sets = sets.(task.t_id) in
  let nparams = Array.length task.t_params in
  if nparams = 0 then None
  else begin
    Array.iter Deque.maybe_compact sets;
    let slots = Array.make nparams (-1) in
    let chosen = Array.make nparams dummy_entry in
    let rec distinct e j = j < 0 || (chosen.(j).obj != e.obj && distinct e (j - 1)) in
    let rec search pidx binds =
      if pidx = nparams then Some binds
      else begin
        let set = sets.(pidx) in
        let len = Deque.length set in
        let rec scan i =
          if i >= len then None
          else if not (Deque.is_live set i) then scan (i + 1)
          else begin
            let e = Deque.get set i in
            if not (fresh e) then begin
              Deque.delete set i;
              scan (i + 1)
            end
            else if (pidx > 0 && e.req <> chosen.(0).req) || not (distinct e (pidx - 1)) then
              scan (i + 1)
            else
              match unify e.tags task.t_params.(pidx).p_tags binds with
              | None -> scan (i + 1)
              | Some binds -> (
                  slots.(pidx) <- i;
                  chosen.(pidx) <- e;
                  match search (pidx + 1) binds with
                  | Some _ as found -> found
                  | None -> scan (i + 1))
          end
        in
        scan 0
      end
    in
    match search 0 [] with
    | None -> None
    | Some binds ->
        Array.iteri (fun pidx slot -> Deque.delete sets.(pidx) slot) slots;
        Some
          {
            iv_task = task;
            iv_params = chosen;
            iv_tags = List.sort (fun (a, _) (b, _) -> compare a b) binds;
            iv_home = home;
            iv_req = chosen.(0).req;
          }
  end

(** Insert [e] into [sets] for every consumer in [hosted] (this core's
    consumers of [e]'s class) whose guard the snapshot satisfies, and
    pass each invocation an insertion completes to [enqueue].  An entry
    for the same object and generation already in a set is a duplicate
    send and is dropped: only a fresh entry can match, and fresh
    entries are never tombstoned, so the live-slot scan sees every
    duplicate.  Returns whether [e] was inserted anywhere. *)
let deliver (sets : sets) ~home (hosted : consumer list) e ~enqueue =
  let inserted = ref false in
  if fresh e then
    List.iter
      (fun ((task : Ir.taskinfo), pidx, p) ->
        if satisfies p e then begin
          let set = sets.(task.t_id).(pidx) in
          if not (Deque.exists (fun e' -> e'.obj == e.obj && e'.gen = e.gen) set) then begin
            Deque.push set e;
            inserted := true;
            let rec drain () =
              match try_assemble sets ~home task with
              | Some inv ->
                  enqueue inv;
                  drain ()
              | None -> ()
            in
            drain ()
          end
        end)
      hosted;
  !inserted

(* ------------------------------------------------------------------ *)
(* Lock keys *)

type lock_key = Group of int | Obj of obj

(** Class id -> the group whose one lock guards its objects, or [-1]
    when every object has a lock of its own.  A class that the
    disjointness analysis placed in a multi-class group locks through
    the group, the group's representative class included, which must
    exclude against the other members.  The predicate is shared with
    the verifier's BAM007 audit ({!Ir.uses_group_lock}). *)
let lock_group_of (lock_groups : int array) =
  Array.init (Array.length lock_groups) (fun c ->
      if Ir.uses_group_lock lock_groups c then lock_groups.(c) else -1)

(** The keys [inv] must hold, each once, in the global acquisition
    order: groups before objects, each by id.  Two cores contending for
    the same keys then collide on the first one they share. *)
let lock_keys (group_of : int array) (inv : invocation) =
  Array.to_list inv.iv_params
  |> List.map (fun e ->
         let g = group_of.(e.obj.o_class) in
         if g >= 0 then Group g else Obj e.obj)
  |> List.sort_uniq (fun a b ->
         match (a, b) with
         | Group x, Group y -> compare x y
         | Obj x, Obj y -> compare x.o_id y.o_id
         | Group _, Obj _ -> -1
         | Obj _, Group _ -> 1)
