(** Dynamic lockset sanitizer: the runtime cross-check for the static
    concurrency-effects analysis ({!Bamboo_analysis.Effects}).

    Two independent checks run on every object access the parallel
    backend ({!Exec}) performs, via the {!Interp.monitor} hook:

    {ol
    {- {e Effect prediction}: every dynamic field read/write and every
       exit-applied flag/tag write must have been predicted by the
       static effect sets — same task, same class, same field (or flag
       bit / tag type).  An unpredicted access means the effect
       analysis under-approximated, i.e. is unsound for this program;
       CI turns that into a hard failure.}
    {- {e Eraser-style lockset}: every object carries a shadow
       candidate lockset — the keys (group locks and per-object locks)
       held by {e every} invocation that has touched it so far,
       intersected access by access.  If the candidate set becomes
       empty while the object has been written, no single lock
       consistently protects it: a data race the lock-group analysis
       failed to serialize.  This is the dynamic witness for exactly
       the static model's 1-limited blind spot (same-site instances
       sharing a fresh singleton look private to the points-to
       abstraction but race for real).}}

    Objects allocated during the current invocation are exempt from
    the lockset check until the invocation ends: they are unpublished,
    so no other invocation can reach them — the standard Eraser
    initialization-phase refinement.  Array element accesses are not
    shadowed (arrays carry no identity in {!Value}); the static
    analysis covers them through [Aelem] effects instead.

    Monitors observe only — they never touch interpreter state — so
    cycle and step accounting stays bit-identical with the sanitizer
    on or off. *)

module Ir = Bamboo_ir.Ir
module E = Bamboo_analysis.Effects
module Astg = Bamboo_analysis.Astg
module Interp = Bamboo_interp.Interp
open Bamboo_interp.Value

(** A lock key as the sanitizer sees it: the group root class id for
    group-locked classes, the object id otherwise.  Mirrors
    [Bamboo_runtime.Pset.lock_key] but by value, so keys can live in
    hash tables and survive the objects they name. *)
type key = Kgroup of int | Kobject of int

type shadow = {
  mutable sh_lockset : key list;  (* sorted; candidate locks *)
  mutable sh_written : bool;      (* any post-publication write yet? *)
}

type t = {
  prog : Ir.program;
  (* Predicted field effects, [task][class][field].  Prediction is by
     atom only — receiver node sets do not matter here, so fresh and
     old accesses use the same tables. *)
  pred_read : bool array array array;
  pred_write : bool array array array;
  (* Predicted exit effects: writable flag bits / tag-type bits,
     [task][class]. *)
  pred_flags : int array array;
  pred_tags : int array array;
  mu : Mutex.t;                   (* guards [shadows], [violations], [vseen] *)
  shadows : (int, shadow) Hashtbl.t;          (* object id -> shadow *)
  mutable violations : string list;           (* reversed *)
  vseen : (string, unit) Hashtbl.t;           (* dedup keys *)
}

(** Per-core session: which invocation is currently running on this
    core's interpreter context, which keys it holds, and which objects
    it allocated (unpublished, lockset-exempt).  Owned by the core's
    domain; only the tables in {!t} are shared. *)
type session = {
  sn : t;
  mutable s_task : int;           (* running task id, or -1 outside *)
  mutable s_keys : key list;      (* sorted keys held by the invocation *)
  s_fresh : (int, unit) Hashtbl.t;
}

let create (prog : Ir.program) (eff : E.t) : t =
  let nclasses = Array.length prog.Ir.classes in
  let per_class f = Array.init nclasses f in
  let field_table () =
    per_class (fun c -> Array.make (Array.length prog.Ir.classes.(c).c_fields) false)
  in
  let ntasks = Array.length prog.Ir.tasks in
  let pred_read = Array.init ntasks (fun _ -> field_table ()) in
  let pred_write = Array.init ntasks (fun _ -> field_table ()) in
  let pred_flags = Array.init ntasks (fun _ -> Array.make nclasses 0) in
  let pred_tags = Array.init ntasks (fun _ -> Array.make nclasses 0) in
  Array.iter
    (fun (te : E.task_effects) ->
      let tid = te.ef_task in
      List.iter
        (fun (a : E.access) ->
          match a.ac_atom with
          | E.Afield (cid, fid) ->
              (if a.ac_write then pred_write else pred_read).(tid).(cid).(fid) <- true
          | E.Aelem _ -> ())
        te.ef_accesses;
      List.iter
        (fun (cid, f, _) -> pred_flags.(tid).(cid) <- pred_flags.(tid).(cid) lor (1 lsl f))
        te.ef_flag_writes;
      List.iter
        (fun (cid, ty, _) -> pred_tags.(tid).(cid) <- pred_tags.(tid).(cid) lor (1 lsl ty))
        te.ef_tag_writes)
    eff.E.per_task;
  {
    prog;
    pred_read;
    pred_write;
    pred_flags;
    pred_tags;
    mu = Mutex.create ();
    shadows = Hashtbl.create 256;
    violations = [];
    vseen = Hashtbl.create 16;
  }

let session (sn : t) : session =
  { sn; s_task = -1; s_keys = []; s_fresh = Hashtbl.create 16 }

(* ------------------------------------------------------------------ *)
(* Violation recording: deduplicated on everything except the object
   id, so a racing loop yields one report, not thousands. *)

let add_violation sn ~dedup msg =
  Mutex.lock sn.mu;
  if not (Hashtbl.mem sn.vseen dedup) then begin
    Hashtbl.replace sn.vseen dedup ();
    sn.violations <- msg :: sn.violations
  end;
  Mutex.unlock sn.mu

let violations sn = List.sort compare sn.violations

(* ------------------------------------------------------------------ *)
(* The two checks *)

let task_name sn tid = sn.prog.Ir.tasks.(tid).Ir.t_name

let field_name sn cid fid =
  let c = sn.prog.Ir.classes.(cid) in
  Printf.sprintf "%s.%s" c.Ir.c_name c.Ir.c_fields.(fid).Ir.f_name

let check_prediction ses (o : obj) fid ~write =
  let sn = ses.sn in
  let table = (if write then sn.pred_write else sn.pred_read).(ses.s_task) in
  let row = table.(o.o_class) in
  if not (fid < Array.length row && row.(fid)) then
    add_violation sn
      ~dedup:(Printf.sprintf "pred/%d/%d/%d/%b" ses.s_task o.o_class fid write)
      (Printf.sprintf "unpredicted %s: task %s accesses %s (object %d)"
         (if write then "write" else "read")
         (task_name sn ses.s_task) (field_name sn o.o_class fid) o.o_id)

let inter (a : key list) (b : key list) =
  (* both sorted *)
  let rec go a b =
    match (a, b) with
    | [], _ | _, [] -> []
    | x :: a', y :: b' ->
        let c = compare x y in
        if c = 0 then x :: go a' b' else if c < 0 then go a' b else go a b'
  in
  go a b

let check_lockset ses (o : obj) fid ~write =
  if not (Hashtbl.mem ses.s_fresh o.o_id) then begin
    let sn = ses.sn in
    Mutex.lock sn.mu;
    let sh =
      match Hashtbl.find_opt sn.shadows o.o_id with
      | Some sh -> sh
      | None ->
          (* First post-publication access seeds the candidate set. *)
          let sh = { sh_lockset = ses.s_keys; sh_written = false } in
          Hashtbl.replace sn.shadows o.o_id sh;
          sh
    in
    sh.sh_lockset <- inter sh.sh_lockset ses.s_keys;
    if write then sh.sh_written <- true;
    let bad = sh.sh_lockset = [] && sh.sh_written in
    Mutex.unlock sn.mu;
    if bad then
      add_violation sn
        ~dedup:(Printf.sprintf "lockset/%d/%d" o.o_class fid)
        (Printf.sprintf
           "lockset violation: no common lock protects %s (object %d); last access by task %s"
           (field_name sn o.o_class fid) o.o_id (task_name sn ses.s_task))
  end

let on_access ses (o : obj) fid ~write =
  if ses.s_task >= 0 then begin
    check_prediction ses o fid ~write;
    check_lockset ses o fid ~write
  end

(** The monitor to install into a core's interpreter context. *)
let monitor (ses : session) : Interp.monitor =
  {
    mn_read = (fun o fid -> on_access ses o fid ~write:false);
    mn_write = (fun o fid -> on_access ses o fid ~write:true);
    mn_alloc = (fun o -> if ses.s_task >= 0 then Hashtbl.replace ses.s_fresh o.o_id ());
  }

(* ------------------------------------------------------------------ *)
(* Invocation bracket *)

let enter ses ~task ~keys =
  ses.s_task <- task;
  ses.s_keys <- List.sort compare keys

let leave ses =
  ses.s_task <- -1;
  ses.s_keys <- [];
  Hashtbl.reset ses.s_fresh

(** Check the exit actions the invocation just applied (while its
    locks are still held) against the predicted flag/tag write sets.
    The lockset needs no update here: flag words and tag bindings only
    ever change under the invocation's own keys, by construction of
    the executor. *)
let check_exit ses (task : Ir.taskinfo) exit_idx (params : obj array) =
  let sn = ses.sn in
  let x = task.Ir.t_exits.(exit_idx) in
  let slot_tags = lazy (Astg.task_slot_tags task) in
  List.iter
    (fun (pidx, (a : Ir.actions)) ->
      let cid = params.(pidx).o_class in
      List.iter
        (fun (f, _) ->
          if sn.pred_flags.(task.Ir.t_id).(cid) land (1 lsl f) = 0 then
            add_violation sn
              ~dedup:(Printf.sprintf "flag/%d/%d/%d" task.Ir.t_id cid f)
              (Printf.sprintf "unpredicted flag write: taskexit of %s sets flag %s of class %s"
                 task.Ir.t_name
                 sn.prog.Ir.classes.(cid).Ir.c_flags.(f)
                 sn.prog.Ir.classes.(cid).Ir.c_name))
        a.Ir.a_set;
      List.iter
        (fun slot ->
          match List.assoc_opt slot (Lazy.force slot_tags) with
          | Some ty when sn.pred_tags.(task.Ir.t_id).(cid) land (1 lsl ty) = 0 ->
              add_violation sn
                ~dedup:(Printf.sprintf "tag/%d/%d/%d" task.Ir.t_id cid ty)
                (Printf.sprintf
                   "unpredicted tag write: taskexit of %s changes tag %s of class %s"
                   task.Ir.t_name
                   sn.prog.Ir.tag_types.(ty)
                   sn.prog.Ir.classes.(cid).Ir.c_name)
          | _ -> ())
        (a.Ir.a_addtags @ a.Ir.a_cleartags))
    x.Ir.x_actions
