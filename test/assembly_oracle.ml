(** Test-support oracle for parameter-set assembly: the domains
    backend's search as it stood before both runtimes shared
    {!Bamboo.Pset}, with its own entry record.  It copies the arrays
    and restores a hash table of slot bindings for every candidate
    where {!Bamboo.Pset.try_assemble} threads an immutable binding
    list.  The [runtime.pset] suite checks that the shared module picks
    the same objects, binds the same tags and leaves the same live
    entries behind.  Nothing outside the tests uses it. *)

module Ir = Bamboo.Ir
module Deque = Bamboo.Support.Deque
open Bamboo.Value

type entry = {
  x_obj : obj;
  x_gen : int;
  x_flags : int;
  x_tags : tag_inst list;
  x_req : int;
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

let snapshot ?(req = -1) (o : obj) =
  { x_obj = o; x_gen = Atomic.get o.o_gen; x_flags = o.o_flags; x_tags = o.o_tags; x_req = req }

let satisfies (p : Ir.paraminfo) (e : entry) =
  Ir.eval_flagexp p.p_guard e.x_flags
  && List.for_all (fun (tty, _) -> List.exists (fun t -> t.tg_ty = tty) e.x_tags) p.p_tags

type invocation = {
  iv_task : Ir.taskinfo;
  iv_params : entry array;
  iv_tags : (Ir.slot * tag_inst) list;
  iv_home : int;
  iv_req : int;
}

(** One core's parameter sets: task id -> parameter -> entries. *)
type sets = entry Deque.t array array

let create_sets (tasks : Ir.taskinfo array) : sets =
  Array.map
    (fun (t : Ir.taskinfo) ->
      Array.init (Array.length t.t_params) (fun _ -> Deque.create ~dummy:dummy_entry))
    tasks

let try_assemble (psets : sets) ~home (task : Ir.taskinfo) =
  let sets = psets.(task.t_id) in
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
            else if pidx > 0 && e.x_req <> chosen_e.(0).x_req then scan (i + 1)
            else begin
              let distinct = ref true in
              for j = 0 to pidx - 1 do
                if chosen_e.(j).x_obj == e.x_obj then distinct := false
              done;
              if not !distinct then scan (i + 1)
              else begin
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
          iv_home = home;
          iv_req = chosen_e.(0).x_req;
        }
    end
    else None
  end

(** The backend's delivery loop of the same version: insert [e] for
    every consumer whose guard the snapshot satisfies, drop duplicates,
    and pass every invocation the insertion completes to [enqueue]. *)
let deliver (psets : sets) ~home (hosted : (Ir.taskinfo * int * Ir.paraminfo) list) (e : entry)
    ~enqueue =
  List.iter
    (fun ((task : Ir.taskinfo), pidx, p) ->
      if entry_fresh e && satisfies p e then begin
        let set = psets.(task.t_id).(pidx) in
        let dup = Deque.exists (fun e' -> e'.x_obj == e.x_obj && e'.x_gen = e.x_gen) set in
        if not dup then begin
          Deque.push set e;
          let rec assemble () =
            match try_assemble psets ~home task with
            | Some inv ->
                enqueue inv;
                assemble ()
            | None -> ()
          in
          assemble ()
        end
      end)
    hosted
