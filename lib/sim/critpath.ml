(** Critical path analysis over simulated execution traces (§4.5.1,
    Figure 6).

    The critical path is reconstructed by walking back from the event
    that finishes last: each event's start time is pinned either by
    the arrival of its latest input (a data dependence, possibly via
    an inter-core transfer) or by the preceding event on the same core
    (a resource dependence).  The path therefore accounts for both
    scheduling and resource limitations, as in the paper.

    The analysis also surfaces the two optimization opportunities the
    DSA search exploits: *delayed* instances (data was ready before
    the core was) and *non-key* instances that delay key instances. *)

module Ir = Bamboo_ir.Ir

type step = {
  cp_event : Schedsim.event;
  cp_via : [ `Data of int | `Resource of int | `Start ];
      (* what pinned this event's start: producer event id, or the
         previous event id on the same core, or nothing *)
}

type t = {
  path : step list;        (* from first to last event on the path *)
  length : int;            (* finish time of the last event *)
}

(** Compute the critical path of a simulated trace.  The trace must be
    complete: a [Bounded] (pruned) simulation stops mid-flight, so its
    trace has dangling producers and a meaningless "last" event — the
    evaluation engine never hands those to this pass. *)
let analyse (r : Schedsim.result) : t =
  (match r.s_status with
  | Schedsim.Complete -> ()
  | Schedsim.Bounded _ ->
      invalid_arg "Critpath.analyse: bounded simulation produced a truncated trace");
  let events = r.s_events in
  if Array.length events = 0 then { path = []; length = 0 }
  else begin
    (* Index events and per-core order.  Event ids are dense (every
       started event finishes in a complete trace), so arrays replace
       the previous hash tables. *)
    let max_id = Array.fold_left (fun m e -> max m e.Schedsim.ev_id) 0 events in
    let by_id = Array.make (max_id + 1) None in
    Array.iter (fun e -> by_id.(e.Schedsim.ev_id) <- Some e) events;
    (* Previous event on the same core (by start time); -1 = none. *)
    let prev_on_core = Array.make (max_id + 1) (-1) in
    let per_core = Array.make (Array.length r.s_per_core_busy) [] in
    Array.iter
      (fun (e : Schedsim.event) -> per_core.(e.ev_core) <- e :: per_core.(e.ev_core))
      events;
    Array.iter
      (fun l ->
        let sorted = List.sort (fun a b -> compare a.Schedsim.ev_start b.Schedsim.ev_start) l in
        let rec link = function
          | a :: (b :: _ as rest) ->
              prev_on_core.(b.Schedsim.ev_id) <- a.Schedsim.ev_id;
              link rest
          | _ -> ()
        in
        link sorted)
      per_core;
    (* Last-finishing event. *)
    let last = Array.fold_left (fun acc e -> if e.Schedsim.ev_finish > acc.Schedsim.ev_finish then e else acc) events.(0) events in
    let rec walk (e : Schedsim.event) acc =
      (* What pinned e's start? *)
      let data_pin =
        Array.fold_left
          (fun best (prod, arrival) ->
            match best with
            | Some (_, a) when a >= arrival -> best
            | _ when prod >= 0 -> Some (prod, arrival)
            | _ -> best)
          None e.ev_inputs
      in
      let resource_pin =
        let p = prev_on_core.(e.ev_id) in
        if p >= 0 then Some p else None
      in
      let via =
        match (data_pin, resource_pin) with
        | Some (prod, arrival), Some prev -> (
            (* The later constraint wins: if the core was still busy at
               e.ready, the resource dependence pinned the start. *)
            match by_id.(prev) with
            | Some prev_ev ->
                if prev_ev.Schedsim.ev_finish >= arrival then `Resource prev else `Data prod
            | None -> `Data prod)
        | Some (prod, _), None -> `Data prod
        | None, Some prev -> `Resource prev
        | None, None -> `Start
      in
      let acc = { cp_event = e; cp_via = via } :: acc in
      match via with
      | `Data prod | `Resource prod -> (
          match (if prod >= 0 && prod <= max_id then by_id.(prod) else None) with
          | Some p -> walk p acc
          | None -> acc)
      | `Start -> acc
    in
    { path = walk last []; length = last.ev_finish }
  end

(* ------------------------------------------------------------------ *)
(* Optimization opportunities (§4.5.2) *)

type opportunity =
  | Migrate_delayed of Ir.task_id * int
      (* task instance on core c whose data was ready before the core was *)
  | Move_non_key of Ir.task_id * int
      (* non-key task on core c that delayed a key task *)

(** Extract optimization opportunities from a critical path, grouped
    by data-dependence resolution time as in the paper.  One pass over
    adjacent steps: every step but the first is pinned by the one
    before it, so a step is {e key} exactly when the next step is
    [`Data]-pinned to it, and a [`Resource]-pinned step's blocker is
    the (non-key) step before it. *)
let opportunities (cp : t) : opportunity list =
  let rec go prev acc = function
    | [] -> acc
    | step :: rest ->
        let e = step.cp_event in
        let acc =
          match step.cp_via with
          | `Resource blocker when e.ev_start > e.ev_ready -> (
              (* Delayed instance: data ready strictly before the body
                 start (beyond fixed dispatch overhead). *)
              match rest with
              | { cp_via = `Data p; _ } :: _ when p = e.ev_id -> (
                  (* A key task delayed by a resource: move the blocker. *)
                  match prev with
                  | Some (b : Schedsim.event) when b.ev_id = blocker ->
                      Move_non_key (b.ev_task, b.ev_core) :: acc
                  | _ -> acc)
              | _ -> Migrate_delayed (e.ev_task, e.ev_core) :: acc)
          | _ -> acc
        in
        go (Some e) acc rest
  in
  List.sort_uniq compare (go None [] cp.path)

(** Render the trace + critical path in the style of Figure 6. *)
let to_string (prog : Ir.program) (r : Schedsim.result) (cp : t) =
  let buf = Buffer.create 256 in
  let on_path id = List.exists (fun s -> s.cp_event.Schedsim.ev_id = id) cp.path in
  Buffer.add_string buf (Printf.sprintf "critical path length: %d cycles\n" cp.length);
  Array.iter
    (fun (e : Schedsim.event) ->
      Buffer.add_string buf
        (Printf.sprintf "%s core %-2d [%8d, %8d] %-28s ready=%d%s\n"
           (if on_path e.ev_id then "*" else " ")
           e.ev_core e.ev_start e.ev_finish
           prog.tasks.(e.ev_task).t_name e.ev_ready
           (if e.ev_start > e.ev_ready then
              Printf.sprintf " (delayed %d)" (e.ev_start - e.ev_ready)
            else "")))
    r.s_events;
  Buffer.contents buf
