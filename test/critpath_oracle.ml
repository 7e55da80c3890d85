(** Test oracles for the critical-path passes, kept verbatim so the
    [sim.critpath] suite can check the production passes against them:

    - [analyse]: the walk as it stood before it read the simulator's
      int-array trace — over event records, with an option array from
      event id to event and each core's events sorted by start time;
    - [opportunities]: the opportunity pass as it stood before the
      linear rewrite in [Critpath.opportunities] — quadratic in the
      path length (a [List.mem] over key ids per step, a scan of the
      path per blocker) but written straight from the definitions of
      key events and blockers. *)

open Bamboo.Critpath
module Schedsim = Bamboo.Schedsim

(** The critical path of a complete simulation, as [(steps, length)]. *)
let analyse (r : Schedsim.result) : step list * int =
  let events = Schedsim.events r in
  if Array.length events = 0 then ([], 0)
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
    (walk last [], last.ev_finish)
  end

(** Key events on the path: those whose output is consumed by the next
    path event (data edge). *)
let key_event_ids (cp : t) =
  let rec go = function
    | a :: ({ cp_via = `Data p; _ } :: _ as rest) when a.cp_event.Schedsim.ev_id = p ->
        a.cp_event.Schedsim.ev_id :: go rest
    | _ :: rest -> go rest
    | [] -> []
  in
  go (path cp)

(** Extract optimization opportunities from a critical path, grouped
    by data-dependence resolution time as in the paper. *)
let opportunities (cp : t) : opportunity list =
  let keys = key_event_ids cp in
  let ops = ref [] in
  let steps = Array.of_list (path cp) in
  Array.iteri
    (fun i step ->
      let e = step.cp_event in
      (* Delayed instance: data ready strictly before the body start
         (beyond fixed dispatch overhead). *)
      (match step.cp_via with
      | `Resource _ when e.ev_start > e.ev_ready ->
          if List.mem e.ev_id keys then begin
            (* A key task delayed by a resource: if the blocking event
               is non-key, propose moving the blocker. *)
            match step.cp_via with
            | `Resource prev_id when not (List.mem prev_id keys) -> (
                (* find blocker in path *)
                let blocker =
                  Array.to_list steps
                  |> List.find_opt (fun s -> s.cp_event.Schedsim.ev_id = prev_id)
                in
                match blocker with
                | Some b ->
                    ops := Move_non_key (b.cp_event.ev_task, b.cp_event.ev_core) :: !ops
                | None -> ())
            | _ -> ()
          end
          else ops := Migrate_delayed (e.ev_task, e.ev_core) :: !ops
      | _ -> ());
      ignore i)
    steps;
  List.sort_uniq compare !ops
