(** Test oracle: the critical-path opportunity pass as it stood before
    the linear rewrite in [Critpath.opportunities] — quadratic in the
    path length (a [List.mem] over key ids per step, a scan of the path
    per blocker) but written straight from the definitions of key
    events and blockers.  Kept verbatim so the [sim.critpath] suite can
    check the production pass against it. *)

open Bamboo.Critpath
module Schedsim = Bamboo.Schedsim

(** Key events on the path: those whose output is consumed by the next
    path event (data edge). *)
let key_event_ids (cp : t) =
  let rec go = function
    | a :: ({ cp_via = `Data p; _ } :: _ as rest) when a.cp_event.Schedsim.ev_id = p ->
        a.cp_event.Schedsim.ev_id :: go rest
    | _ :: rest -> go rest
    | [] -> []
  in
  go cp.path

(** Extract optimization opportunities from a critical path, grouped
    by data-dependence resolution time as in the paper. *)
let opportunities (cp : t) : opportunity list =
  let keys = key_event_ids cp in
  let ops = ref [] in
  let steps = Array.of_list cp.path in
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
