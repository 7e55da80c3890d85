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
    the core was) and *non-key* instances that delay key instances.

    Both passes read the simulator's int-array {!Schedsim.Trace}
    directly and keep the path as trace rows, so analysing a complete
    simulation builds no event records; {!path} and {!to_string} build
    them on demand. *)

module Ir = Bamboo_ir.Ir
module Trace = Schedsim.Trace

type step = {
  cp_event : Schedsim.event;
  cp_via : [ `Data of int | `Resource of int | `Start ];
      (* what pinned this event's start: producer event id, or the
         previous event id on the same core, or nothing *)
}

(** What pinned a path event's start. *)
type pin = Unpinned | Data_pin | Resource_pin

(** One event on a critical path: its trace row, what pinned its
    start, and the pinning event's id (-1 when [Unpinned]). *)
type node = { row : int; pin : pin; pinned_by : int }

(** A critical path over its trace.  The nodes are a list of small
    records, not arrays as long as the trace: those would be large
    blocks, allocated outside the minor heap on every analysis. *)
type t = {
  trace : Trace.t;
  nodes : node list;     (* first to last *)
  length : int;          (* finish time of the last event *)
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
  let tr = r.s_trace in
  let n = Trace.length tr in
  if n = 0 then { trace = tr; nodes = []; length = 0 }
  else begin
    (* Index rows by event id.  Event ids are dense: every started
       event finishes in a complete trace. *)
    let max_id = ref 0 in
    for row = 0 to n - 1 do
      max_id := max !max_id (Trace.id tr row)
    done;
    let row_of = Array.make (!max_id + 1) (-1) in
    for row = 0 to n - 1 do
      row_of.(Trace.id tr row) <- row
    done;
    (* Previous row on the same core.  A core runs one invocation at a
       time, so each core's rows are already in start order. *)
    let prev_on_core = Array.make n (-1) in
    let last_on_core = Array.make (Array.length r.s_per_core_busy) (-1) in
    for row = 0 to n - 1 do
      let c = Trace.core tr row in
      prev_on_core.(row) <- last_on_core.(c);
      last_on_core.(c) <- row
    done;
    (* Last-finishing row, the first of equals. *)
    let last = ref 0 in
    for row = 1 to n - 1 do
      if Trace.finish tr row > Trace.finish tr !last then last := row
    done;
    (* Walk back from it, consing each node onto the path. *)
    let nodes = ref [] and row = ref !last in
    while !row >= 0 do
      let cur = !row in
      (* The data pin is the first latest-arriving input that has a
         producer. *)
      let prod = ref (-1) and arrival = ref 0 in
      for i = 0 to Trace.input_count tr cur - 1 do
        let p = Trace.producer tr cur i and a = Trace.arrival tr cur i in
        if p >= 0 && (!prod < 0 || a > !arrival) then begin
          prod := p;
          arrival := a
        end
      done;
      let prev = prev_on_core.(cur) in
      (* The later constraint wins: if the core was still busy when the
         data arrived, the resource dependence pinned the start. *)
      let pin =
        if prev >= 0 && (!prod < 0 || Trace.finish tr prev >= !arrival) then Resource_pin
        else if !prod >= 0 then Data_pin
        else Unpinned
      in
      let by =
        match pin with Resource_pin -> Trace.id tr prev | Data_pin -> !prod | Unpinned -> -1
      in
      nodes := { row = cur; pin; pinned_by = by } :: !nodes;
      row := if by >= 0 && by <= !max_id then row_of.(by) else -1
    done;
    { trace = tr; nodes = !nodes; length = Trace.finish tr !last }
  end

(** The path's steps as records, first to last. *)
let path (cp : t) : step list =
  List.map
    (fun nd ->
      {
        cp_event = Trace.event cp.trace nd.row;
        cp_via =
          (match nd.pin with
          | Data_pin -> `Data nd.pinned_by
          | Resource_pin -> `Resource nd.pinned_by
          | Unpinned -> `Start);
      })
    cp.nodes

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
    data-pinned to it, and a resource-pinned step's blocker is the
    (non-key) step before it. *)
let opportunities (cp : t) : opportunity list =
  let tr = cp.trace in
  (* [prev] is the previous node's row, -1 before the first. *)
  let rec go prev acc = function
    | [] -> acc
    | nd :: rest ->
        let acc =
          (* Delayed instance: data ready strictly before the body
             start (beyond fixed dispatch overhead). *)
          if nd.pin = Resource_pin && Trace.start tr nd.row > Trace.ready tr nd.row then
            match rest with
            | next :: _ when next.pin = Data_pin && next.pinned_by = Trace.id tr nd.row ->
                (* A key task delayed by a resource: move the blocker. *)
                if prev >= 0 && Trace.id tr prev = nd.pinned_by then
                  Move_non_key (Trace.task tr prev, Trace.core tr prev) :: acc
                else acc
            | _ -> Migrate_delayed (Trace.task tr nd.row, Trace.core tr nd.row) :: acc
          else acc
        in
        go nd.row acc rest
  in
  List.sort_uniq compare (go (-1) [] cp.nodes)

(** Render the trace + critical path in the style of Figure 6. *)
let to_string (prog : Ir.program) (r : Schedsim.result) (cp : t) =
  let buf = Buffer.create 256 in
  let steps = path cp in
  let on_path id = List.exists (fun s -> s.cp_event.Schedsim.ev_id = id) steps in
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
    (Schedsim.events r);
  Buffer.contents buf
