(** Test oracle: the reference scheduling simulator, the original
    list/Hashtbl implementation of §4.4, kept verbatim as the
    equivalence oracle for [Schedsim]'s dense fast path.

    The two implementations must produce bit-identical
    [Sim_types.result] values for the same inputs; the [sim.equivalence]
    suite diffs them event by event on every benchmark.

    Per-event cost here is dominated by the [entry list ref] parameter
    sets ([@ [e]] appends, [List.filter] sweeps) and Hashtbl lookups
    keyed on task ids — exactly what the fast path replaces.  Keep
    this file boring: any behavioural change must be mirrored in
    [lib/sim/schedsim.ml] and will be caught by the equivalence suite. *)

module Ir = Bamboo_ir.Ir
module Cost = Bamboo_interp.Cost
module Machine = Bamboo_machine.Machine
module Layout = Bamboo_machine.Layout
module Profile = Bamboo_profile.Profile
module Astg = Bamboo_analysis.Astg
module Pqueue = Bamboo_support.Pqueue
open Bamboo_sim.Sim_types

type core = {
  cid : int;
  mutable busy_until : int;
  mutable executing : bool;
  mutable ready_scheduled : bool;
  ready : invocation Queue.t;
  psets : (Ir.task_id, entry list ref array) Hashtbl.t;
  mutable finish_payload : (invocation * int * int * int) option;
      (* invocation, exit, event id, body start *)
}

type state = {
  prog : Ir.program;
  layout : Layout.t;
  profile : Profile.t;
  machine : Machine.t;
  cores : core array;
  events : sim_event Pqueue.t;
  consumer_table : (Ir.taskinfo * int) list array; (* class -> (task, pidx) *)
  exit_counts : int array array;                   (* task -> exit -> count *)
  alloc_acc : (int * Ir.site_id, float) Hashtbl.t; (* fractional allocation accumulators *)
  rr : (int * int, int) Hashtbl.t;
  mutable next_token : int;
  mutable next_event : int;
  mutable trace : event list;
  mutable invocations : int;
  max_invocations : int;
  mutable sim_events : int;
  mutable max_busy : int; (* monotone high-water mark of simulated time *)
}

let astate_of_token (tk : token) : Astg.astate = { as_flags = tk.tk_flags; as_tags = tk.tk_tags }

let satisfies (p : Ir.paraminfo) tk = Astg.astate_satisfies p (astate_of_token tk)

let make_core cid =
  {
    cid;
    busy_until = 0;
    executing = false;
    ready_scheduled = false;
    ready = Queue.create ();
    psets = Hashtbl.create 8;
    finish_payload = None;
  }

(** All [busy_until] writes go through here so the state's high-water
    mark of simulated time stays exact — the pruning check in the main
    loop compares it against the caller's cycle bound. *)
let set_busy st core v =
  core.busy_until <- v;
  if v > st.max_busy then st.max_busy <- v

let build_consumer_table (prog : Ir.program) =
  let table = Array.make (Array.length prog.classes) [] in
  Array.iter
    (fun (t : Ir.taskinfo) ->
      Array.iteri (fun pidx (p : Ir.paraminfo) -> table.(p.p_class) <- (t, pidx) :: table.(p.p_class)) t.t_params)
    prog.tasks;
  Array.map List.rev table

(* ------------------------------------------------------------------ *)
(* Routing (mirrors the runtime) *)

let route st (task : Ir.taskinfo) pidx (tk : token) =
  let cores = Layout.cores_of st.layout task.t_id in
  let n = Array.length cores in
  if n = 0 then None
  else if n = 1 then Some cores.(0)
  else if Array.length task.t_params > 1 then
    (* Tag-hash routing: co-created (co-tagged) tokens share a hash. *)
    Some cores.((if tk.tk_group >= 0 then tk.tk_group else tk.tk_id) mod n)
  else begin
    let key = (task.t_id, pidx) in
    let c = Option.value (Hashtbl.find_opt st.rr key) ~default:0 in
    Hashtbl.replace st.rr key (c + 1);
    Some cores.(c mod n)
  end

(* ------------------------------------------------------------------ *)
(* Parameter sets *)

let psets_for core (task : Ir.taskinfo) =
  match Hashtbl.find_opt core.psets task.t_id with
  | Some s -> s
  | None ->
      let s = Array.init (Array.length task.t_params) (fun _ -> ref []) in
      Hashtbl.replace core.psets task.t_id s;
      s

let entry_valid (p : Ir.paraminfo) e = e.e_gen = e.e_tok.tk_gen && satisfies p e.e_tok

let try_assemble core (task : Ir.taskinfo) =
  let sets = psets_for core task in
  let nparams = Array.length task.t_params in
  (* When every parameter is tag-constrained the runtime unifies tag
     instances across parameters; the abstraction requires matching
     token groups instead. *)
  let tag_unified =
    nparams > 1 && Array.for_all (fun (p : Ir.paraminfo) -> p.p_tags <> []) task.t_params
  in
  Array.iteri (fun i set -> set := List.filter (entry_valid task.t_params.(i)) !set) sets;
  let chosen = Array.make nparams None in
  let rec search pidx =
    if pidx = nparams then true
    else
      let rec try_entries = function
        | [] -> false
        | e :: rest ->
            let distinct =
              Array.for_all (function Some e' -> e'.e_tok != e.e_tok | None -> true) chosen
            in
            let groups_ok =
              (not tag_unified)
              || Array.for_all
                   (function
                     | Some e' ->
                         e'.e_tok.tk_group < 0 || e.e_tok.tk_group < 0
                         || e'.e_tok.tk_group = e.e_tok.tk_group
                     | None -> true)
                   chosen
            in
            if not (distinct && groups_ok) then try_entries rest
            else begin
              chosen.(pidx) <- Some e;
              if search (pidx + 1) then true
              else begin
                chosen.(pidx) <- None;
                try_entries rest
              end
            end
      in
      try_entries !(sets.(pidx))
  in
  if nparams = 0 then None
  else if search 0 then begin
    let entries = Array.map (function Some e -> e | None -> assert false) chosen in
    Array.iteri (fun i set -> set := List.filter (fun e -> e != entries.(i)) !set) sets;
    Some { iv_task = task; iv_entries = entries }
  end
  else None

let schedule_ready st core at =
  if not core.ready_scheduled then begin
    core.ready_scheduled <- true;
    Pqueue.push st.events ~prio:(max at core.busy_until) (Ready core.cid)
  end

let deliver st core (e : entry) now =
  let inserted = ref false in
  List.iter
    (fun ((task : Ir.taskinfo), pidx) ->
      if Array.exists (fun c -> c = core.cid) (Layout.cores_of st.layout task.t_id) then
        if entry_valid task.t_params.(pidx) e then begin
          let sets = psets_for core task in
          let dup =
            List.exists (fun e' -> e'.e_tok == e.e_tok && e'.e_gen = e.e_gen) !(sets.(pidx))
          in
          if not dup then begin
            sets.(pidx) := !(sets.(pidx)) @ [ e ];
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
    st.consumer_table.(e.e_tok.tk_class);
  if !inserted || not (Queue.is_empty core.ready) then schedule_ready st core now

(* ------------------------------------------------------------------ *)
(* Dispatch *)

let dispatch st ~from_core ~producer (tk : token) now =
  let send_cost = ref 0 in
  List.iter
    (fun ((task : Ir.taskinfo), pidx) ->
      if satisfies task.t_params.(pidx) tk then
        match route st task pidx tk with
        | None -> ()
        | Some dst ->
            if dst = from_core then begin
              send_cost := !send_cost + Cost.enqueue;
              let e =
                { e_tok = tk; e_gen = tk.tk_gen; e_producer = producer; e_arrival = now + !send_cost }
              in
              deliver st st.cores.(dst) e (now + !send_cost)
            end
            else begin
              send_cost := !send_cost + Cost.message_send;
              let words = Array.length (Ir.class_of st.prog tk.tk_class).c_fields + 2 in
              let lat = Machine.transfer_latency st.machine ~src:from_core ~dst ~words in
              let e =
                {
                  e_tok = tk;
                  e_gen = tk.tk_gen;
                  e_producer = producer;
                  e_arrival = now + !send_cost + lat;
                }
              in
              Pqueue.push st.events ~prio:e.e_arrival (Arrive (dst, e))
            end)
    st.consumer_table.(tk.tk_class);
  !send_cost

(* ------------------------------------------------------------------ *)
(* Markov model: exit choice, duration, allocations *)

(** Count-matching exit choice (§4.4): deterministically pick the
    exit whose observed frequency lags the profile's prediction.

    Exit phase matters more than long-run frequency for
    round-structured programs: merge-style tasks take a rare
    "round-boundary" exit exactly every k-th invocation (k = number
    of producers in the round), and a simulator that fires that exit
    early or late stalls — the round's remaining tokens are either
    stranded or never produced.  We therefore treat all *rare* exits
    (p <= 1/2) as one group with combined probability P: the group
    fires exactly when [floor (P * (n+1))] exceeds the number of rare
    exits taken so far — i.e. with period 1/P and the right phase —
    and the member with the largest individual count deficit is
    chosen.  Otherwise the most probable non-rare exit is taken.  For
    a task whose rare exits partition a round (e.g. 9 "next round" +
    1 "finished" over 10 rounds of 124 merges) this reproduces the
    program's exact exit schedule. *)
let choose_exit st (task : Ir.taskinfo) =
  let counts = st.exit_counts.(task.t_id) in
  let nexits = Array.length task.t_exits in
  let probs = Array.init nexits (fun e -> Profile.exit_prob st.profile task.t_id e) in
  let n = Array.fold_left ( + ) 0 counts in
  let p_rare = ref 0.0 in
  let rare_taken = ref 0 in
  Array.iteri
    (fun e p ->
      if p > 0.0 && p <= 0.5 then begin
        p_rare := !p_rare +. p;
        rare_taken := !rare_taken + counts.(e)
      end)
    probs;
  let rare_due =
    !p_rare > 0.0
    && int_of_float (floor ((!p_rare *. float_of_int (n + 1)) +. 1e-9)) > !rare_taken
  in
  let chosen =
    if rare_due then begin
      (* Member choice uses the same integer-deficit rule over the
         member's share of group firings, so a member with share 1/r
         fires exactly every r-th boundary; with no integer deficit
         the most probable member is taken. *)
      let k = !rare_taken + 1 in
      let best = ref (-1) and best_deficit = ref 0 and best_p = ref 0.0 in
      let fb = ref (-1) and fb_p = ref 0.0 in
      Array.iteri
        (fun e p ->
          if p > 0.0 && p <= 0.5 then begin
            let share = p /. !p_rare in
            let expected = int_of_float (floor ((share *. float_of_int k) +. 1e-9)) in
            let deficit = expected - counts.(e) in
            if deficit > !best_deficit || (deficit = !best_deficit && deficit > 0 && p > !best_p)
            then begin
              best_deficit := deficit;
              best := e;
              best_p := p
            end;
            if p > !fb_p then begin
              fb_p := p;
              fb := e
            end
          end)
        probs;
      if !best_deficit > 0 then !best else !fb
    end
    else begin
      (* Most probable non-rare exit; if every exit is rare (and the
         group is not due), fall back to the most probable exit. *)
      let best = ref (-1) and best_p = ref 0.0 in
      Array.iteri
        (fun e p ->
          if p > 0.5 && p > !best_p then begin
            best_p := p;
            best := e
          end)
        probs;
      if !best >= 0 then !best
      else begin
        let any = ref (-1) and any_p = ref 0.0 in
        Array.iteri
          (fun e p ->
            if p > !any_p then begin
              any_p := p;
              any := e
            end)
          probs;
        !any
      end
    end
  in
  if chosen = -1 then None (* task never profiled *)
  else begin
    counts.(chosen) <- counts.(chosen) + 1;
    Some chosen
  end

(** Expected allocations for (task, exit): deterministic integer counts
    whose long-run average equals the profiled mean. *)
let allocations st (task : Ir.taskinfo) exit_id =
  let xs = st.profile.p_tasks.(task.t_id).ts_exits.(exit_id) in
  List.filter_map
    (fun (sid, _total) ->
      let avg = Profile.exit_avg_alloc st.profile task.t_id exit_id sid in
      let key = (task.t_id, sid) in
      let acc = Option.value (Hashtbl.find_opt st.alloc_acc key) ~default:0.0 +. avg in
      let k = int_of_float (floor acc) in
      Hashtbl.replace st.alloc_acc key (acc -. float_of_int k);
      if k > 0 then Some (sid, k) else None)
    xs.xs_alloc

let new_token st (site : Ir.siteinfo) ~group =
  let id = st.next_token in
  st.next_token <- id + 1;
  {
    tk_id = id;
    tk_class = site.s_class;
    tk_group = group;
    tk_flags = Ir.site_initial_word site;
    tk_tags = Astg.site_tag_bits st.prog site;
    tk_gen = 0;
  }

(* ------------------------------------------------------------------ *)
(* Core loop *)

let invocation_fresh (inv : invocation) =
  let ok = ref true in
  Array.iteri
    (fun pidx e -> if not (entry_valid inv.iv_task.t_params.(pidx) e) then ok := false)
    inv.iv_entries;
  !ok

let core_ready st core now =
  core.ready_scheduled <- false;
  if not core.executing then begin
    let t = ref (max now core.busy_until) in
    let n = Queue.length core.ready in
    let started = ref false in
    let i = ref 0 in
    while (not !started) && !i < n do
      incr i;
      match Queue.take_opt core.ready with
      | None -> i := n
      | Some inv ->
          if not (invocation_fresh inv) then
            Array.iteri
              (fun pidx e ->
                if entry_valid inv.iv_task.t_params.(pidx) e then deliver st core e !t)
              inv.iv_entries
          else begin
            t := !t + Cost.dispatch + (Cost.lock_op * Array.length inv.iv_entries);
            match choose_exit st inv.iv_task with
            | None ->
                (* Unprofiled task: consume entries with no effect. *)
                ()
            | Some exit_id ->
                st.invocations <- st.invocations + 1;
                if st.invocations > st.max_invocations then
                  raise (Sim_overrun "simulation invocation budget exceeded");
                let dur =
                  int_of_float (Float.round (Profile.exit_avg_cycles st.profile inv.iv_task.t_id exit_id))
                in
                let finish = !t + dur in
                let ev_id = st.next_event in
                st.next_event <- ev_id + 1;
                core.executing <- true;
                core.finish_payload <- Some (inv, exit_id, ev_id, !t);
                set_busy st core finish;
                started := true;
                Pqueue.push st.events ~prio:finish (Finish core.cid)
          end
    done;
    if not !started then set_busy st core (max core.busy_until !t)
  end

let core_finish st core now =
  match core.finish_payload with
  | None -> ()
  | Some (inv, exit_id, ev_id, body_start) ->
      core.finish_payload <- None;
      core.executing <- false;
      let task = inv.iv_task in
      (* Record the trace event. *)
      let ready =
        Array.fold_left (fun acc e -> max acc e.e_arrival) 0 inv.iv_entries
      in
      st.trace <-
        {
          ev_id;
          ev_core = core.cid;
          ev_task = task.t_id;
          ev_exit = exit_id;
          ev_ready = ready;
          ev_start = body_start;
          ev_finish = now;
          ev_inputs = Array.map (fun e -> (e.e_producer, e.e_arrival)) inv.iv_entries;
        }
        :: st.trace;
      (* Apply abstract state transitions to consumed tokens. *)
      Array.iteri
        (fun pidx e ->
          let tk = e.e_tok in
          let s' = Astg.apply_actions st.prog task exit_id pidx (astate_of_token tk) in
          tk.tk_flags <- s'.as_flags;
          tk.tk_tags <- s'.as_tags;
          tk.tk_gen <- tk.tk_gen + 1)
        inv.iv_entries;
      let t = ref (now + Cost.flag_update) in
      Array.iter
        (fun e -> t := !t + dispatch st ~from_core:core.cid ~producer:ev_id e.e_tok !t)
        inv.iv_entries;
      (* Emit newly allocated tokens. *)
      List.iter
        (fun (sid, k) ->
          for _ = 1 to k do
            let tk = new_token st st.prog.sites.(sid) ~group:ev_id in
            t := !t + dispatch st ~from_core:core.cid ~producer:ev_id tk !t
          done)
        (allocations st task exit_id);
      set_busy st core !t;
      schedule_ready st core !t

(* ------------------------------------------------------------------ *)
(* Entry point *)

(** Estimate the execution of [prog] under [layout] using [profile]'s
    Markov model.  With [~cycle_bound:b], the simulation is abandoned
    with status [Bounded b] as soon as simulated time provably exceeds
    [b] (simulated time is monotone, so the true total is > [b]). *)
let simulate ?cycle_bound ?(max_invocations = 500_000) (prog : Ir.program)
    (profile : Profile.t) (layout : Layout.t) : result =
  let st =
    {
      prog;
      layout;
      profile;
      machine = layout.Layout.machine;
      cores = Array.init layout.Layout.machine.Machine.cores make_core;
      events = Pqueue.create ~dummy:(Ready 0);
      consumer_table = build_consumer_table prog;
      exit_counts =
        Array.map (fun (t : Ir.taskinfo) -> Array.make (Array.length t.t_exits) 0) prog.tasks;
      alloc_acc = Hashtbl.create 32;
      rr = Hashtbl.create 16;
      next_token = 0;
      next_event = 0;
      trace = [];
      invocations = 0;
      max_invocations;
      sim_events = 0;
      max_busy = 0;
    }
  in
  (* Boot token: the startup object in {initialstate}. *)
  let boot =
    {
      tk_id = st.next_token;
      tk_class = prog.startup;
      tk_group = -1;
      tk_flags =
        (match Ir.flag_index (Ir.class_of prog prog.startup) "initialstate" with
        | Some bit -> 1 lsl bit
        | None -> 0);
      tk_tags = 0;
      tk_gen = 0;
    }
  in
  st.next_token <- st.next_token + 1;
  ignore (dispatch st ~from_core:0 ~producer:(-1) boot 0);
  let bound = match cycle_bound with Some b -> b | None -> max_int in
  let pruned = ref false in
  let rec loop () =
    match Pqueue.pop st.events with
    | None -> ()
    | Some (now, ev) ->
        st.sim_events <- st.sim_events + 1;
        (match ev with
        | Arrive (c, e) -> deliver st st.cores.(c) e now
        | Ready c -> core_ready st st.cores.(c) now
        | Finish c -> core_finish st st.cores.(c) now);
        if st.max_busy > bound then pruned := true else loop ()
  in
  loop ();
  let total = Array.fold_left (fun acc c -> max acc c.busy_until) 0 st.cores in
  {
    s_total_cycles = total;
    s_invocations = st.invocations;
    s_events = Array.of_list (List.rev st.trace);
    s_per_core_busy = Array.map (fun c -> c.busy_until) st.cores;
    s_status = (if !pruned then Bounded bound else Complete);
    s_sim_events = st.sim_events;
  }
