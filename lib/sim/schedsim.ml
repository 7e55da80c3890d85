(** High-level scheduling simulator (§4.4) — dense fast path.

    Estimates how long a candidate layout will take to execute
    *without running any application code*: task durations, exit
    choices and allocation counts all come from the profile's Markov
    model.  Exit choice is the paper's deterministic count-matching
    rule — for each invocation the simulator picks the exit whose
    observed frequency lags its profiled probability the most.
    Allocation counts use fractional accumulators so long-run averages
    match the profile exactly.

    The simulator mirrors the runtime's cost structure (dispatch,
    locking, flag updates, message latency) so its estimates are
    comparable with real executions (Figure 9).

    This module is the throughput-oriented implementation:

    - a one-time {!prepare} step ({!Densify}) interns the program and
      profile into dense integer-indexed tables (compiled guards, tag
      masks, exit-action masks, consumer arrays, per-exit
      probabilities/durations/allocation averages), so the per-event
      path performs no [Hashtbl] lookups and no IR walks;
    - parameter sets are array-backed deques ({!Bamboo_support.Deque})
      with generation-stamped lazy deletion, replacing the reference
      path's [entry list ref] with its O(n) [@ [e]] appends and
      [List.filter] invalidation sweeps.  Entry validity is monotone
      (a token's guard state only changes together with a generation
      bump), so tombstoning an invalid entry on first sight is
      observably identical to the reference's eager sweeps;
    - [~cycle_bound] aborts a simulation with status [Bounded] as
      soon as the monotone high-water mark of simulated time exceeds
      the bound, which lets DSA prune layouts that provably cannot
      beat the incumbent.

    Results are bit-identical to the original list/Hashtbl
    implementation, kept as a test oracle ([test/schedsim_reference.ml]);
    the [sim.equivalence] suite diffs the two event by event on every
    benchmark. *)

module Cost = Bamboo_interp.Cost
module Machine = Bamboo_machine.Machine
module Layout = Bamboo_machine.Layout
module Profile = Bamboo_profile.Profile
module Pqueue = Bamboo_support.Pqueue
module Deque = Bamboo_support.Deque

(* Also re-exports [module Ir]. *)
include Sim_types

(** Dense tables compiled from a program + profile, shareable across
    any number of simulations (and across domains). *)
type prepared = Densify.t

let prepare = Densify.prepare

(* ------------------------------------------------------------------ *)
(* Dense state *)

let dummy_token =
  { tk_id = -1; tk_class = -1; tk_group = -1; tk_flags = 0; tk_tags = 0; tk_gen = min_int }

(* The deque tombstone.  [e_gen <> tk_gen] keeps it invalid even if it
   ever escaped; real entries are freshly allocated records, so they
   are never physically equal to it. *)
let dummy_entry = { e_tok = dummy_token; e_gen = max_int; e_producer = -1; e_arrival = -1 }

type dcore = {
  cid : int;
  mutable busy_until : int;
  mutable executing : bool;
  mutable ready_scheduled : bool;
  ready : invocation Queue.t;
  psets : entry Deque.t array array;
      (* task -> param -> deque; [||] for tasks not hosted on this core *)
  mutable finish_payload : (invocation * int * int * int) option;
      (* invocation, exit, event id, body start *)
}

type dstate = {
  d : Densify.t;
  machine : Machine.t;
  ncores : int;
  nsites : int;
  cores : dcore array;
  task_cores : int array array; (* task -> hosting cores (layout order) *)
  hosted : Bytes.t;             (* task * ncores + core -> '\001' if hosted *)
  events : sim_event Pqueue.t;
  exit_counts : int array array; (* task -> exit -> count *)
  inv_total : int array;         (* task -> total exits chosen (= sum of counts) *)
  rare_taken : int array;        (* task -> rare exits chosen *)
  alloc_acc : float array;       (* task * nsites + site: fractional accumulators *)
  rr : int array array;          (* task -> param -> round-robin counter *)
  mutable next_token : int;
  mutable next_event : int;
  mutable trace : event list;
  mutable invocations : int;
  max_invocations : int;
  mutable sim_events : int;
  mutable max_busy : int; (* monotone high-water mark of simulated time *)
}

(** All [busy_until] writes go through here so the state's high-water
    mark of simulated time stays exact — the pruning check in the main
    loop compares it against the caller's cycle bound. *)
let set_busy st core v =
  core.busy_until <- v;
  if v > st.max_busy then st.max_busy <- v

let entry_valid_d (dp : Densify.dparam) (e : entry) =
  e.e_gen = e.e_tok.tk_gen
  && Densify.param_satisfies dp ~flags:e.e_tok.tk_flags ~tags:e.e_tok.tk_tags

(* ------------------------------------------------------------------ *)
(* Routing (mirrors the runtime) *)

(** Destination core for routing [tk] to parameter [pidx] of task
    [tid], or -1 when the task is hosted nowhere.  The policy is
    {!Layout.route_core} (shared with both runtimes); the simulator's
    tag-hash key is the token's creation group — co-created
    (co-tagged) tokens share one — falling back to the token id for
    groupless tokens. *)
let route st tid pidx (tk : token) =
  Layout.route_core ~cores:st.task_cores.(tid)
    ~nparams:(Array.length st.d.Densify.d_tasks.(tid).dt_params)
    ~key:(if tk.tk_group >= 0 then tk.tk_group else tk.tk_id)
    ~rr:st.rr ~tid pidx

(* ------------------------------------------------------------------ *)
(* Parameter sets and invocation assembly *)

(** Backtracking assembly over the deques, equivalent to the reference
    path's search over eagerly filtered lists: slots are scanned in
    insertion order, invalid entries are tombstoned on sight (validity
    is monotone, so they can never become relevant again), and on
    success exactly the chosen slots are deleted. *)
let try_assemble st core tid =
  let dt = st.d.Densify.d_tasks.(tid) in
  let params = dt.Densify.dt_params in
  let nparams = Array.length params in
  if nparams = 0 then None
  else begin
    let sets = core.psets.(tid) in
    Array.iter Deque.maybe_compact sets;
    let tag_unified = dt.Densify.dt_tag_unified in
    let chosen = Array.make nparams (-1) in
    let chosen_e = Array.make nparams dummy_entry in
    let rec search pidx =
      if pidx = nparams then true
      else begin
        let set = sets.(pidx) in
        let dp = params.(pidx) in
        let len = Deque.length set in
        let rec scan i =
          if i >= len then false
          else if not (Deque.is_live set i) then scan (i + 1)
          else begin
            let e = Deque.get set i in
            if not (entry_valid_d dp e) then begin
              Deque.delete set i;
              scan (i + 1)
            end
            else begin
              let ok = ref true in
              for j = 0 to pidx - 1 do
                let e' = chosen_e.(j) in
                if
                  e'.e_tok == e.e_tok
                  || (tag_unified
                     && e'.e_tok.tk_group >= 0 && e.e_tok.tk_group >= 0
                     && e'.e_tok.tk_group <> e.e_tok.tk_group)
                then ok := false
              done;
              if not !ok then scan (i + 1)
              else begin
                chosen.(pidx) <- i;
                chosen_e.(pidx) <- e;
                if search (pidx + 1) then true
                else begin
                  chosen.(pidx) <- -1;
                  chosen_e.(pidx) <- dummy_entry;
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
      Some { iv_task = dt.Densify.dt_info; iv_entries = chosen_e }
    end
    else None
  end

let schedule_ready st core at =
  if not core.ready_scheduled then begin
    core.ready_scheduled <- true;
    Pqueue.push st.events ~prio:(max at core.busy_until) (Ready core.cid)
  end

let deliver st core (e : entry) now =
  let inserted = ref false in
  let consumers = st.d.Densify.d_consumers.(e.e_tok.tk_class) in
  for ci = 0 to Array.length consumers - 1 do
    let { Densify.dc_task = tid; dc_pidx = pidx } = consumers.(ci) in
    if Bytes.unsafe_get st.hosted ((tid * st.ncores) + core.cid) <> '\000' then begin
      let dp = st.d.Densify.d_tasks.(tid).dt_params.(pidx) in
      if entry_valid_d dp e then begin
        let set = core.psets.(tid).(pidx) in
        (* Duplicate suppression: only a currently valid entry can
           match ([e] is valid, so its generation is the token's
           current one), and valid entries are never tombstoned, so
           scanning live slots sees everything the reference sees. *)
        let dup = ref false in
        let len = Deque.length set in
        let i = ref 0 in
        while (not !dup) && !i < len do
          (if Deque.is_live set !i then begin
             let e' = Deque.get set !i in
             if e'.e_tok == e.e_tok && e'.e_gen = e.e_gen then dup := true
           end);
          incr i
        done;
        if not !dup then begin
          Deque.push set e;
          inserted := true;
          let rec drain () =
            match try_assemble st core tid with
            | Some inv ->
                Queue.add inv core.ready;
                drain ()
            | None -> ()
          in
          drain ()
        end
      end
    end
  done;
  if !inserted || not (Queue.is_empty core.ready) then schedule_ready st core now

(* ------------------------------------------------------------------ *)
(* Dispatch *)

let dispatch st ~from_core ~producer (tk : token) now =
  let send_cost = ref 0 in
  let consumers = st.d.Densify.d_consumers.(tk.tk_class) in
  for ci = 0 to Array.length consumers - 1 do
    let { Densify.dc_task = tid; dc_pidx = pidx } = consumers.(ci) in
    let dp = st.d.Densify.d_tasks.(tid).dt_params.(pidx) in
    if Densify.param_satisfies dp ~flags:tk.tk_flags ~tags:tk.tk_tags then begin
      let dst = route st tid pidx tk in
      if dst >= 0 then
        if dst = from_core then begin
          send_cost := !send_cost + Cost.enqueue;
          let e =
            { e_tok = tk; e_gen = tk.tk_gen; e_producer = producer; e_arrival = now + !send_cost }
          in
          deliver st st.cores.(dst) e (now + !send_cost)
        end
        else begin
          send_cost := !send_cost + Cost.message_send;
          let words = st.d.Densify.d_words.(tk.tk_class) in
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
        end
    end
  done;
  !send_cost

(* ------------------------------------------------------------------ *)
(* Markov model: exit choice, duration, allocations *)

(** Count-matching exit choice (§4.4); see [choose_exit] in the
    reference simulator for the full rationale.  The group
    probability, member shares, and per-task fallbacks are
    precomputed by {!Densify}; the per-task invocation and rare-group
    counters are maintained incrementally, so each call is O(1) when
    no rare exit is due and O(exits) when one is — against the
    reference's O(exits) probability recompute per call. *)
let choose_exit st tid =
  let dt = st.d.Densify.d_tasks.(tid) in
  let exits = dt.Densify.dt_exits in
  let counts = st.exit_counts.(tid) in
  let n = st.inv_total.(tid) in
  let p_rare = dt.Densify.dt_p_rare in
  let rare_taken = st.rare_taken.(tid) in
  let rare_due =
    p_rare > 0.0
    && int_of_float (floor ((p_rare *. float_of_int (n + 1)) +. 1e-9)) > rare_taken
  in
  let chosen =
    if rare_due then begin
      let k = rare_taken + 1 in
      let best = ref (-1) and best_deficit = ref 0 and best_p = ref 0.0 in
      for e = 0 to Array.length exits - 1 do
        let dx = exits.(e) in
        if dx.Densify.dx_rare then begin
          let expected =
            int_of_float (floor ((dx.Densify.dx_share *. float_of_int k) +. 1e-9))
          in
          let deficit = expected - counts.(e) in
          if
            deficit > !best_deficit
            || (deficit = !best_deficit && deficit > 0 && dx.Densify.dx_prob > !best_p)
          then begin
            best_deficit := deficit;
            best := e;
            best_p := dx.Densify.dx_prob
          end
        end
      done;
      if !best_deficit > 0 then !best else dt.Densify.dt_rare_fb
    end
    else if dt.Densify.dt_best_nonrare >= 0 then dt.Densify.dt_best_nonrare
    else dt.Densify.dt_best_any
  in
  if chosen = -1 then None (* task never profiled *)
  else begin
    counts.(chosen) <- counts.(chosen) + 1;
    st.inv_total.(tid) <- n + 1;
    if exits.(chosen).Densify.dx_rare then st.rare_taken.(tid) <- rare_taken + 1;
    Some chosen
  end

(** Expected allocations for (task, exit): deterministic integer counts
    whose long-run average equals the profiled mean. *)
let allocations st tid exit_id =
  let dx = st.d.Densify.d_tasks.(tid).Densify.dt_exits.(exit_id) in
  let out = ref [] in
  Array.iter
    (fun (sid, avg) ->
      let idx = (tid * st.nsites) + sid in
      let acc = st.alloc_acc.(idx) +. avg in
      let k = int_of_float (floor acc) in
      st.alloc_acc.(idx) <- acc -. float_of_int k;
      if k > 0 then out := (sid, k) :: !out)
    dx.Densify.dx_alloc;
  List.rev !out

let new_token st sid ~group =
  let id = st.next_token in
  st.next_token <- id + 1;
  {
    tk_id = id;
    tk_class = st.d.Densify.d_site_class.(sid);
    tk_group = group;
    tk_flags = st.d.Densify.d_site_flags.(sid);
    tk_tags = st.d.Densify.d_site_tags.(sid);
    tk_gen = 0;
  }

(* ------------------------------------------------------------------ *)
(* Core loop *)

let invocation_fresh st (inv : invocation) =
  let params = st.d.Densify.d_tasks.(inv.iv_task.t_id).Densify.dt_params in
  let ok = ref true in
  Array.iteri
    (fun pidx e -> if not (entry_valid_d params.(pidx) e) then ok := false)
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
          let tid = inv.iv_task.t_id in
          let params = st.d.Densify.d_tasks.(tid).Densify.dt_params in
          if not (invocation_fresh st inv) then
            Array.iteri
              (fun pidx e -> if entry_valid_d params.(pidx) e then deliver st core e !t)
              inv.iv_entries
          else begin
            t := !t + Cost.dispatch + (Cost.lock_op * Array.length inv.iv_entries);
            match choose_exit st tid with
            | None ->
                (* Unprofiled task: consume entries with no effect. *)
                ()
            | Some exit_id ->
                st.invocations <- st.invocations + 1;
                if st.invocations > st.max_invocations then
                  raise (Sim_overrun "simulation invocation budget exceeded");
                let dur = st.d.Densify.d_tasks.(tid).Densify.dt_exits.(exit_id).Densify.dx_dur in
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
      let tid = inv.iv_task.t_id in
      let dx = st.d.Densify.d_tasks.(tid).Densify.dt_exits.(exit_id) in
      (* Record the trace event. *)
      let ready = Array.fold_left (fun acc e -> max acc e.e_arrival) 0 inv.iv_entries in
      st.trace <-
        {
          ev_id;
          ev_core = core.cid;
          ev_task = tid;
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
          let flags, tags =
            Densify.apply_act dx.Densify.dx_actions.(pidx) ~flags:tk.tk_flags ~tags:tk.tk_tags
          in
          tk.tk_flags <- flags;
          tk.tk_tags <- tags;
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
            let tk = new_token st sid ~group:ev_id in
            t := !t + dispatch st ~from_core:core.cid ~producer:ev_id tk !t
          done)
        (allocations st tid exit_id);
      set_busy st core !t;
      schedule_ready st core !t

(* ------------------------------------------------------------------ *)
(* Entry points *)

(** Simulate [layout] against pre-compiled tables.  With
    [~cycle_bound:b], the simulation is abandoned with status
    [Bounded b] as soon as simulated time provably exceeds [b]
    (simulated time is monotone, so the true total is > [b]). *)
let simulate_prepared ?cycle_bound ?(max_invocations = 500_000) (d : prepared)
    (layout : Layout.t) : result =
  let ntasks = Densify.ntasks d in
  let machine = layout.Layout.machine in
  let ncores = machine.Machine.cores in
  let task_cores = Array.init ntasks (fun tid -> Layout.cores_of layout tid) in
  let hosted = Bytes.make (ntasks * ncores) '\000' in
  Array.iteri
    (fun tid cores -> Array.iter (fun c -> Bytes.set hosted ((tid * ncores) + c) '\001') cores)
    task_cores;
  let make_core cid =
    {
      cid;
      busy_until = 0;
      executing = false;
      ready_scheduled = false;
      ready = Queue.create ();
      psets =
        Array.init ntasks (fun tid ->
            if Bytes.get hosted ((tid * ncores) + cid) <> '\000' then
              Array.init
                (Array.length d.Densify.d_tasks.(tid).Densify.dt_params)
                (fun _ -> Deque.create ~dummy:dummy_entry)
            else [||]);
      finish_payload = None;
    }
  in
  let st =
    {
      d;
      machine;
      ncores;
      nsites = Densify.nsites d;
      cores = Array.init ncores make_core;
      task_cores;
      hosted;
      events = Pqueue.create ~dummy:(Ready 0);
      exit_counts =
        Array.map
          (fun (dt : Densify.dtask) -> Array.make (Array.length dt.Densify.dt_exits) 0)
          d.Densify.d_tasks;
      inv_total = Array.make ntasks 0;
      rare_taken = Array.make ntasks 0;
      alloc_acc = Array.make (ntasks * Densify.nsites d) 0.0;
      rr =
        Array.map
          (fun (dt : Densify.dtask) -> Array.make (Array.length dt.Densify.dt_params) 0)
          d.Densify.d_tasks;
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
      tk_class = d.Densify.d_prog.startup;
      tk_group = -1;
      tk_flags = d.Densify.d_boot_flags;
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

(** Estimate the execution of [prog] under [layout] using [profile]'s
    Markov model.  One-shot convenience around {!prepare} +
    {!simulate_prepared}; callers scoring many layouts (the
    evaluation engine) should prepare once and reuse the tables. *)
let simulate ?cycle_bound ?max_invocations (prog : Ir.program) (profile : Profile.t)
    (layout : Layout.t) : result =
  simulate_prepared ?cycle_bound ?max_invocations (prepare prog profile) layout
