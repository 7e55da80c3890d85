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

    {b Allocation.}  The event loop allocates only what a simulated
    execution creates: tokens, parameter-set entries, [Arrive]
    messages, and an assembled invocation with its entry array and
    ready-queue cell.  Everything else is reused for the whole
    simulation: the event heap is unboxed ({!Bamboo_support.Pqueue}),
    each core owns its one [Ready] and one [Finish] event and keeps
    the running invocation in mutable fields, assembly searches with
    per-simulation scratch arrays and top-level recursive functions
    (no closures), "none" is a [-1] sentinel rather than an option,
    and the trace is recorded into [int] arrays ({!Trace}) that grow
    with the rows recorded.  Over the multi-start searches of
    Tracking and KMeans, everything included, about 16 and 13 words
    are allocated per simulated event (DESIGN.md §8); the [sim.alloc]
    suite holds a ceiling on the simulator's share.
    All of this state belongs to one simulation: the simulator keeps
    nothing global or per domain.

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
  mutable executing : bool;     (* a body is running; [run_*] describe it *)
  mutable ready_scheduled : bool;
  ready : invocation Queue.t;
  psets : entry Deque.t array array;
      (* task -> param -> deque; [||] for tasks not hosted on this core *)
  ready_ev : sim_event;         (* this core's [Ready], pushed again and again *)
  finish_ev : sim_event;        (* this core's [Finish] *)
  mutable run_task : int;
  mutable run_entries : entry array;
  mutable run_exit : int;
  mutable run_id : int;         (* event id *)
  mutable run_start : int;      (* body start *)
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
  chosen : int array;            (* assembly scratch: param -> chosen deque slot *)
  chosen_e : entry array;        (* assembly scratch: param -> chosen entry *)
  trace : Trace.t;
  mutable next_token : int;
  mutable next_event : int;
  mutable invocations : int;
  max_invocations : int;
  mutable sim_events : int;
  mutable max_busy : int; (* monotone high-water mark of simulated time *)
}

(* [max] on ints without the polymorphic comparison [Stdlib.max] makes. *)
let imax (a : int) b = if a >= b then a else b

(** All [busy_until] writes go through here so the state's high-water
    mark of simulated time stays exact — the pruning check in the main
    loop compares it against the caller's cycle bound. *)
let set_busy st core v =
  core.busy_until <- v;
  if v > st.max_busy then st.max_busy <- v

(* ------------------------------------------------------------------ *)
(* Guards and exit actions over {!Densify}'s compiled tables, evaluated
   in this module so that the per-event calls can be inlined. *)

let eval_guard (g : Densify.guard) word =
  match g with
  | Densify.Gtree exp -> Ir.eval_flagexp exp word
  | Densify.Gtable { bits; tbl } ->
      let i = ref 0 in
      for k = 0 to Array.length bits - 1 do
        if word land (1 lsl bits.(k)) <> 0 then i := !i lor (1 lsl k)
      done;
      Bytes.unsafe_get tbl !i <> '\000'

(** Dense equivalent of [Astg.astate_satisfies] on a token's state. *)
let param_satisfies (p : Densify.dparam) ~flags ~tags =
  eval_guard p.dp_guard flags && tags land p.dp_tagmask = p.dp_tagmask

(** A token's flag word and tag bits after exit action [a]. *)
let act_flags (a : Densify.dact) flags = (flags lor a.da_fset) land lnot a.da_fclear
let act_tags (a : Densify.dact) tags = (tags lor a.da_tadd) land lnot a.da_tclear

let entry_valid_d (dp : Densify.dparam) (e : entry) =
  e.e_gen = e.e_tok.tk_gen && param_satisfies dp ~flags:e.e_tok.tk_flags ~tags:e.e_tok.tk_tags

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

(* The scans below run on every delivery and every assembly attempt,
   and read a deque's [buf] and [len] directly rather than through
   [Deque.get]/[Deque.is_live]: dune's default profile compiles the
   library without cross-module inlining, and those calls cost as much
   as the scan.  A slot holding the deque's [dummy] is a tombstone. *)

(* Would [e] join the entries already chosen for parameters [0, j]?
   Not if it is one of their tokens, or if the task is tag-unified and
   [e] belongs to another creation group than one of them. *)
let rec conflicts st ~tag_unified (e : entry) j =
  j >= 0
  && (let e' = st.chosen_e.(j) in
      e'.e_tok == e.e_tok
      || (tag_unified
         && e'.e_tok.tk_group >= 0 && e.e_tok.tk_group >= 0
         && e'.e_tok.tk_group <> e.e_tok.tk_group)
      || conflicts st ~tag_unified e (j - 1))

(** Backtracking assembly over the deques, equivalent to the reference
    path's search over eagerly filtered lists: slots are scanned in
    insertion order, and invalid entries are tombstoned on sight
    (validity is monotone, so they can never become relevant again).
    [search] fills [st.chosen]/[st.chosen_e] from parameter [pidx] on;
    [scan] tries parameter [pidx]'s slots from [i] on. *)
let rec search st (dt : Densify.dtask) sets pidx =
  pidx = Array.length dt.dt_params || scan st dt sets pidx 0

and scan st dt sets pidx i =
  let set = sets.(pidx) in
  if i >= set.Deque.len then false
  else begin
    let e = set.Deque.buf.(i) in
    if e == set.Deque.dummy then scan st dt sets pidx (i + 1)
    else if not (entry_valid_d dt.dt_params.(pidx) e) then begin
      Deque.delete set i;
      scan st dt sets pidx (i + 1)
    end
    else if conflicts st ~tag_unified:dt.dt_tag_unified e (pidx - 1) then
      scan st dt sets pidx (i + 1)
    else begin
      st.chosen.(pidx) <- i;
      st.chosen_e.(pidx) <- e;
      search st dt sets (pidx + 1) || scan st dt sets pidx (i + 1)
    end
  end

(** Assemble one invocation of [tid] on [core] if its parameter sets
    allow: delete exactly the chosen slots and queue the invocation. *)
let try_assemble st core tid =
  let dt = st.d.Densify.d_tasks.(tid) in
  let nparams = Array.length dt.Densify.dt_params in
  nparams > 0
  && begin
    let sets = core.psets.(tid) in
    for pidx = 0 to nparams - 1 do
      Deque.maybe_compact sets.(pidx)
    done;
    search st dt sets 0
    && begin
      for pidx = 0 to nparams - 1 do
        Deque.delete sets.(pidx) st.chosen.(pidx)
      done;
      Queue.add
        { iv_task = dt.Densify.dt_info; iv_entries = Array.sub st.chosen_e 0 nparams }
        core.ready;
      true
    end
  end

let schedule_ready st core at =
  if not core.ready_scheduled then begin
    core.ready_scheduled <- true;
    Pqueue.push st.events ~prio:(imax at core.busy_until) core.ready_ev
  end

(* Does [set] hold a live entry for [e]'s token at [e]'s generation?
   (The tombstone's token is no real entry's.) *)
let rec holds set (e : entry) i =
  i < set.Deque.len
  && (let e' = set.Deque.buf.(i) in
      (e'.e_tok == e.e_tok && e'.e_gen = e.e_gen) || holds set e (i + 1))

let deliver st core (e : entry) now =
  let inserted = ref false in
  let consumers = st.d.Densify.d_consumers.(e.e_tok.tk_class) in
  for ci = 0 to Array.length consumers - 1 do
    let { Densify.dc_task = tid; dc_pidx = pidx } = consumers.(ci) in
    if Bytes.unsafe_get st.hosted ((tid * st.ncores) + core.cid) <> '\000' then begin
      let dp = st.d.Densify.d_tasks.(tid).dt_params.(pidx) in
      let set = core.psets.(tid).(pidx) in
      (* Duplicate suppression: only a currently valid entry can
         match ([e] is valid, so its generation is the token's
         current one), and valid entries are never tombstoned, so
         scanning live slots sees everything the reference sees. *)
      if entry_valid_d dp e && not (holds set e 0) then begin
        Deque.push set e;
        inserted := true;
        while try_assemble st core tid do
          ()
        done
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
    if param_satisfies dp ~flags:tk.tk_flags ~tags:tk.tk_tags then begin
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
    reference's O(exits) probability recompute per call.  Returns -1
    for a task that was never profiled. *)
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
  if chosen >= 0 then begin
    counts.(chosen) <- counts.(chosen) + 1;
    st.inv_total.(tid) <- n + 1;
    if exits.(chosen).Densify.dx_rare then st.rare_taken.(tid) <- rare_taken + 1
  end;
  chosen

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

let rec entries_valid (params : Densify.dparam array) (entries : entry array) pidx =
  pidx = Array.length entries
  || (entry_valid_d params.(pidx) entries.(pidx) && entries_valid params entries (pidx + 1))

let core_ready st core now =
  core.ready_scheduled <- false;
  if not core.executing then begin
    let t = ref (imax now core.busy_until) in
    let n = Queue.length core.ready in
    let i = ref 0 in
    (* At most the [n] invocations queued on entry: a stale one's
       entries are re-delivered and may queue new ones behind them. *)
    while (not core.executing) && !i < n do
      incr i;
      let inv = Queue.take core.ready in
      let tid = inv.iv_task.t_id in
      let params = st.d.Densify.d_tasks.(tid).Densify.dt_params in
      let entries = inv.iv_entries in
      if not (entries_valid params entries 0) then begin
        for pidx = 0 to Array.length entries - 1 do
          if entry_valid_d params.(pidx) entries.(pidx) then deliver st core entries.(pidx) !t
        done
      end
      else begin
        t := !t + Cost.dispatch + (Cost.lock_op * Array.length entries);
        let exit_id = choose_exit st tid in
        (* An unprofiled task consumes its entries with no effect. *)
        if exit_id >= 0 then begin
          st.invocations <- st.invocations + 1;
          if st.invocations > st.max_invocations then
            raise (Sim_overrun "simulation invocation budget exceeded");
          let dur = st.d.Densify.d_tasks.(tid).Densify.dt_exits.(exit_id).Densify.dx_dur in
          let finish = !t + dur in
          let ev_id = st.next_event in
          st.next_event <- ev_id + 1;
          core.executing <- true;
          core.run_task <- tid;
          core.run_entries <- entries;
          core.run_exit <- exit_id;
          core.run_id <- ev_id;
          core.run_start <- !t;
          set_busy st core finish;
          Pqueue.push st.events ~prio:finish core.finish_ev
        end
      end
    done;
    if not core.executing then set_busy st core (imax core.busy_until !t)
  end

let core_finish st core now =
  if core.executing then begin
    core.executing <- false;
    let tid = core.run_task and entries = core.run_entries in
    let exit_id = core.run_exit and ev_id = core.run_id in
    let dx = st.d.Densify.d_tasks.(tid).Densify.dt_exits.(exit_id) in
    Trace.record st.trace ~id:ev_id ~core:core.cid ~task:tid ~exit:exit_id
      ~start:core.run_start ~finish:now entries;
    (* Apply abstract state transitions to consumed tokens. *)
    for pidx = 0 to Array.length entries - 1 do
      let tk = entries.(pidx).e_tok in
      let act = dx.Densify.dx_actions.(pidx) in
      tk.tk_flags <- act_flags act tk.tk_flags;
      tk.tk_tags <- act_tags act tk.tk_tags;
      tk.tk_gen <- tk.tk_gen + 1
    done;
    let t = ref (now + Cost.flag_update) in
    for pidx = 0 to Array.length entries - 1 do
      t := !t + dispatch st ~from_core:core.cid ~producer:ev_id entries.(pidx).e_tok !t
    done;
    (* Emit newly allocated tokens: per site, the whole part of its
       fractional accumulator, so long-run counts match the profiled
       mean. *)
    let alloc = dx.Densify.dx_alloc in
    for a = 0 to Array.length alloc - 1 do
      let sid, avg = alloc.(a) in
      let idx = (tid * st.nsites) + sid in
      let acc = st.alloc_acc.(idx) +. avg in
      let k = int_of_float (floor acc) in
      st.alloc_acc.(idx) <- acc -. float_of_int k;
      for _ = 1 to k do
        let tk = new_token st sid ~group:ev_id in
        t := !t + dispatch st ~from_core:core.cid ~producer:ev_id tk !t
      done
    done;
    set_busy st core !t;
    schedule_ready st core !t
  end

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
      ready_ev = Ready cid;
      finish_ev = Finish cid;
      run_task = -1;
      run_entries = [||];
      run_exit = -1;
      run_id = -1;
      run_start = 0;
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
      chosen = Array.make d.Densify.d_max_params (-1);
      chosen_e = Array.make d.Densify.d_max_params dummy_entry;
      trace = Trace.create ~max_inputs:d.Densify.d_max_params;
      next_token = 0;
      next_event = 0;
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
  while (not !pruned) && not (Pqueue.is_empty st.events) do
    let now = Pqueue.min_prio st.events in
    st.sim_events <- st.sim_events + 1;
    (match Pqueue.take st.events with
    | Arrive (c, e) -> deliver st st.cores.(c) e now
    | Ready c -> core_ready st st.cores.(c) now
    | Finish c -> core_finish st st.cores.(c) now);
    if st.max_busy > bound then pruned := true
  done;
  let total = Array.fold_left (fun acc c -> max acc c.busy_until) 0 st.cores in
  {
    s_total_cycles = total;
    s_invocations = st.invocations;
    s_trace = st.trace;
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
