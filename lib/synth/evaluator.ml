(** Parallel, memoized layout evaluation — the engine behind DSA and
    candidate search.

    The synthesis loop is embarrassingly parallel: every candidate
    layout is scored by an independent simulation run (§4.4), and DSA
    steers each round by the critical path of every surviving layout's
    simulation (§4.5).  An [Evaluator.t] makes both cheap:

    - {b Preparation}: the program and profile are compiled once into
      the simulator's dense tables ({!Schedsim.prepare}); every
      simulation the evaluator runs reuses them.
    - {b Memoization}: results are cached keyed on
      [Layout.canonical_key] in a {!Bamboo_support.Sharded_table} —
      key-hash-striped mutex shards, so worker domains insert each
      result the moment its simulation completes instead of handing it
      back for a serial fill loop on the calling domain.  Callers pass
      each layout's key with it ([batch_bounded]'s requests,
      [result]'s [~key]): DSA computes a key once, on the pool, when it
      deduplicates a chain's neighbours, so the serial part of a round
      builds none.  The worker that completes a simulation also runs
      its critical-path pass ({!Bamboo_sim.Critpath}) straight over the
      simulator's [int]-array trace, and the cache keeps only what DSA
      reads — the {!direction}: the simulated layout, total cycles,
      per-core busy cycles and the opportunity list, never the trace —
      so directing a kept layout costs the calling domain neither a
      simulation nor an analysis.  The
      [evaluated]/[cache_hits]/[pruned]/[sim_events] counters live
      per-shard and merge on read; each fresh key is simulated exactly
      once per batch, so the merged totals are independent of which
      domain ran which simulation.
    - {b Parallelism}: [batch_bounded] fans the uncached layouts of a
      request across a fixed {!Bamboo_support.Pool} of domains, taken
      with [Pool.acquire] and handed back by [shutdown] with
      [Pool.release], so the searches of a process share one set of
      worker domains.  The
      simulator touches no global mutable state and consumes no
      randomness, so per-layout results are independent of the domain
      that computed them: outputs are bit-identical for any [jobs].
    - {b Pruning}: a request bounded by [b] abandons any simulation
      whose simulated time provably exceeds [b] (see
      {!Schedsim.simulate_prepared}).  A pruned result is cached as
      [Pruned b] — never as a complete simulation — and counts as
      [max_int] cycles.  It satisfies a later request with bound
      [b' <= b] (the true total exceeds [b >= b']), but an unbounded
      or looser request re-simulates and overwrites the entry, so
      whether a layout was pruned earlier never changes what a caller
      observes — only what it pays.  [batch_bounded] carries a bound
      {e per request}: multi-start DSA rounds combine chains with
      different incumbents into one fan-out, and duplicate keys merge
      to the loosest requested bound (unbounded if any requester is),
      which answers every requester correctly.

    Callers must keep every RNG decision on their own domain;
    the evaluator never draws random numbers.  Bounds passed by
    callers must themselves be jobs-independent (DSA's come from
    incumbent scores, which are), so evaluated/pruned/hit counters are
    identical for any [jobs] too. *)

module Ir = Bamboo_ir.Ir
module Profile = Bamboo_profile.Profile
module Layout = Bamboo_machine.Layout
module Schedsim = Bamboo_sim.Schedsim
module Critpath = Bamboo_sim.Critpath
module Pool = Bamboo_support.Pool
module Sharded = Bamboo_support.Sharded_table

(** What DSA reads of a complete simulation: the layout that was
    simulated, its score, the per-core busy cycles that pick spare
    cores, and the critical-path opportunities that direct its
    neighbours.  The cache key ignores physical core positions but mesh
    hops do not, so a hit for an isomorphic requester answers with
    [d_layout]: the score is exactly [d_layout]'s simulation, and the
    busy cycles and opportunities name [d_layout]'s core ids. *)
type direction = {
  d_layout : Layout.t;
  d_total_cycles : int;
  d_per_core_busy : int array;
  d_opportunities : Critpath.opportunity list;
}

(** What the cache knows about a layout.  [Overrun] (the simulator
    exceeded its invocation budget) and [Pruned] (the simulation was
    abandoned past a cycle bound) both score [max_int]; only [Full]
    came from a complete trace and carries a direction. *)
type cached =
  | Full of direction
  | Overrun
  | Pruned of int (* bounded at b: the true total strictly exceeds b *)

(* Per-shard counter slots (merged on read by the accessors). *)
let c_evaluated = 0 (* simulations actually run *)
let c_hits = 1 (* requests served from the cache *)
let c_pruned = 2 (* simulations abandoned at a cycle bound *)
let c_events = 3 (* discrete events simulated, total *)
let n_counters = 4

type t = {
  prepared : Schedsim.prepared;
  max_invocations : int;
  pool : Pool.t;
  cache : cached Sharded.t;
}

let create ?(jobs = 1) ?(max_invocations = 500_000) (prog : Ir.program)
    (profile : Profile.t) : t =
  let pool = Pool.acquire ~jobs in
  (* The stripe count comfortably exceeds the worker count, so
     concurrent inserts rarely collide on a shard. *)
  let shards = max 16 (4 * Pool.jobs pool) in
  {
    prepared = Schedsim.prepare prog profile;
    max_invocations;
    pool;
    cache = Sharded.create ~shards ~counters:n_counters ();
  }

let jobs t = Pool.jobs t.pool

(** The pool simulations fan out on.  DSA advances its chains on it
    too, between fan-outs. *)
let pool t = t.pool

let evaluated t = Sharded.counter t.cache c_evaluated
let cache_hits t = Sharded.counter t.cache c_hits
let pruned t = Sharded.counter t.cache c_pruned
let sim_events t = Sharded.counter t.cache c_events
let cache_shards t = Sharded.shard_count t.cache
let cache_contention t = Sharded.contention t.cache

let shutdown t = Pool.release t.pool

let with_evaluator ?jobs ?max_invocations prog profile f =
  let t = create ?jobs ?max_invocations prog profile in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* An overrun raises before the simulator can report how many events
   it processed, so it contributes 0 to the event counter; overruns
   are deterministic, so they memoize like any result. *)
let simulate_uncached t cycle_bound layout : cached * int =
  match
    Schedsim.simulate_prepared ?cycle_bound ~max_invocations:t.max_invocations t.prepared
      layout
  with
  | r -> (
      match r.Schedsim.s_status with
      | Schedsim.Complete ->
          ( Full
              { d_layout = layout; d_total_cycles = r.s_total_cycles;
                d_per_core_busy = r.s_per_core_busy;
                d_opportunities = Critpath.opportunities (Critpath.analyse r) },
            r.s_sim_events )
      | Schedsim.Bounded b -> (Pruned b, r.Schedsim.s_sim_events))
  | exception Schedsim.Sim_overrun _ -> (Overrun, 0)

(** Can a cached entry answer a request made with [bound]? *)
let usable bound = function
  | Full _ | Overrun -> true
  | Pruned b -> ( match bound with Some b' -> b' <= b | None -> false)

(** Score of a cached entry: total cycles, or [max_int] when the
    layout overran or was pruned (it cannot beat any bound it was
    pruned against). *)
let cycles_of = function
  | Full d -> d.d_total_cycles
  | Overrun | Pruned _ -> max_int

(* A group of requests sharing one canonical key: simulated (at most)
   once, answered at every requesting position. *)
type group = {
  g_key : string;
  g_layout : Layout.t;
  mutable g_bound : int option; (* loosest requested bound; [None] = unbounded *)
  mutable g_unbounded : bool;
  mutable g_positions : int list; (* request indices answered by this group *)
  mutable g_count : int;
}

(** [batch_bounded t reqs] returns what is known about every
    [(key, layout, bound)] request, in order.  [key] must be
    [Layout.canonical_key layout]: callers that deduplicate by key
    already hold it, so the evaluator never recomputes it.  Requests
    are deduplicated by key in a single pass; duplicate keys merge to
    the loosest requested bound.  Keys without a usable cache entry
    are simulated in parallel on the pool, each worker inserting its
    result (and bumping the per-shard counters) the moment its
    simulation completes; everything else is a cache hit, filled
    positionally without a second lookup. *)
let batch_bounded t (reqs : (string * Layout.t * int option) list) : cached list =
  let reqs = Array.of_list reqs in
  let n = Array.length reqs in
  let responses = Array.make n None in
  (* Single pass: either answer from the cache, join an in-flight
     group, or open one. *)
  let groups_tbl : (string, group) Hashtbl.t = Hashtbl.create 16 in
  let groups = ref [] in
  for i = 0 to n - 1 do
    let key, layout, bound = reqs.(i) in
    match Hashtbl.find_opt groups_tbl key with
    | Some g ->
        g.g_positions <- i :: g.g_positions;
        g.g_count <- g.g_count + 1;
        (match bound with
        | None -> g.g_unbounded <- true
        | Some b -> (
            match g.g_bound with
            | Some b0 when b0 >= b -> ()
            | _ -> g.g_bound <- Some b))
    | None -> (
        match Sharded.find t.cache key with
        | Some c when usable bound c ->
            responses.(i) <- Some c;
            Sharded.bump t.cache key c_hits 1
        | _ ->
            let g =
              {
                g_key = key;
                g_layout = layout;
                g_bound = bound;
                g_unbounded = bound = None;
                g_positions = [ i ];
                g_count = 1;
              }
            in
            Hashtbl.replace groups_tbl key g;
            groups := g :: !groups)
  done;
  let fresh = Array.of_list (List.rev !groups) in
  (* Simulating at the merged (loosest) bound answers every requester
     in the group: a completion answers anyone, and a prune at the
     loosest bound proves the true total exceeds every tighter one. *)
  let results =
    Pool.map t.pool
      (fun g ->
        let bound = if g.g_unbounded then None else g.g_bound in
        let c, events = simulate_uncached t bound g.g_layout in
        (* Per-domain insert at simulation completion: the result and
           its counter bumps land on the key's shard under that
           shard's lock — no post-fan-out serial fill loop. *)
        Sharded.set t.cache g.g_key c;
        Sharded.bump t.cache g.g_key c_evaluated 1;
        Sharded.bump t.cache g.g_key c_events events;
        (match c with
        | Pruned _ -> Sharded.bump t.cache g.g_key c_pruned 1
        | Full _ | Overrun -> ());
        c)
      fresh
  in
  Array.iteri
    (fun j g ->
      List.iter (fun i -> responses.(i) <- Some results.(j)) g.g_positions;
      (* Duplicate requests coalesced into one simulation count as
         hits, as they always have. *)
      if g.g_count > 1 then Sharded.bump t.cache g.g_key c_hits (g.g_count - 1))
    fresh;
  Array.to_list
    (Array.map (function Some c -> c | None -> assert false (* every position filled *)) responses)

(** [batch t layouts] — every request under one shared [cycle_bound]
    (or unbounded). *)
let batch ?cycle_bound t (layouts : Layout.t list) : cached list =
  batch_bounded t (List.map (fun l -> (Layout.canonical_key l, l, cycle_bound)) layouts)

(** [result t layout] — the direction of [layout] if a complete
    simulation is available: [None] when the layout overran, or when
    the cache only holds a pruned (truncated) simulation.  Never
    re-simulates a pruned layout: a direction comes only from a
    complete trace, and a layout pruned against an incumbent is
    already known not to be worth the full price.  A miss goes through
    {!Sharded_table.compute}, so racing callers of the same layout
    simulate it exactly once.  [key] must be
    [Layout.canonical_key layout]. *)
let result t ~key layout : direction option =
  let events = ref 0 in
  let c, computed =
    Sharded.compute t.cache key (fun () ->
        let c, ev = simulate_uncached t None layout in
        events := ev;
        c)
  in
  if computed then begin
    Sharded.bump t.cache key c_evaluated 1;
    Sharded.bump t.cache key c_events !events
  end;
  match c with
  | Full d -> Some d
  | Overrun -> None
  | Pruned _ ->
      assert (not computed) (* unbounded simulations never prune *);
      None

(** [batch_cycles t layouts] — parallel memoized scores, in order. *)
let batch_cycles ?cycle_bound t layouts = List.map cycles_of (batch ?cycle_bound t layouts)

(** [cycles t layout] — memoized unbounded score. *)
let cycles t layout =
  match batch t [ layout ] with [ c ] -> cycles_of c | _ -> assert false
