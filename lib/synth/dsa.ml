(** Directed simulated annealing (§4.5), at paper scale.

    Standard simulated annealing explores neighbours blindly; the
    paper's variant *directs* neighbour generation with the critical
    path of the simulated execution: delayed task instances are
    migrated or replicated onto spare cores, and non-key tasks that
    block key tasks are moved away.  Candidate pruning is
    probabilistic (good layouts survive with high probability, poor
    ones with low probability) and the search continues past a local
    maximum with a fixed probability.

    The paper ran this search from ~1000 starting points.  [optimize]
    therefore drives [starts] {e independent annealing chains} in
    lockstep rounds over one shared evaluator: each round gathers every
    live chain's pending layouts into a single
    {!Evaluator.batch_bounded} fan-out, hands each chain its own
    answers in request order, and advances the chains across the same
    pool.  Chains share the memo cache — a layout one chain scored is
    a hit for every other — but share no randomness: each chain draws
    from its own PRNG stream split from the root seed on the calling
    domain, and plans from its own state and cache reads alone, so the
    whole search is bit-identical for any [jobs] count.  Each scored
    layout's critical-path {!Evaluator.direction} comes back from the
    same fan-out, so planning a round analyses nothing; it only
    generates and deduplicates neighbours.  Every layout a chain holds
    carries the canonical key it was deduplicated by, and the evaluator
    takes that key instead of recomputing it, so a key is built once
    per generated layout, on the pool.  A score is always paired
    with the layout that was simulated ({!scored}): the cache answers
    an isomorphic requester with its representative, whose core ids the
    mesh distances and the direction refer to, so [best_cycles] is
    exactly a fresh simulation of [best].

    The rounds are a branch-and-bound across chains.  Each request is
    bounded by its chain's pool best, tightened to {!bound_slack} times
    the global incumbent — the best score any chain holds when the
    round starts, so bounds are the same for any [jobs].  A chain far
    behind the leader stops simulating its neighbours as soon as they
    provably fall that far behind, stops improving, and dies out at a
    plateau draw.

    Two policies target searches that stall on a secondary attractor
    (Tracking's):

    - {b Restart}: a chain that fails to improve its incumbent for
      [restart_stall] consecutive rounds abandons its pool and
      re-seeds from fresh candidates ([synthesize] draws them from the
      candidate generator at perturbed multiplicities; bare [optimize]
      falls back to heavy shakes of the incumbent).  The incumbent
      stays recorded as the chain's best, but the restarted pool's
      first round is evaluated {e unbounded}, so the fresh basin is
      actually explored rather than pruned against the score it is
      trying to escape; later rounds are bounded like any other.
    - {b Tempering} ([~tempering:true]): survival and continuation
      probabilities anneal with a temperature that cools linearly over
      the iteration budget — early rounds keep poor layouts and push
      past plateaus almost always (explore), late rounds fall back to
      the paper's fixed probabilities (exploit). *)

module Ir = Bamboo_ir.Ir
module Machine = Bamboo_machine.Machine
module Layout = Bamboo_machine.Layout
module Profile = Bamboo_profile.Profile
module Cstg = Bamboo_cstg.Cstg
module Critpath = Bamboo_sim.Critpath
module Prng = Bamboo_support.Prng
module Pool = Bamboo_support.Pool

type config = {
  initial_candidates : int;   (* random starting points per run *)
  keep_good_prob : float;     (* survival probability for top half *)
  keep_bad_prob : float;      (* survival probability for bottom half *)
  continue_prob : float;      (* probability of continuing past a plateau *)
  max_iterations : int;
  neighbours_per_op : int;    (* layouts generated per critical-path opportunity *)
  max_ops_per_layout : int;   (* critical-path opportunities considered per layout *)
  max_neighbours : int;       (* neighbour layouts evaluated per layout per round *)
  max_pool : int;             (* surviving layouts carried between rounds *)
  sim_max_invocations : int;
  restart_stall : int;        (* rounds without improvement before a chain
                                 re-seeds; <= 0 disables restarts *)
}

let default_config =
  {
    initial_candidates = 8;
    keep_good_prob = 0.9;
    keep_bad_prob = 0.1;
    (* the paper continues past a plateau "with a high probability" *)
    continue_prob = 0.75;
    max_iterations = 40;
    neighbours_per_op = 3;
    max_ops_per_layout = 6;
    max_neighbours = 18;
    max_pool = 24;
    sim_max_invocations = 500_000;
    restart_stall = 6;
  }

type outcome = {
  best : Layout.t;
  best_cycles : int;
  iterations : int;           (* rounds advanced by the longest-lived chain *)
  starts : int;               (* independent annealing chains run *)
  restarts : int;             (* stalled-chain re-seeds, summed over chains *)
  evaluated : int;            (* distinct layouts simulated (cache misses) *)
  cache_hits : int;           (* evaluation requests served by the memo cache *)
  pruned : int;               (* simulations abandoned against an incumbent's bound *)
  sim_events : int;           (* discrete events simulated across the search *)
  seconds : float;            (* wall-clock time of the search *)
}

(* ------------------------------------------------------------------ *)
(* Neighbour generation *)

(** Least-busy cores under a simulated execution — candidates for
    receiving migrated work ("spare cores"). *)
let spare_cores (d : Evaluator.direction) machine k =
  let busy = Array.mapi (fun i b -> (b, i)) d.d_per_core_busy in
  Array.sort compare busy;
  Array.to_list (Array.sub busy 0 (min k machine.Machine.cores)) |> List.map snd

let with_task_moved prog layout tid ~from_core ~to_core =
  let l = Layout.copy layout in
  let cores = Layout.cores_of l tid in
  let cores' = Array.map (fun c -> if c = from_core then to_core else c) cores in
  Layout.set_cores l tid cores';
  if Layout.validate prog l = [] then Some l else None

let with_task_replicated prog layout tid ~on_core =
  let l = Layout.copy layout in
  Layout.set_cores l tid (Array.append (Layout.cores_of l tid) [| on_core |]);
  if Layout.validate prog l = [] then Some l else None

(** Layouts attempting to remove the bottlenecks reported by the
    critical path analysis. *)
let rec take n = function [] -> [] | x :: rest -> if n <= 0 then [] else x :: take (n - 1) rest

(** Random mutation used to escape plateaus: move or replicate a few
    random task instances (none in a program without tasks). *)
let shake rng prog layout =
  let machine = layout.Layout.machine in
  let l = ref (Layout.copy layout) in
  let nmut = if Array.length prog.Ir.tasks = 0 then 0 else 1 + Prng.int rng 3 in
  for _ = 1 to nmut do
    let tid = Prng.int rng (Array.length prog.Ir.tasks) in
    let cores = Layout.cores_of !l tid in
    if Array.length cores > 0 then begin
      let target = Prng.int rng machine.Machine.cores in
      let cand =
        if Prng.bool rng then with_task_replicated prog !l tid ~on_core:target
        else
          with_task_moved prog !l tid
            ~from_core:cores.(Prng.int rng (Array.length cores))
            ~to_core:target
      in
      match cand with Some l' -> l := l' | None -> ()
    end
  done;
  !l

(** Aggressive mutation used to re-seed a restarted chain when no
    candidate generator is available: several rounds of [shake]. *)
let heavy_shake rng prog layout =
  shake rng prog (shake rng prog (shake rng prog layout))

(** Neighbours of the layout [d] was simulated on: its spare cores and
    critical-path opportunities name that layout's core ids. *)
let neighbours cfg rng prog (d : Evaluator.direction) =
  let layout = d.d_layout in
  let ops = take cfg.max_ops_per_layout d.d_opportunities in
  let machine = layout.Layout.machine in
  let spares = spare_cores d machine (max 2 cfg.neighbours_per_op) in
  let per_op op =
    match op with
    | Critpath.Migrate_delayed (tid, core) ->
        (* Single-instance moves/replications onto spare cores, plus a
           bulk variant that claims every spare at once — without it,
           growing a task from one instance to a full machine would
           need one iteration per core. *)
        let bulk =
          List.fold_left
            (fun acc spare ->
              match acc with
              | Some l -> (
                  match with_task_replicated prog l tid ~on_core:spare with
                  | Some l' -> Some l'
                  | None -> Some l)
              | None -> with_task_replicated prog layout tid ~on_core:spare)
            None spares
        in
        (match bulk with Some l -> [ l ] | None -> [])
        @ List.filter_map
            (fun spare ->
              if spare = core then None
              else if Prng.bool rng then with_task_replicated prog layout tid ~on_core:spare
              else with_task_moved prog layout tid ~from_core:core ~to_core:spare)
            spares
    | Critpath.Move_non_key (tid, core) ->
        List.filter_map
          (fun spare ->
            if spare = core then None
            else with_task_moved prog layout tid ~from_core:core ~to_core:spare)
          spares
  in
  let directed = take cfg.max_neighbours (List.concat_map per_op ops) in
  (* Fallback random perturbation keeps the search alive when the
     critical path offers nothing (and there is a task to move). *)
  let random_moves =
    if directed = [] && Array.length prog.Ir.tasks > 0 then
      List.filter_map
        (fun _ ->
          let tid = Prng.int rng (Array.length prog.Ir.tasks) in
          let cores = Layout.cores_of layout tid in
          if Array.length cores = 0 then None
          else
            let from_core = cores.(Prng.int rng (Array.length cores)) in
            let to_core = Prng.int rng machine.Machine.cores in
            with_task_moved prog layout tid ~from_core ~to_core)
        (List.init cfg.neighbours_per_op (fun i -> i))
    else []
  in
  directed @ random_moves

(* ------------------------------------------------------------------ *)
(* Annealing chains *)

(** One independent annealing chain.  All of a chain's randomness
    comes from [ch_rng] (split from the root seed on the calling
    domain), all of its scores from the shared evaluator.  Every layout
    a chain holds travels with its canonical key, computed once when
    the layout is deduplicated and handed to the evaluator from then
    on; a scored layout is [(cycles, layout, key)], so ordering by the
    tuple still breaks ties on the layout. *)
type chain = {
  ch_rng : Prng.t;
  mutable ch_kept : (int * Layout.t * string) list; (* scored survivors, sorted best-first *)
  mutable ch_pending : (string * Layout.t) list;    (* layouts awaiting this round's scores *)
  mutable ch_best : (int * Layout.t * string) option; (* incumbent across restarts *)
  mutable ch_iter : int;                    (* rounds advanced *)
  mutable ch_stall : int;                   (* consecutive rounds without improvement *)
  mutable ch_shake : bool;                  (* plateaued: diversify the next round *)
  mutable ch_live : bool;
  mutable ch_restarts : int;
}

(** How far behind the global incumbent a chain may still simulate.
    Chosen from a measured curve: tighter slacks lose KMeans' best
    layout at some DSA seeds, looser ones simulate more events for the
    same layouts. *)
let bound_slack = 1.25

(** The bound a chain's next batch is pruned against: the best score
    in its {e current} pool, tightened to {!bound_slack} times the
    global [incumbent] (the best score any chain has found when the
    round starts).  A chain far behind the leader therefore simulates
    its neighbours only as far as they could still come near the
    leader, and a chain that cannot get there stalls and dies out.  A
    freshly restarted chain has an empty pool and evaluates its new
    basin unbounded instead of pruning it against the score it is
    trying to escape. *)
let request_bound ~incumbent ch =
  match ch.ch_kept with
  | (c, _, _) :: _ when c < max_int ->
      let g = bound_slack *. float_of_int incumbent in
      Some (if g < float_of_int c then int_of_float g else c)
  | _ -> None

(** Linear cooling over the iteration budget: 1 on the first round,
    0 at the end.  0 whenever tempering is off. *)
let temperature cfg ~tempering ch =
  if not tempering then 0.0
  else max 0.0 (1.0 -. (float_of_int ch.ch_iter /. float_of_int (max 1 cfg.max_iterations)))

(* Tempered probabilities: at full temperature poor layouts survive
   like good ones and plateaus almost never stop the chain; both decay
   to the paper's fixed values as the chain cools. *)
let keep_bad_prob cfg ~tempering ch =
  cfg.keep_bad_prob +. ((cfg.keep_good_prob -. cfg.keep_bad_prob) *. temperature cfg ~tempering ch)

let continue_prob cfg ~tempering ch =
  if not tempering then cfg.continue_prob (* exact baseline behaviour *)
  else
    min 0.98 (cfg.continue_prob +. ((0.95 -. cfg.continue_prob) *. temperature cfg ~tempering ch))

(** [layouts] keyed, in order, minus those whose key is in [seen] or
    repeats an earlier one; every key kept is added to [seen]. *)
let unseen seen layouts =
  List.filter_map
    (fun l ->
      let key = Layout.canonical_key l in
      if Hashtbl.mem seen key then None
      else begin
        Hashtbl.replace seen key ();
        Some (key, l)
      end)
    layouts

(** Build the next round's requests from the scored pool: probabilistic
    pruning, then critical-path-directed neighbours of the survivors
    (plus shakes of the pool's best when the chain just plateaued). *)
let plan_round cfg ~tempering ev prog ch (pool : (int * Layout.t * string) list) =
  let keep_bad = keep_bad_prob cfg ~tempering ch in
  let sorted = List.sort (fun (a, _, _) (b, _, _) -> compare a b) pool in
  let n = List.length sorted in
  let kept =
    List.filteri
      (fun i _ ->
        let p = if i < (n + 1) / 2 then cfg.keep_good_prob else keep_bad in
        i = 0 || Prng.float ch.ch_rng 1.0 < p)
      sorted
  in
  let kept = take cfg.max_pool kept in
  (* Directed neighbour generation.  Every kept layout's direction is
     a memo-cache hit, computed by the worker that scored it, so this
     domain neither re-simulates nor analyses anything. *)
  let news =
    List.concat_map
      (fun (_, l, key) ->
        match Evaluator.result ~key ev l with
        | None -> []   (* overrun or pruned: no complete trace to direct from *)
        | Some d -> neighbours cfg ch.ch_rng prog d)
      kept
  in
  (* Plateau: diversify around the pool's best layout so continued
     search explores new directions rather than re-deriving the same
     neighbours. *)
  let shakes =
    if ch.ch_shake then
      match kept with
      | (_, best, _) :: _ -> List.init 4 (fun _ -> shake ch.ch_rng prog best)
      | [] -> []
    else []
  in
  ch.ch_shake <- false;
  (* Deduplicate against the surviving pool. *)
  let seen = Hashtbl.create 64 in
  List.iter (fun (_, _, key) -> Hashtbl.replace seen key ()) kept;
  ch.ch_kept <- kept;
  ch.ch_pending <- unseen seen (news @ shakes)

(** Abandon the pool and re-seed from [reseed].  The incumbent stays
    in [ch_best] but deliberately {e not} in the pool: the fresh basin
    is scored unbounded (see {!request_bound}) and explored on its own
    merits. *)
let restart_chain cfg ~reseed prog ch =
  ch.ch_restarts <- ch.ch_restarts + 1;
  ch.ch_stall <- 0;
  ch.ch_shake <- false;
  let incumbent, incumbent_key =
    match ch.ch_best with Some (_, l, key) -> (l, key) | None -> assert false
  in
  let fresh =
    match reseed ch.ch_rng with
    | [] -> List.init (max 1 cfg.initial_candidates) (fun _ -> heavy_shake ch.ch_rng prog incumbent)
    | ls -> ls
  in
  let seen = Hashtbl.create 16 in
  Hashtbl.replace seen incumbent_key ();
  ch.ch_kept <- [];
  ch.ch_pending <- unseen seen fresh

(** Absorb one round of scores and decide the chain's next move:
    update the incumbent, stop at the iteration budget or a lost
    plateau draw, restart after [restart_stall] barren rounds, or plan
    the next round of neighbours. *)
let advance cfg ~tempering ~reseed ev prog ch (scored : (int * Layout.t * string) list) =
  let pool = ch.ch_kept @ scored in
  match pool with
  | [] ->
      (* Nothing survived and nothing scored — a restart produced no
         valid fresh layout.  Retire the chain; its incumbent stands. *)
      ch.ch_live <- false
  | hd :: tl -> (
      let ((round_cycles, _, _) as round_best) = List.fold_left min hd tl in
      (match ch.ch_best with
      | None -> ch.ch_best <- Some round_best (* seed round: no plateau logic yet *)
      | Some (bc, _, _) when round_cycles < bc ->
          ch.ch_best <- Some round_best;
          ch.ch_stall <- 0
      | Some _ ->
          ch.ch_stall <- ch.ch_stall + 1;
          if Prng.float ch.ch_rng 1.0 >= continue_prob cfg ~tempering ch then ch.ch_live <- false
          else ch.ch_shake <- true);
      if ch.ch_live then
        if ch.ch_iter >= cfg.max_iterations then ch.ch_live <- false
        else begin
          ch.ch_iter <- ch.ch_iter + 1;
          if cfg.restart_stall > 0 && ch.ch_stall >= cfg.restart_stall then
            restart_chain cfg ~reseed prog ch
          else plan_round cfg ~tempering ev prog ch pool
        end)

(* ------------------------------------------------------------------ *)
(* Main loop *)

(** A request's score, paired with the layout that was simulated: a
    cache hit for an isomorphic requester answers with the cached
    layout, so the pair's score is exactly that layout's simulation.
    Overruns and prunes score [max_int] against the requester.  The
    requester's key is the simulated layout's key too: the cache
    matched them by it. *)
let scored (key, requested) = function
  | Evaluator.Full d -> (d.d_total_cycles, d.d_layout, key)
  | Evaluator.Overrun | Evaluator.Pruned _ -> (max_int, requested, key)

(** Optimize starting from [seeds] (already-generated candidate
    layouts).  Returns the best layout found and its estimated
    cycles.

    [starts] independent chains run in lockstep rounds: chain 0 starts
    from [seeds], later chains from [reseed] (or shaken copies of
    [seeds] without one), each with its own PRNG stream split from
    [seed].  Every round, all live chains' pending layouts go to the
    evaluator as {e one} batch — each request bounded by
    {!request_bound} — and are fanned across [jobs] domains together;
    the chains then advance across the same domains, one task per
    chain.  [reseed] runs there too, so it must read nothing mutable
    but the PRNG it is given.  Scores, bounds and every random draw
    are independent of how either fan-out was scheduled, so outcomes
    are bit-identical for any [jobs] and any given [starts].  Pass
    [evaluator] to share a memo cache across searches (e.g. repeated
    DSA trials over one profile). *)
let optimize ?(config = default_config) ?(jobs = 1) ?evaluator ?(starts = 1)
    ?(tempering = false) ?reseed ~seed (prog : Ir.program) (profile : Profile.t)
    (seeds : Layout.t list) : outcome =
  if seeds = [] then invalid_arg "Dsa.optimize: no seed layouts";
  if starts < 1 then invalid_arg "Dsa.optimize: starts must be >= 1";
  let t0 = Bamboo_support.Clock.now () in
  let ev, owns_ev =
    match evaluator with
    | Some e -> (e, false)
    | None ->
        (Evaluator.create ~jobs ~max_invocations:config.sim_max_invocations prog profile, true)
  in
  let evaluated0 = Evaluator.evaluated ev and hits0 = Evaluator.cache_hits ev in
  let pruned0 = Evaluator.pruned ev and events0 = Evaluator.sim_events ev in
  let root = Prng.create ~seed in
  let reseed =
    match reseed with
    | Some f -> f
    | None -> fun rng -> List.map (fun l -> heavy_shake rng prog l) seeds
  in
  let mk_chain i =
    let rng = Prng.split root in
    let pending =
      if i = 0 then seeds
      else
        match reseed rng with [] -> List.map (fun l -> shake rng prog l) seeds | ls -> ls
    in
    {
      ch_rng = rng;
      ch_kept = [];
      ch_pending = List.map (fun l -> (Layout.canonical_key l, l)) pending;
      ch_best = None;
      ch_iter = 0;
      ch_stall = 0;
      ch_shake = false;
      ch_live = true;
      ch_restarts = 0;
    }
  in
  let chains = Array.init starts mk_chain in
  let finish () =
    let best =
      Array.fold_left
        (fun acc ch ->
          match (acc, ch.ch_best) with
          | None, b -> b
          | b, None -> b
          | Some (ac, _, _), Some (bc, _, _) -> if bc < ac then ch.ch_best else acc)
        None chains
    in
    let best_cycles, best =
      match best with
      | Some (c, l, _) -> (c, l)
      | None -> assert false (* seed round always scores *)
    in
    if owns_ev then Evaluator.shutdown ev;
    {
      best;
      best_cycles;
      iterations = Array.fold_left (fun acc ch -> max acc ch.ch_iter) 0 chains;
      starts;
      restarts = Array.fold_left (fun acc ch -> acc + ch.ch_restarts) 0 chains;
      evaluated = Evaluator.evaluated ev - evaluated0;
      cache_hits = Evaluator.cache_hits ev - hits0;
      pruned = Evaluator.pruned ev - pruned0;
      sim_events = Evaluator.sim_events ev - events0;
      seconds = Bamboo_support.Clock.elapsed t0;
    }
  in
  match
    while Array.exists (fun ch -> ch.ch_live) chains do
      (* One lockstep round: gather every live chain's requests, score
         them in a single parallel fan-out, then advance every chain on
         the same pool.  The request list (and so the cache's state at
         every round boundary) is a deterministic function of the
         chains' states alone. *)
      let live = List.filter (fun ch -> ch.ch_live) (Array.to_list chains) in
      let incumbent =
        Array.fold_left
          (fun acc ch -> match ch.ch_best with Some (c, _, _) -> min acc c | None -> acc)
          max_int chains
      in
      let reqs =
        List.concat_map
          (fun ch ->
            let bound = request_bound ~incumbent ch in
            List.map (fun (key, l) -> (key, l, bound)) ch.ch_pending)
          live
      in
      let answers = Array.of_list (Evaluator.batch_bounded ev reqs) in
      let next = ref 0 in
      let rounds =
        Array.of_list
          (List.map
             (fun ch ->
               let pairs = List.mapi (fun i req -> scored req answers.(!next + i)) ch.ch_pending in
               next := !next + List.length pairs;
               ch.ch_pending <- [];
               (ch, pairs))
             live)
      in
      (* Planning is a chain's own business — its state, its PRNG
         stream, and cache reads of layouts already scored — so chains
         advance in parallel with the same result as in index order. *)
      ignore
        (Pool.map (Evaluator.pool ev)
           (fun (ch, pairs) -> advance config ~tempering ~reseed ev prog ch pairs)
           rounds)
    done
  with
  | () -> finish ()
  | exception e ->
      if owns_ev then Evaluator.shutdown ev;
      raise e

(** Full synthesis pipeline: candidate generation followed by
    multi-start DSA, as the compiler's backend would run it.  Restarted
    (and extra) chains re-seed through the candidate generator at
    perturbed multiplicities — fresh basins, not perturbations of the
    stalled one. *)
let synthesize ?(config = default_config) ?(ncandidates = 16) ?(jobs = 1) ?evaluator
    ?(starts = 1) ?(tempering = false) ~seed (prog : Ir.program) (g : Cstg.t)
    (profile : Profile.t) (machine : Machine.t) : outcome =
  let grouping, mults, seeds = Candidates.generate ~n:ncandidates ~seed prog g profile machine in
  if seeds = [] then
    invalid_arg "Dsa.synthesize: candidate generation produced no valid layout";
  let reseed rng =
    let mults' = Candidates.perturb_mults rng machine prog mults in
    Candidates.random_candidates rng prog machine grouping mults'
      (max 2 (min 6 (max 1 config.initial_candidates)))
  in
  optimize ~config ~jobs ?evaluator ~starts ~tempering ~reseed ~seed:(seed + 1) prog profile
    seeds
