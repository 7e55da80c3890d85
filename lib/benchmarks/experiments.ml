(** Experiment drivers for the paper's evaluation (§5).

    Each [figN_*] function reproduces one table or figure; the bench
    harness ([bench/main.ml]) prints them side by side with the
    paper's numbers, and the test suite asserts their qualitative
    shape. *)

module Machine = Bamboo.Machine
module Layout = Bamboo.Layout
module Profile = Bamboo.Profile
module Stats = Bamboo.Stats

(* ------------------------------------------------------------------ *)
(* Shared per-benchmark evaluation (Figures 7 and 9) *)

(** Everything measured about one benchmark on one machine: the
    three versions of Figure 7 plus the scheduling-simulator
    estimates of Figure 9. *)
type bench_result = {
  br_name : string;
  br_c : int;               (* 1-core sequential ("C") cycles *)
  br_b1 : int;              (* 1-core Bamboo cycles *)
  br_bn : int;              (* many-core Bamboo cycles (real) *)
  br_est1 : int;            (* estimated 1-core Bamboo cycles *)
  br_estn : int;            (* estimated many-core Bamboo cycles *)
  br_dsa_seconds : float;
  br_dsa_evaluated : int;
  br_dsa_cache_hits : int;
  br_dsa_pruned : int;       (* simulations abandoned against the incumbent *)
  br_dsa_sim_events : int;   (* discrete events simulated across the search *)
  br_cores : int;
  br_layout : Layout.t;
  br_ok : bool;             (* output sanity checks passed *)
}

let speedup_b r = Stats.speedup ~base:(float_of_int r.br_b1) ~par:(float_of_int r.br_bn)
let speedup_c r = Stats.speedup ~base:(float_of_int r.br_c) ~par:(float_of_int r.br_bn)

let overhead_pct r =
  (float_of_int r.br_b1 /. float_of_int r.br_c -. 1.0) *. 100.0

let err1_pct r = Stats.error_pct ~estimate:(float_of_int r.br_est1) ~real:(float_of_int r.br_b1)
let errn_pct r = Stats.error_pct ~estimate:(float_of_int r.br_estn) ~real:(float_of_int r.br_bn)

(** Run the full pipeline for one benchmark: compile both versions,
    profile, synthesize for [machine], execute all three versions,
    and estimate the 1-core and many-core layouts with the scheduling
    simulator. *)
let evaluate ?(machine = Machine.tilepro64) ?(seed = 11) ?dsa_config ?jobs ?args
    (b : Bench_def.t) : bench_result =
  let args = match args with Some a -> a | None -> b.b_args in
  let prog = Bamboo.compile b.b_source in
  let seqprog = Bamboo.compile b.b_seq_source in
  let an = Bamboo.analyse prog in
  let prof = Bamboo.profile ~args prog in
  let outcome = Bamboo.synthesize ?config:dsa_config ?jobs ~seed prog an prof machine in
  let rn = Bamboo.execute ~args prog an outcome.best in
  let r1 = Bamboo.Runtime.run_single ~args prog in
  let rc = Bamboo.Runtime.run_single ~args seqprog in
  let est1 = Bamboo.estimate prog prof (Bamboo.Runtime.single_core_layout prog) in
  {
    br_name = b.b_name;
    br_c = rc.r_total_cycles;
    br_b1 = r1.r_total_cycles;
    br_bn = rn.r_total_cycles;
    br_est1 = est1;
    br_estn = outcome.best_cycles;
    br_dsa_seconds = outcome.seconds;
    br_dsa_evaluated = outcome.evaluated;
    br_dsa_cache_hits = outcome.cache_hits;
    br_dsa_pruned = outcome.pruned;
    br_dsa_sim_events = outcome.sim_events;
    br_cores = machine.Machine.cores;
    br_layout = outcome.best;
    br_ok = b.b_check rn.r_output && b.b_check r1.r_output && b.b_check rc.r_output;
  }

(* ------------------------------------------------------------------ *)
(* Figure 10: efficiency of directed simulated annealing *)

type fig10_result = {
  f10_name : string;
  f10_all : float list;        (* estimated cycles of enumerated candidates *)
  f10_dsa : float list;        (* estimated cycles of DSA outcomes *)
  f10_best_prob : float;
      (* fraction of DSA outcomes in the lowest histogram bucket, with
         buckets spanning the full candidate range — the quantity the
         paper's Figure 10 charts display *)
  f10_random_best_prob : float; (* fraction of enumerated candidates in it *)
  f10_strict_prob : float;     (* fraction of DSA outcomes within 5% of the best *)
  f10_random_strict_prob : float; (* fraction of candidates within 5% of the best *)
}

(** Reproduce one panel of Figure 10 on a 16-core machine: the
    distribution of all (capped) enumerated candidate layouts versus
    the distribution of layouts produced by DSA from random starting
    points.  [exhaustive = false] skips enumeration (the paper skips
    it for Tracking). *)
let fig10 ?(machine = Machine.m16) ?(enumerate_cap = 1500) ?(dsa_starts = 50) ?(seed = 5)
    ?(exhaustive = true) ?(jobs = 1) ?args (b : Bench_def.t) : fig10_result =
  let args = match args with Some a -> a | None -> b.b_args in
  let prog = Bamboo.compile b.b_source in
  let an = Bamboo.analyse prog in
  let prof = Bamboo.profile ~args prog in
  let dg = Bamboo.Candidates.task_graph an.cstg prof in
  let grouping = Bamboo.Candidates.scc_grouping prog dg in
  let mults = Bamboo.Candidates.task_mults prog prof dg ~machine in
  (* One evaluation engine for the whole panel: the enumeration sweep
     fans across [jobs] domains, and the DSA starts share its memo
     cache (pure memoization of a deterministic simulator, so results
     are unchanged — repeated layouts just stop costing). *)
  let ev = Bamboo.Evaluator.create ~jobs ~max_invocations:200_000 prog prof in
  Fun.protect ~finally:(fun () -> Bamboo.Evaluator.shutdown ev) @@ fun () ->
  let estimate_all ls =
    Bamboo.Evaluator.batch_cycles ev ls
    |> List.filter_map (fun c -> if c = max_int then None else Some (float_of_int c))
  in
  let all =
    if exhaustive then begin
      (* Canonical enumeration first (§4.3.4); topped up with uniform
         random candidates over perturbed multiplicities so the
         distribution covers the whole space even when the leaf budget
         truncates enumeration — the paper's own enumerator also
         randomly skips subsets of the search space. *)
      let enumerated =
        Bamboo.Candidates.enumerate ~cap:enumerate_cap ~seed prog machine grouping mults
      in
      let rng0 = Bamboo.Prng.create ~seed:(seed + 77) in
      let sample = ref [] in
      let seen = Hashtbl.create 64 in
      List.iter
        (fun l -> Hashtbl.replace seen (Bamboo.Layout.canonical_key l) ())
        enumerated;
      for _ = 1 to enumerate_cap do
        List.iter
          (fun l ->
            let key = Bamboo.Layout.canonical_key l in
            if not (Hashtbl.mem seen key) then begin
              Hashtbl.replace seen key ();
              sample := l :: !sample
            end)
          (Bamboo.Candidates.random_candidates rng0 prog machine grouping
             (Bamboo.Candidates.perturb_mults rng0 machine prog mults)
             1)
      done;
      estimate_all (enumerated @ !sample)
    end
    else []
  in
  (* DSA from random starting points. *)
  let rng = Bamboo.Prng.create ~seed:(seed + 1) in
  let cfg =
    {
      Bamboo.Dsa.default_config with
      max_iterations = 40;
      initial_candidates = 1;
      max_pool = 3;
      max_neighbours = 10;
      continue_prob = 0.93;
      sim_max_invocations = 200_000;
    }
  in
  let dsa_outcomes =
    List.init dsa_starts (fun i ->
        let start =
          Bamboo.Candidates.random_candidates rng prog machine grouping
            (Bamboo.Candidates.perturb_mults rng machine prog mults)
            1
        in
        match start with
        | [] -> None
        | l :: _ ->
            let o =
              Bamboo.Dsa.optimize ~config:cfg ~evaluator:ev ~seed:(seed + (100 * i)) prog prof
                [ l ]
            in
            Some (float_of_int o.best_cycles))
    |> List.filter_map (fun x -> x)
  in
  let pool = dsa_outcomes @ all in
  let best = Stats.minf pool and worst = Stats.maxf pool in
  (* The paper's charts bucket estimated times over the full candidate
     range; "generating the best implementation" means landing in the
     lowest bucket of that scale. *)
  let bucket = if worst > best then (worst -. best) /. 12.0 else 1.0 in
  let frac threshold xs =
    match xs with
    | [] -> 0.0
    | _ ->
        float_of_int (List.length (List.filter (fun c -> c <= threshold) xs))
        /. float_of_int (List.length xs)
  in
  {
    f10_name = b.b_name;
    f10_all = all;
    f10_dsa = dsa_outcomes;
    f10_best_prob = frac (best +. bucket) dsa_outcomes;
    f10_random_best_prob = frac (best +. bucket) all;
    f10_strict_prob = frac (best *. 1.05) dsa_outcomes;
    f10_random_strict_prob = frac (best *. 1.05) all;
  }

(* ------------------------------------------------------------------ *)
(* Paper-scale multi-start synthesis: success rate and cache behaviour *)

type synth_scale_result = {
  ss_name : string;
  ss_machine : string;
  ss_cores : int;
  ss_trials : int;
  ss_starts : int;             (* annealing chains per trial *)
  ss_restarts : int;           (* stalled-chain re-seeds, summed over trials *)
  ss_best_cycles : int;        (* best over trials and the range sample *)
  ss_worst_sample : int;       (* worst sampled candidate (sets the bucket scale) *)
  ss_outcomes : float list;    (* per-trial best cycles *)
  ss_success : float;          (* trials in the lowest full-range bucket *)
  ss_strict : float;           (* trials within 5% of the best *)
  ss_evaluated : int;
  ss_cache_hits : int;
  ss_hit_rate : float;
  ss_pruned : int;
  ss_shards : int;             (* memo-cache stripe count *)
  ss_contention : int;         (* shard-lock acquisitions that had to wait *)
  ss_seconds : float;          (* wall over all trials (excluding the sample) *)
  ss_starts_per_sec : float;
  ss_digest_ok : bool;         (* best layout: parallel exec digest = sequential *)
}

(** The DSA schedule the scale experiment runs per trial: the Figure 10
    panel's small-pool configuration (the regime where the Tracking
    secondary attractor bites) with restarts enabled. *)
let synth_scale_config =
  {
    Bamboo.Dsa.default_config with
    max_iterations = 40;
    initial_candidates = 4;
    max_pool = 3;
    max_neighbours = 10;
    continue_prob = 0.93;
    sim_max_invocations = 200_000;
    restart_stall = 5;
  }

(** Measure the multi-start search the way Figure 10 measures DSA:
    [trials] independent syntheses (each running [starts] chains with
    [tempering]) over one shared evaluator, scored against a
    [sample]-candidate estimate of the full layout-quality range; a
    trial succeeds when it lands in the lowest of 12 buckets spanning
    that range.  Also records the shared cache's hit rate and shard
    contention, and digest-checks the best layout on the parallel
    backend against the sequential runtime. *)
let synth_scale ?(machine = Machine.m16) ?(trials = 20) ?(starts = 12) ?(tempering = true)
    ?(sample = 150) ?(seed = 9) ?(jobs = 1) ?(config = synth_scale_config) ?args
    (b : Bench_def.t) : synth_scale_result =
  let args = match args with Some a -> a | None -> b.b_args in
  let prog = Bamboo.compile b.b_source in
  let an = Bamboo.analyse prog in
  let prof = Bamboo.profile ~args prog in
  let ev =
    Bamboo.Evaluator.create ~jobs ~max_invocations:config.Bamboo.Dsa.sim_max_invocations prog
      prof
  in
  Fun.protect ~finally:(fun () -> Bamboo.Evaluator.shutdown ev) @@ fun () ->
  (* Full-range sample: random candidates over perturbed multiplicities
     estimate how good layouts can get and how bad — the scale the
     success buckets span (same construction as the Figure 10 panel). *)
  let dg = Bamboo.Candidates.task_graph an.cstg prof in
  let grouping = Bamboo.Candidates.scc_grouping prog dg in
  let mults = Bamboo.Candidates.task_mults prog prof dg ~machine in
  let rng = Bamboo.Prng.create ~seed:(seed + 77) in
  let sample_layouts = ref [] in
  let seen = Hashtbl.create 64 in
  for _ = 1 to sample do
    List.iter
      (fun l ->
        let key = Bamboo.Layout.canonical_key l in
        if not (Hashtbl.mem seen key) then begin
          Hashtbl.replace seen key ();
          sample_layouts := l :: !sample_layouts
        end)
      (Bamboo.Candidates.random_candidates rng prog machine grouping
         (Bamboo.Candidates.perturb_mults rng machine prog mults)
         1)
  done;
  let sample_scores =
    Bamboo.Evaluator.batch_cycles ev !sample_layouts
    |> List.filter_map (fun c -> if c = max_int then None else Some (float_of_int c))
  in
  let ev0 = Bamboo.Evaluator.evaluated ev and h0 = Bamboo.Evaluator.cache_hits ev in
  let p0 = Bamboo.Evaluator.pruned ev in
  let t0 = Bamboo.Clock.now () in
  let outcomes =
    List.init trials (fun t ->
        Bamboo.Dsa.synthesize ~config ~starts ~tempering ~evaluator:ev
          ~seed:(seed + (1000 * t)) prog an.cstg prof machine)
  in
  let seconds = Bamboo.Clock.elapsed t0 in
  let trial_scores = List.map (fun (o : Bamboo.Dsa.outcome) -> float_of_int o.best_cycles) outcomes in
  let pool = trial_scores @ sample_scores in
  let best = Stats.minf pool and worst = Stats.maxf pool in
  let bucket = if worst > best then (worst -. best) /. 12.0 else 1.0 in
  let frac threshold =
    float_of_int (List.length (List.filter (fun c -> c <= threshold) trial_scores))
    /. float_of_int (max 1 trials)
  in
  let best_outcome =
    List.fold_left
      (fun (acc : Bamboo.Dsa.outcome) (o : Bamboo.Dsa.outcome) ->
        if o.best_cycles < acc.best_cycles then o else acc)
      (List.hd outcomes) (List.tl outcomes)
  in
  let digest_ok =
    let seq = Bamboo.execute ~args prog an best_outcome.best in
    let par =
      Bamboo.execute_parallel ~args ~domains:(min 4 machine.Machine.cores) ~seed:1 prog an
        best_outcome.best
    in
    b.b_check seq.r_output
    && par.Bamboo.Exec.x_digest
       = Bamboo.Canon.digest prog ~output:seq.r_output ~objects:seq.r_objects
  in
  let evaluated = Bamboo.Evaluator.evaluated ev - ev0 in
  let hits = Bamboo.Evaluator.cache_hits ev - h0 in
  {
    ss_name = b.b_name;
    ss_machine = machine.Machine.name;
    ss_cores = machine.Machine.cores;
    ss_trials = trials;
    ss_starts = starts;
    ss_restarts =
      List.fold_left (fun acc (o : Bamboo.Dsa.outcome) -> acc + o.restarts) 0 outcomes;
    ss_best_cycles = int_of_float best;
    ss_worst_sample = int_of_float worst;
    ss_outcomes = trial_scores;
    ss_success = frac (best +. bucket);
    ss_strict = frac (best *. 1.05);
    ss_evaluated = evaluated;
    ss_cache_hits = hits;
    ss_hit_rate =
      (if evaluated + hits > 0 then float_of_int hits /. float_of_int (evaluated + hits)
       else 0.0);
    ss_pruned = Bamboo.Evaluator.pruned ev - p0;
    ss_shards = Bamboo.Evaluator.cache_shards ev;
    ss_contention = Bamboo.Evaluator.cache_contention ev;
    ss_seconds = seconds;
    ss_starts_per_sec =
      (if seconds > 0.0 then float_of_int (trials * starts) /. seconds else 0.0);
    ss_digest_ok = digest_ok;
  }

(* ------------------------------------------------------------------ *)
(* Figure 11: generality of synthesized implementations *)

type fig11_result = {
  f11_name : string;
  f11_b1_double : int;          (* 1-core Bamboo cycles on the double input *)
  f11_orig_profile_cycles : int; (* double input under the original-profile layout *)
  f11_orig_profile_speedup : float;
  f11_double_profile_cycles : int; (* double input under the double-profile layout *)
  f11_double_profile_speedup : float;
}

(** Reproduce one row of Figure 11: run the doubled workload under
    (a) the layout synthesized from the original profile and (b) the
    layout synthesized from the doubled profile. *)
let fig11 ?(machine = Machine.tilepro64) ?(seed = 11) ?dsa_config ?jobs (b : Bench_def.t) :
    fig11_result =
  let prog = Bamboo.compile b.b_source in
  let an = Bamboo.analyse prog in
  let prof_orig = Bamboo.profile ~args:b.b_args prog in
  let prof_double = Bamboo.profile ~args:b.b_args_double prog in
  let layout_orig =
    (Bamboo.synthesize ?config:dsa_config ?jobs ~seed prog an prof_orig machine).best
  in
  let layout_double =
    (Bamboo.synthesize ?config:dsa_config ?jobs ~seed prog an prof_double machine).best
  in
  let r1 = Bamboo.Runtime.run_single ~args:b.b_args_double prog in
  let r_orig = Bamboo.execute ~args:b.b_args_double prog an layout_orig in
  let r_double = Bamboo.execute ~args:b.b_args_double prog an layout_double in
  {
    f11_name = b.b_name;
    f11_b1_double = r1.r_total_cycles;
    f11_orig_profile_cycles = r_orig.r_total_cycles;
    f11_orig_profile_speedup =
      Stats.speedup ~base:(float_of_int r1.r_total_cycles)
        ~par:(float_of_int r_orig.r_total_cycles);
    f11_double_profile_cycles = r_double.r_total_cycles;
    f11_double_profile_speedup =
      Stats.speedup ~base:(float_of_int r1.r_total_cycles)
        ~par:(float_of_int r_double.r_total_cycles);
  }
