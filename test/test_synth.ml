(** Tests for candidate generation, layout handling, and DSA. *)

module Ir = Bamboo.Ir
module Layout = Bamboo.Layout
module Machine = Bamboo.Machine
module Candidates = Bamboo.Candidates
module Dsa = Bamboo.Dsa

let setup () =
  let prog = Helpers.compile Helpers.counter_src in
  let an = Bamboo.analyse prog in
  let prof = Bamboo.profile ~args:[ "12" ] prog in
  (prog, an, prof)

let test_task_graph_edges () =
  let prog, an, prof = setup () in
  let dg = Candidates.task_graph an.cstg prof in
  let tid name = match Ir.find_task prog name with Some t -> t.Ir.t_id | None -> -1 in
  let edge src dst =
    Bamboo.Graph.succs dg (tid src)
    |> List.exists (fun (e : float Bamboo.Graph.edge) -> e.dst = tid dst)
  in
  Helpers.check_bool "startup -> work" true (edge "startup" "work");
  Helpers.check_bool "work -> collect" true (edge "work" "collect");
  Helpers.check_bool "no collect -> startup" false (edge "collect" "startup")

let test_rule_multiplicities () =
  let prog, an, prof = setup () in
  let machine = Machine.m16 in
  let dg = Candidates.task_graph an.cstg prof in
  let mults = Candidates.task_mults prog prof dg ~machine in
  let tid name = match Ir.find_task prog name with Some t -> t.Ir.t_id | None -> -1 in
  Helpers.check_int "startup pinned" 1 mults.(tid "startup");
  Helpers.check_int "multi-param collect pinned" 1 mults.(tid "collect");
  (* startup allocates 12 items per invocation: the data
     parallelization rule wants 12, capped by the 16-core machine *)
  Helpers.check_bool "work replicated" true (mults.(tid "work") >= 2);
  Helpers.check_bool "capped by cores" true (mults.(tid "work") <= machine.Machine.cores)

let test_random_candidates_valid_and_distinct () =
  let prog, an, prof = setup () in
  let machine = Machine.m16 in
  let _, _, layouts = Candidates.generate ~n:12 ~seed:3 prog an.cstg prof machine in
  Helpers.check_bool "some candidates" true (List.length layouts >= 6);
  List.iter
    (fun l -> Alcotest.(check (list string)) "valid" [] (Layout.validate prog l))
    layouts;
  let keys = List.map Layout.canonical_key layouts in
  Helpers.check_int "all distinct" (List.length keys) (List.length (List.sort_uniq compare keys))

let test_canonical_key_isomorphism () =
  let prog, _, _ = setup () in
  let machine = Machine.quad in
  let mk perm =
    let l = Layout.create machine ~ntasks:(Array.length prog.tasks) in
    Array.iter
      (fun (t : Ir.taskinfo) ->
        Layout.set_cores l t.t_id
          (if t.t_name = "work" then [| perm.(0); perm.(1) |] else [| perm.(2) |]))
      prog.tasks;
    l
  in
  let a = mk [| 0; 1; 2 |] in
  let b = mk [| 2; 3; 1 |] in
  Helpers.check_string "isomorphic layouts share a key" (Layout.canonical_key a)
    (Layout.canonical_key b);
  let c = mk [| 0; 1; 0 |] in
  Helpers.check_bool "different shape differs" true
    (Layout.canonical_key a <> Layout.canonical_key c)

let test_enumerate_capped_distinct () =
  let prog, an, prof = setup () in
  let machine = Machine.quad in
  let dg = Candidates.task_graph an.cstg prof in
  let grouping = Candidates.scc_grouping prog dg in
  let mults = Candidates.task_mults prog prof dg ~machine in
  let layouts = Candidates.enumerate ~cap:50 prog machine grouping mults in
  Helpers.check_bool "bounded" true (List.length layouts <= 50);
  Helpers.check_bool "found several" true (List.length layouts >= 10);
  let keys = List.map Layout.canonical_key layouts in
  Helpers.check_int "non-isomorphic" (List.length keys)
    (List.length (List.sort_uniq compare keys));
  List.iter
    (fun l -> Alcotest.(check (list string)) "valid" [] (Layout.validate prog l))
    layouts

let test_enumerate_skip_subsamples () =
  let prog, an, prof = setup () in
  let machine = Machine.quad in
  let dg = Candidates.task_graph an.cstg prof in
  let grouping = Candidates.scc_grouping prog dg in
  let mults = Candidates.task_mults prog prof dg ~machine in
  let full = List.length (Candidates.enumerate ~cap:5000 prog machine grouping mults) in
  let sampled =
    List.length (Candidates.enumerate ~cap:5000 ~skip:0.5 ~seed:2 prog machine grouping mults)
  in
  Helpers.check_bool "random skipping reduces the set" true (sampled < full)

let test_dsa_improves () =
  let prog, an, prof = setup () in
  ignore an;
  let machine = Machine.m16 in
  (* seed DSA with a deliberately bad layout: everything on core 0 *)
  let bad = Bamboo.Runtime.single_core_layout prog in
  let bad = { bad with Layout.machine } in
  let bad_est = Bamboo.estimate prog prof bad in
  let cfg = { Dsa.default_config with max_iterations = 10 } in
  let o = Dsa.optimize ~config:cfg ~seed:5 prog prof [ bad ] in
  Helpers.check_bool "dsa strictly improves a bad start" true (o.best_cycles < bad_est);
  Alcotest.(check (list string)) "result valid" [] (Layout.validate prog o.best)

let test_dsa_never_worse_than_seeds () =
  let prog, an, prof = setup () in
  let machine = Machine.m16 in
  let _, _, seeds = Candidates.generate ~n:6 ~seed:9 prog an.cstg prof machine in
  let best_seed =
    List.fold_left (fun acc l -> min acc (Bamboo.estimate prog prof l)) max_int seeds
  in
  let cfg = { Dsa.default_config with max_iterations = 6 } in
  let o = Dsa.optimize ~config:cfg ~seed:1 prog prof seeds in
  Helpers.check_bool "dsa <= best seed" true (o.best_cycles <= best_seed)

let test_synthesized_layout_runs () =
  let prog, an, prof = setup () in
  let o = Bamboo.synthesize ~seed:4 prog an prof Machine.quad in
  let r = Bamboo.execute ~args:[ "12" ] prog an o.best in
  Helpers.check_string "correct output under synthesized layout" "total: 156\n" r.r_output

let test_reoptimize () =
  let prog, an, prof = setup () in
  ignore prof;
  let r = Bamboo.Runtime.run_single ~args:[ "12" ] ~record_trace:true prog in
  let o = Bamboo.reoptimize ~seed:8 prog an r Machine.quad in
  Alcotest.(check (list string)) "reoptimized layout valid" [] (Layout.validate prog o.best);
  let r2 = Bamboo.execute ~args:[ "12" ] prog an o.best in
  Helpers.check_string "reoptimized layout correct" "total: 156\n" r2.r_output

(* ------------------------------------------------------------------ *)
(* Evaluation engine: memoization and jobs-independence *)

let test_evaluator_memoizes () =
  let prog, an, prof = setup () in
  let machine = Machine.m16 in
  let _, _, seeds = Candidates.generate ~n:4 ~seed:2 prog an.cstg prof machine in
  Bamboo.Evaluator.with_evaluator prog prof (fun ev ->
      let c1 = Bamboo.Evaluator.batch_cycles ev seeds in
      let fresh = Bamboo.Evaluator.evaluated ev in
      Helpers.check_int "every distinct seed simulated once" (List.length seeds) fresh;
      let c2 = Bamboo.Evaluator.batch_cycles ev seeds in
      Alcotest.(check (list int)) "cached scores identical" c1 c2;
      Helpers.check_int "no new simulations" fresh (Bamboo.Evaluator.evaluated ev);
      Helpers.check_int "hits counted" (List.length seeds) (Bamboo.Evaluator.cache_hits ev);
      (* the memoized direction matches a direct simulation *)
      let l = List.hd seeds in
      (match Bamboo.Evaluator.result ev l with
      | None -> Alcotest.fail "unexpected overrun"
      | Some d ->
          let direct = Bamboo.Schedsim.simulate prog prof l in
          Helpers.check_int "total cycles cached" direct.s_total_cycles d.d_total_cycles;
          Alcotest.(check (array int))
            "per-core busy cycles cached" direct.s_per_core_busy d.d_per_core_busy;
          Helpers.check_bool "direction non-empty" true (d.d_opportunities <> []);
          Helpers.check_bool "direction cached too" true
            (d.d_opportunities = Bamboo.Critpath.(opportunities (analyse direct)))))

let test_evaluator_parallel_matches_sequential () =
  let prog, an, prof = setup () in
  let machine = Machine.m16 in
  let _, _, seeds = Candidates.generate ~n:10 ~seed:6 prog an.cstg prof machine in
  let score jobs =
    Bamboo.Evaluator.with_evaluator ~jobs prog prof (fun ev ->
        Bamboo.Evaluator.batch_cycles ev seeds)
  in
  Alcotest.(check (list int)) "jobs=1 and jobs=4 scores identical" (score 1) (score 4)

let test_dsa_cache_hits_counted () =
  (* DSA reads each kept layout's direction every round.  Those reads
     are not evaluation requests: reading a scored layout's direction
     must leave the hit counter (and so the reported hit rate) alone. *)
  let prog, _, prof = setup () in
  let bad = { (Bamboo.Runtime.single_core_layout prog) with Layout.machine = Machine.m16 } in
  Bamboo.Evaluator.with_evaluator prog prof (fun ev ->
      ignore (Bamboo.Evaluator.batch_cycles ev [ bad ]);
      let hits = Bamboo.Evaluator.cache_hits ev in
      Helpers.check_bool "direction cached" true (Bamboo.Evaluator.result ev bad <> None);
      Helpers.check_int "direction read counts no hit" hits (Bamboo.Evaluator.cache_hits ev);
      Helpers.check_int "direction read simulates nothing" 1 (Bamboo.Evaluator.evaluated ev))

(* Same seed, different jobs: Dsa outcomes must be bit-identical
   (best layout key, cycles, iterations, evaluation counters). *)
let check_dsa_jobs_identical (b : Bamboo_benchmarks.Bench_def.t) args =
  let prog = Bamboo.compile b.b_source in
  let an = Bamboo.analyse prog in
  let prof = Bamboo.profile ~args prog in
  let machine = Machine.m16 in
  let cfg = { Dsa.default_config with max_iterations = 8 } in
  let run jobs = Bamboo.synthesize ~config:cfg ~jobs ~seed:7 prog an prof machine in
  let o1 = run 1 and o4 = run 4 in
  Helpers.check_string
    (b.b_name ^ ": best layout key identical")
    (Layout.canonical_key o1.best) (Layout.canonical_key o4.best);
  Helpers.check_int (b.b_name ^ ": cycles identical") o1.best_cycles o4.best_cycles;
  Helpers.check_int (b.b_name ^ ": iterations identical") o1.iterations o4.iterations;
  Helpers.check_int (b.b_name ^ ": evaluated identical") o1.evaluated o4.evaluated;
  Helpers.check_int (b.b_name ^ ": cache hits identical") o1.cache_hits o4.cache_hits;
  Helpers.check_int (b.b_name ^ ": pruned identical") o1.pruned o4.pruned;
  Helpers.check_int (b.b_name ^ ": sim events identical") o1.sim_events o4.sim_events

let test_dsa_jobs_deterministic_fractal () =
  let b = Bamboo_benchmarks.Registry.find "Fractal" in
  check_dsa_jobs_identical b (Helpers.small_args "Fractal")

let test_dsa_jobs_deterministic_series () =
  let b = Bamboo_benchmarks.Registry.find "Series" in
  check_dsa_jobs_identical b (Helpers.small_args "Series")

(* Multi-start + tempering + restarts: the lockstep driver must stay
   bit-identical across jobs — every chain's bound, every batch, every
   random draw happens on the calling domain. *)
let check_multistart_jobs_identical (b : Bamboo_benchmarks.Bench_def.t) args =
  let prog = Bamboo.compile b.b_source in
  let an = Bamboo.analyse prog in
  let prof = Bamboo.profile ~args prog in
  let machine = Machine.m16 in
  let cfg = { Dsa.default_config with max_iterations = 10; restart_stall = 3 } in
  let run jobs =
    Bamboo.synthesize ~config:cfg ~jobs ~starts:5 ~tempering:true ~seed:13 prog an prof
      machine
  in
  let o1 = run 1 and o8 = run 8 in
  Helpers.check_string
    (b.b_name ^ ": multi-start best key identical")
    (Layout.canonical_key o1.best) (Layout.canonical_key o8.best);
  Helpers.check_int (b.b_name ^ ": cycles identical") o1.best_cycles o8.best_cycles;
  Helpers.check_int (b.b_name ^ ": iterations identical") o1.iterations o8.iterations;
  Helpers.check_int (b.b_name ^ ": starts recorded") 5 o1.starts;
  Helpers.check_int (b.b_name ^ ": restarts identical") o1.restarts o8.restarts;
  Helpers.check_int (b.b_name ^ ": evaluated identical") o1.evaluated o8.evaluated;
  Helpers.check_int (b.b_name ^ ": cache hits identical") o1.cache_hits o8.cache_hits;
  Helpers.check_int (b.b_name ^ ": pruned identical") o1.pruned o8.pruned;
  Helpers.check_int (b.b_name ^ ": sim events identical") o1.sim_events o8.sim_events

let test_multistart_jobs_deterministic_fractal () =
  let b = Bamboo_benchmarks.Registry.find "Fractal" in
  check_multistart_jobs_identical b (Helpers.small_args "Fractal")

let test_multistart_jobs_deterministic_tracking () =
  let b = Bamboo_benchmarks.Registry.find "Tracking" in
  check_multistart_jobs_identical b (Helpers.small_args "Tracking")

let test_multistart_never_worse_than_single () =
  (* More chains can only widen the explored set; with a shared seed
     split per chain the single-start outcome is not literally a
     subset, but the multi-start best must still beat the worst seed
     and never regress below chain 0's own seeds' estimates. *)
  let prog, an, prof = setup () in
  let machine = Machine.m16 in
  let _, _, seeds = Candidates.generate ~n:4 ~seed:21 prog an.cstg prof machine in
  let best_seed =
    List.fold_left (fun acc l -> min acc (Bamboo.estimate prog prof l)) max_int seeds
  in
  let cfg = { Dsa.default_config with max_iterations = 6 } in
  let o = Dsa.optimize ~config:cfg ~starts:4 ~seed:21 prog prof seeds in
  Helpers.check_bool "multi-start <= best seed" true (o.best_cycles <= best_seed);
  Helpers.check_int "all chains ran" 4 o.starts

let test_restart_policy_triggers () =
  (* A tiny stall threshold on a long schedule must produce restarts,
     and restarting must never lose the incumbent. *)
  let prog, _, prof = setup () in
  let machine = Machine.m16 in
  let bad = { (Bamboo.Runtime.single_core_layout prog) with Layout.machine } in
  (* continue_prob = 1.0 keeps the chain alive through every plateau
     and restart_stall = 1 restarts on the first barren round, so a
     schedule long enough to converge must restart. *)
  let cfg =
    {
      Dsa.default_config with
      max_iterations = 24;
      restart_stall = 1;
      continue_prob = 1.0;
    }
  in
  let o = Dsa.optimize ~config:cfg ~seed:3 prog prof [ bad ] in
  let cfg_off = { cfg with restart_stall = 0 } in
  let o_off = Dsa.optimize ~config:cfg_off ~seed:3 prog prof [ bad ] in
  Helpers.check_bool "stalling chain restarted" true (o.restarts > 0);
  Helpers.check_int "restarts disabled" 0 o_off.restarts;
  Helpers.check_bool "restarts never lose the incumbent" true
    (o.best_cycles <= o_off.best_cycles || o.best_cycles < Bamboo.estimate prog prof bad)

let test_tempering_matches_baseline_at_zero_temp () =
  (* tempering anneals toward the configured probabilities; with a
     schedule already at its final iteration the draw sequence must
     match the untempered one, so a 1-iteration run is identical. *)
  let prog, _, prof = setup () in
  let machine = Machine.m16 in
  let bad = { (Bamboo.Runtime.single_core_layout prog) with Layout.machine } in
  let cfg = { Dsa.default_config with max_iterations = 12 } in
  let o_plain = Dsa.optimize ~config:cfg ~seed:17 prog prof [ bad ] in
  let o_temp = Dsa.optimize ~config:cfg ~tempering:true ~seed:17 prog prof [ bad ] in
  (* Both must converge on this small program even though the draw
     sequences differ; tempering must not break the optimizer. *)
  Helpers.check_bool "tempered run improves the bad start" true
    (o_temp.best_cycles < Bamboo.estimate prog prof bad);
  Helpers.check_bool "tempered run valid" true (Layout.validate prog o_temp.best = []);
  Helpers.check_bool "plain run improves too" true
    (o_plain.best_cycles < Bamboo.estimate prog prof bad)

(* The search at benchmark scale, pinned: the multi-start synthesis
   of every registry program but KMeans (left out for test time; the
   perfbench layout cycles pin it) must reproduce these exact outcome
   counters, so any change to how layouts are scored or directed that
   alters the search fails here. *)
let pinned_searches =
  (* program, best_cycles, evaluated, cache_hits, pruned, sim_events *)
  [
    ("Tracking", 7_131_665, 1_520, 953, 1_113, 3_083_029);
    ("MonteCarlo", 2_177_440, 304, 391, 188, 202_026);
    ("FilterBank", 1_532_729, 271, 325, 158, 165_508);
    ("Fractal", 1_274_060, 257, 331, 155, 313_306);
    ("Series", 1_065_851, 271, 325, 158, 165_534);
    ("KeywordCount", 9_833, 193, 132, 110, 20_905);
  ]

let test_registry_search_pinned () =
  List.iter
    (fun (name, best_cycles, evaluated, cache_hits, pruned, sim_events) ->
      let prog, an, prof = Helpers.registry_profiled (Bamboo_benchmarks.Registry.find name) in
      let o = Bamboo.synthesize ~jobs:2 ~starts:8 ~seed:42 prog an prof Machine.tilepro64 in
      Alcotest.(check (list int))
        (name ^ ": best_cycles, evaluated, cache_hits, pruned, sim_events")
        [ best_cycles; evaluated; cache_hits; pruned; sim_events ]
        [ o.best_cycles; o.evaluated; o.cache_hits; o.pruned; o.sim_events ])
    pinned_searches

(* batch_bounded: duplicate keys in one batch merge to the loosest
   bound, and every requester gets an answer consistent with its own
   bound. *)
let test_batch_bounded_merges_duplicates () =
  let prog, _, prof = setup () in
  let machine = Machine.m16 in
  let slow = { (Bamboo.Runtime.single_core_layout prog) with Layout.machine } in
  let slow_cycles = Bamboo.estimate prog prof slow in
  Bamboo.Evaluator.with_evaluator prog prof (fun ev ->
      (* same layout three times: tight bound, loose bound, unbounded.
         The merged request is unbounded, so one simulation answers
         all three with the true score. *)
      let rs =
        Bamboo.Evaluator.batch_bounded ev
          [ (slow, Some (slow_cycles / 4)); (slow, Some (slow_cycles * 2)); (slow, None) ]
      in
      Helpers.check_int "one simulation for the merged group" 1
        (Bamboo.Evaluator.evaluated ev);
      Helpers.check_int "coalesced duplicates count as hits" 2
        (Bamboo.Evaluator.cache_hits ev);
      List.iter
        (fun r ->
          Helpers.check_int "every requester sees the true score" slow_cycles
            (match r with Bamboo.Evaluator.Full d -> d.d_total_cycles | _ -> -1))
        rs;
      (* merged-to-bounded: two bounded requests merge to the loosest
         bound; the loose bound exceeds the true cycles so the sim
         completes and both requesters get the real score. *)
      let l2 =
        match
          Bamboo.Evaluator.batch_bounded ev
            [ (slow, Some (slow_cycles / 3)); (slow, Some (slow_cycles / 2)) ]
        with
        | [ a; b ] -> (a, b)
        | _ -> Alcotest.fail "two answers expected"
      in
      match l2 with
      | Full a, Full b ->
          Helpers.check_int "cached full result reused" slow_cycles a.d_total_cycles;
          Helpers.check_int "for both requesters" slow_cycles b.d_total_cycles
      | _ -> Alcotest.fail "cached Full expected for both")

let test_batch_bounded_prunes_at_loosest () =
  let prog, _, prof = setup () in
  let machine = Machine.m16 in
  let slow = { (Bamboo.Runtime.single_core_layout prog) with Layout.machine } in
  let slow_cycles = Bamboo.estimate prog prof slow in
  Bamboo.Evaluator.with_evaluator prog prof (fun ev ->
      (* both bounds below the true cycles: the group simulates once at
         the loosest bound, proves the total exceeds it, and the prune
         answers both (a total above the loosest bound is above the
         tighter one too). *)
      let rs =
        Bamboo.Evaluator.batch_bounded ev
          [ (slow, Some (slow_cycles / 4)); (slow, Some (slow_cycles / 2)) ]
      in
      Helpers.check_int "one bounded simulation" 1 (Bamboo.Evaluator.evaluated ev);
      Helpers.check_int "prune recorded" 1 (Bamboo.Evaluator.pruned ev);
      List.iter
        (fun r ->
          Helpers.check_bool "both requesters see the prune" true
            (Bamboo.Evaluator.cycles_of r = max_int))
        rs)

(* ------------------------------------------------------------------ *)
(* Bound-pruned evaluation *)

let test_evaluator_pruning_contract () =
  let prog, _, prof = setup () in
  let machine = Machine.m16 in
  (* A deliberately slow layout (everything on one core) and a bound
     taken from a faster one. *)
  let slow = { (Bamboo.Runtime.single_core_layout prog) with Layout.machine } in
  let slow_cycles = Bamboo.estimate prog prof slow in
  let bound = slow_cycles / 2 in
  Bamboo.Evaluator.with_evaluator prog prof (fun ev ->
      (* Bounded request: the slow layout cannot beat the bound, so it
         is pruned and scored max_int. *)
      let scores = Bamboo.Evaluator.batch_cycles ~cycle_bound:bound ev [ slow ] in
      Alcotest.(check (list int)) "pruned layout scores max_int" [ max_int ] scores;
      Helpers.check_int "prune counted" 1 (Bamboo.Evaluator.pruned ev);
      Helpers.check_int "one simulation" 1 (Bamboo.Evaluator.evaluated ev);
      Helpers.check_bool "events counted" true (Bamboo.Evaluator.sim_events ev > 0);
      (* The truncated simulation must never surface as a direction. *)
      Helpers.check_bool "no direction from a pruned sim" true
        (Bamboo.Evaluator.result ev slow = None);
      Helpers.check_int "result did not re-simulate" 1 (Bamboo.Evaluator.evaluated ev);
      (* A tighter bound is answered by the cached prune... *)
      let scores' = Bamboo.Evaluator.batch_cycles ~cycle_bound:(bound / 2) ev [ slow ] in
      Alcotest.(check (list int)) "tighter bound reuses the prune" [ max_int ] scores';
      Helpers.check_int "no new simulation for tighter bound" 1 (Bamboo.Evaluator.evaluated ev);
      (* ...but an unbounded request must re-simulate to completion and
         overwrite the entry with the full result. *)
      let full = Bamboo.Evaluator.batch_cycles ev [ slow ] in
      Alcotest.(check (list int)) "unbounded request gets the true score" [ slow_cycles ] full;
      Helpers.check_int "re-simulated once" 2 (Bamboo.Evaluator.evaluated ev);
      match Bamboo.Evaluator.result ev slow with
      | None -> Alcotest.fail "direction expected after unbounded re-simulation"
      | Some d -> Helpers.check_int "complete direction cached" slow_cycles d.d_total_cycles)

let test_evaluator_bound_not_reached_is_complete () =
  let prog, _, prof = setup () in
  let machine = Machine.m16 in
  let slow = { (Bamboo.Runtime.single_core_layout prog) with Layout.machine } in
  let slow_cycles = Bamboo.estimate prog prof slow in
  Bamboo.Evaluator.with_evaluator prog prof (fun ev ->
      (* A loose bound never triggers: the result is complete, cached
         as such, and scored with its true cycles. *)
      let scores = Bamboo.Evaluator.batch_cycles ~cycle_bound:(slow_cycles * 2) ev [ slow ] in
      Alcotest.(check (list int)) "loose bound completes" [ slow_cycles ] scores;
      Helpers.check_int "nothing pruned" 0 (Bamboo.Evaluator.pruned ev);
      Helpers.check_bool "direction available" true (Bamboo.Evaluator.result ev slow <> None))

let test_dsa_prunes_against_incumbent () =
  let prog, _, prof = setup () in
  let machine = Machine.m16 in
  let bad = { (Bamboo.Runtime.single_core_layout prog) with Layout.machine } in
  let cfg = { Dsa.default_config with max_iterations = 8 } in
  let o = Dsa.optimize ~config:cfg ~seed:5 prog prof [ bad ] in
  Helpers.check_bool "search prunes against the incumbent" true (o.pruned > 0);
  Helpers.check_bool "events accounted" true (o.sim_events > 0);
  (* Pruning must not change what the search returns: the best layout
     always simulates to completion (a prune needs the simulation to
     provably exceed the incumbent, which the winner never does). *)
  let o_ref = Dsa.optimize ~config:cfg ~seed:5 prog prof [ bad ] in
  Helpers.check_int "deterministic under pruning" o.best_cycles o_ref.best_cycles

let test_machine_model () =
  let m = Machine.tilepro64 in
  Helpers.check_int "62 usable cores" 62 m.Machine.cores;
  Helpers.check_int "self distance" 0 (Machine.distance m 5 5);
  Helpers.check_int "manhattan" 3 (Machine.distance m 0 10) (* (0,0) -> (2,1) *);
  Helpers.check_int "local transfer free" 0 (Machine.transfer_latency m ~src:3 ~dst:3 ~words:10);
  Helpers.check_bool "remote transfer costs" true
    (Machine.transfer_latency m ~src:0 ~dst:10 ~words:10 > 0)

let dsa_monotone_prop =
  QCheck.Test.make ~name:"dsa result never exceeds its seed estimate" ~count:6
    QCheck.(int_range 0 1000)
    (fun seed ->
      let prog, an, prof = setup () in
      let machine = Machine.quad in
      let _, _, seeds = Candidates.generate ~n:2 ~seed prog an.cstg prof machine in
      match seeds with
      | [] -> true
      | l :: _ ->
          let e = Bamboo.estimate prog prof l in
          let cfg = { Dsa.default_config with max_iterations = 4 } in
          let o = Dsa.optimize ~config:cfg ~seed prog prof [ l ] in
          o.best_cycles <= e)

let tests =
  [
    ( "synth.unit",
      [
        Alcotest.test_case "task graph" `Quick test_task_graph_edges;
        Alcotest.test_case "rule multiplicities" `Quick test_rule_multiplicities;
        Alcotest.test_case "random candidates" `Quick test_random_candidates_valid_and_distinct;
        Alcotest.test_case "canonical key" `Quick test_canonical_key_isomorphism;
        Alcotest.test_case "enumerate" `Quick test_enumerate_capped_distinct;
        Alcotest.test_case "enumerate skip" `Quick test_enumerate_skip_subsamples;
        Alcotest.test_case "dsa improves" `Quick test_dsa_improves;
        Alcotest.test_case "dsa vs seeds" `Quick test_dsa_never_worse_than_seeds;
        Alcotest.test_case "synthesized runs" `Quick test_synthesized_layout_runs;
        Alcotest.test_case "reoptimize" `Quick test_reoptimize;
        Alcotest.test_case "machine model" `Quick test_machine_model;
        Alcotest.test_case "evaluator memoizes" `Quick test_evaluator_memoizes;
        Alcotest.test_case "evaluator jobs-invariant" `Quick
          test_evaluator_parallel_matches_sequential;
        Alcotest.test_case "dsa cache hits" `Quick test_dsa_cache_hits_counted;
        Alcotest.test_case "evaluator pruning contract" `Quick test_evaluator_pruning_contract;
        Alcotest.test_case "evaluator loose bound" `Quick
          test_evaluator_bound_not_reached_is_complete;
        Alcotest.test_case "dsa prunes" `Quick test_dsa_prunes_against_incumbent;
        Alcotest.test_case "dsa jobs=1 = jobs=4 (Fractal)" `Quick
          test_dsa_jobs_deterministic_fractal;
        Alcotest.test_case "dsa jobs=1 = jobs=4 (Series)" `Quick
          test_dsa_jobs_deterministic_series;
        Alcotest.test_case "multi-start jobs=1 = jobs=8 (Fractal)" `Quick
          test_multistart_jobs_deterministic_fractal;
        Alcotest.test_case "multi-start jobs=1 = jobs=8 (Tracking)" `Quick
          test_multistart_jobs_deterministic_tracking;
        Alcotest.test_case "multi-start vs seeds" `Quick test_multistart_never_worse_than_single;
        Alcotest.test_case "restart policy" `Quick test_restart_policy_triggers;
        Alcotest.test_case "tempering" `Quick test_tempering_matches_baseline_at_zero_temp;
        Alcotest.test_case "batch_bounded merges duplicates" `Quick
          test_batch_bounded_merges_duplicates;
        Alcotest.test_case "batch_bounded prunes at loosest" `Quick
          test_batch_bounded_prunes_at_loosest;
        Alcotest.test_case "registry searches pinned" `Slow test_registry_search_pinned;
      ] );
    Helpers.qsuite "synth.qcheck" [ dsa_monotone_prop ];
  ]
