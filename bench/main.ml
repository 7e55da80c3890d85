(* Benchmark harness: regenerates every table and figure of the
   paper's evaluation (§5) and prints measured values next to the
   published ones.

   Usage:
     dune exec bench/main.exe                 -- all figures
     dune exec bench/main.exe fig7            -- one figure (fig7|fig9|fig10|fig11)
     dune exec bench/main.exe all --quick     -- smaller inputs and sampling
     dune exec bench/main.exe fig7 --jobs 4   -- parallel layout evaluation
     dune exec bench/main.exe fig7 --json out.json  -- machine-readable results
     dune exec bench/main.exe execbench       -- domains-backend scaling curve
     dune exec bench/main.exe execbench --json BENCH_pr4.json  -- machine-readable curve
     dune exec bench/main.exe stealbench      -- static vs work-stealing placement
     dune exec bench/main.exe stealbench --json BENCH_pr7.json  -- machine-readable comparison
     dune exec bench/main.exe interpbench     -- tree-walking oracle vs closure engine
     dune exec bench/main.exe interpbench --json BENCH_pr8.json  -- machine-readable comparison
     dune exec bench/main.exe synthbench      -- paper-scale multi-start synthesis
     dune exec bench/main.exe synthbench --json BENCH_pr9.json  -- machine-readable panels
     dune exec bench/main.exe servebench      -- streaming-runtime rate sweeps (saturation knee)
     dune exec bench/main.exe servebench --json BENCH_pr10.json -- machine-readable sweeps
     dune exec bench/main.exe bechamel        -- Bechamel micro-benchmarks

   --jobs N fans candidate-layout simulation across N domains
   (default: Domain.recommended_domain_count, capped at 8).  Results
   are bit-identical for every N; only wall-clock changes.

   Absolute cycle counts are not comparable with the paper (the
   TILEPro64 is replaced by a cost-model simulator, inputs are
   synthetic); the comparisons of interest are the shapes: speedup
   ranges and ordering, overhead magnitudes, simulator error
   magnitudes, DSA hit rates, and the Figure 11 generality story. *)

module Table = Bamboo.Table
module Stats = Bamboo.Stats
module Bench_def = Bamboo_benchmarks.Bench_def
module Registry = Bamboo_benchmarks.Registry
module Exp = Bamboo_benchmarks.Experiments

let fmt_f = Table.fmt_float

(* Paper values (Figures 7, 9, 11 and §5.1 text). *)
type paper_row = {
  p_name : string;
  p_speedup_b : float;
  p_speedup_c : float;
  p_overhead : float;
  p_err1 : float;
  p_err62 : float;
  p_gen_orig : float;
  p_gen_double : float;
}

let paper : paper_row list =
  [
    { p_name = "Tracking"; p_speedup_b = 26.2; p_speedup_c = 26.1; p_overhead = 0.3;
      p_err1 = -0.1; p_err62 = -3.9; p_gen_orig = 35.6; p_gen_double = 35.7 };
    { p_name = "KMeans"; p_speedup_b = 38.9; p_speedup_c = 35.1; p_overhead = 10.6;
      p_err1 = 1.7; p_err62 = -0.3; p_gen_orig = 40.9; p_gen_double = 41.0 };
    { p_name = "MonteCarlo"; p_speedup_b = 36.2; p_speedup_c = 34.2; p_overhead = 5.9;
      p_err1 = 0.2; p_err62 = -7.7; p_gen_orig = 36.2; p_gen_double = 52.3 };
    { p_name = "FilterBank"; p_speedup_b = 37.5; p_speedup_c = 37.5; p_overhead = 0.1;
      p_err1 = -0.02; p_err62 = -4.7; p_gen_orig = 55.8; p_gen_double = 55.8 };
    { p_name = "Fractal"; p_speedup_b = 61.6; p_speedup_c = 58.0; p_overhead = 6.2;
      p_err1 = -1.1; p_err62 = 0.0; p_gen_orig = 50.0; p_gen_double = 56.8 };
    { p_name = "Series"; p_speedup_b = 61.2; p_speedup_c = 57.6; p_overhead = 6.3;
      p_err1 = -1.5; p_err62 = -2.9; p_gen_orig = 61.8; p_gen_double = 59.5 };
  ]

let paper_of name = List.find (fun p -> p.p_name = name) paper

(* Runtime knobs, set once from the command line before dispatch. *)
let jobs = ref 1
let quick = ref false

(* Small inputs and a short DSA schedule for --quick runs (CI smoke):
   the paper columns stop being comparable, but every pipeline stage
   still runs end to end. *)
let quick_args = function
  | "Tracking" -> Some [ "64"; "16"; "4"; "2"; "8" ]
  | "KMeans" -> Some [ "400"; "2"; "3"; "4"; "4" ]
  | "MonteCarlo" -> Some [ "8"; "60" ]
  | "FilterBank" -> Some [ "6"; "64"; "8" ]
  | "Fractal" -> Some [ "32"; "16"; "8"; "24" ]
  | "Series" -> Some [ "8"; "40"; "4" ]
  | "KeywordCount" -> Some [ "6"; "40" ]
  | _ -> None

let quick_dsa_config =
  { Bamboo.Dsa.default_config with max_iterations = 6; initial_candidates = 4 }

(* Shared Figure 7/9 measurements, computed once. *)
let results : Exp.bench_result list Lazy.t =
  lazy
    (List.map
       (fun (b : Bench_def.t) ->
         Printf.eprintf "[bench] evaluating %s...\n%!" b.b_name;
         if !quick then
           Exp.evaluate ~machine:Bamboo.Machine.m16 ~dsa_config:quick_dsa_config ~jobs:!jobs
             ?args:(quick_args b.b_name) b
         else Exp.evaluate ~jobs:!jobs b)
       Registry.paper_benchmarks)

let evals_per_sec (r : Exp.bench_result) =
  if r.br_dsa_seconds > 0.0 then float_of_int r.br_dsa_evaluated /. r.br_dsa_seconds else 0.0

let dsa_events_per_sec (r : Exp.bench_result) =
  if r.br_dsa_seconds > 0.0 then float_of_int r.br_dsa_sim_events /. r.br_dsa_seconds else 0.0

let cache_hit_rate (r : Exp.bench_result) =
  let total = r.br_dsa_evaluated + r.br_dsa_cache_hits in
  if total > 0 then float_of_int r.br_dsa_cache_hits /. float_of_int total else 0.0

let fig7 () =
  print_endline "== Figure 7: speedup of the benchmarks on 62 cores ==";
  print_endline
    "   (cycle counts are model cycles; paper columns are the published ratios)";
  let rows =
    List.map
      (fun (r : Exp.bench_result) ->
        let p = paper_of r.br_name in
        [
          r.br_name;
          string_of_int r.br_c;
          string_of_int r.br_b1;
          string_of_int r.br_bn;
          fmt_f (Exp.speedup_b r);
          fmt_f p.p_speedup_b;
          fmt_f (Exp.speedup_c r);
          fmt_f p.p_speedup_c;
          fmt_f (Exp.overhead_pct r);
          fmt_f p.p_overhead;
          (if r.br_ok then "yes" else "NO");
        ])
      (Lazy.force results)
  in
  Table.print
    ~headers:
      [
        "Benchmark"; "1-core C"; "1-core Bamboo"; "62-core Bamboo";
        "spd/Bamboo"; "(paper)"; "spd/C"; "(paper)"; "overhead%"; "(paper)"; "ok";
      ]
    rows;
  print_endline "";
  Printf.printf
    "-- DSA optimization time (jobs=%d; paper: 78 s Tracking, 10 s KMeans, <0.2 s others) --\n"
    !jobs;
  Table.print
    ~headers:
      [
        "Benchmark"; "DSA seconds"; "evaluated"; "cache hits"; "hit rate"; "pruned";
        "evals/sec"; "events/sec";
      ]
    (List.map
       (fun (r : Exp.bench_result) ->
         [
           r.br_name;
           fmt_f r.br_dsa_seconds;
           string_of_int r.br_dsa_evaluated;
           string_of_int r.br_dsa_cache_hits;
           Printf.sprintf "%.0f%%" (100.0 *. cache_hit_rate r);
           string_of_int r.br_dsa_pruned;
           Printf.sprintf "%.0f" (evals_per_sec r);
           Printf.sprintf "%.3g" (dsa_events_per_sec r);
         ])
       (Lazy.force results));
  print_endline ""

let fig9 () =
  print_endline "== Figure 9: accuracy of the scheduling simulator ==";
  let rows =
    List.map
      (fun (r : Exp.bench_result) ->
        let p = paper_of r.br_name in
        [
          r.br_name;
          string_of_int r.br_est1;
          string_of_int r.br_b1;
          Printf.sprintf "%+.1f%%" (Exp.err1_pct r);
          Printf.sprintf "%+.1f%%" p.p_err1;
          string_of_int r.br_estn;
          string_of_int r.br_bn;
          Printf.sprintf "%+.1f%%" (Exp.errn_pct r);
          Printf.sprintf "%+.1f%%" p.p_err62;
        ])
      (Lazy.force results)
  in
  Table.print
    ~headers:
      [
        "Benchmark"; "1-core est"; "1-core real"; "err"; "(paper)";
        "62-core est"; "62-core real"; "err"; "(paper)";
      ]
    rows;
  print_endline ""

let fig10 ~quick () =
  print_endline "== Figure 10: efficiency of directed simulated annealing (16 cores) ==";
  print_endline
    "   (paper: best layouts are rare among all candidates; DSA reaches the best\n\
    \    bucket with >=98% probability; Tracking's exhaustive enumeration skipped)";
  let enumerate_cap = if quick then 300 else 1000 in
  let dsa_starts = if quick then 10 else 40 in
  (* Lighter workloads keep the thousands of scheduling simulations
     tractable for the two benchmarks with many invocations. *)
  let fig10_args (b : Bench_def.t) =
    match b.b_name with
    | "KMeans" -> Some [ "6200"; "4"; "5"; "31"; "4" ]
    | "Tracking" -> Some [ "96"; "62"; "31"; "3"; "62" ]
    | _ -> None
  in
  List.iter
    (fun (b : Bench_def.t) ->
      Printf.eprintf "[bench] fig10 %s...\n%!" b.b_name;
      let exhaustive = b.b_name <> "Tracking" in
      let r =
        Exp.fig10 ~enumerate_cap ~dsa_starts ~exhaustive ~jobs:!jobs ?args:(fig10_args b) b
      in
      Printf.printf "-- %s --\n" b.b_name;
      (match r.f10_all with
      | [] -> print_endline "  (exhaustive enumeration skipped, as in the paper)"
      | all ->
          Printf.printf
            "  all candidates (%d evaluated): best bucket %.1f%%, within 5%% of best: %.1f%%\n"
            (List.length all)
            (100.0 *. r.f10_random_best_prob)
            (100.0 *. r.f10_random_strict_prob);
          print_endline (Table.render_histogram (Stats.histogram_pct ~bins:12 all)));
      Printf.printf
        "  DSA outcomes from %d random starts: best bucket %.1f%% (paper >= 98%%), within 5%% of best: %.1f%%\n"
        (List.length r.f10_dsa)
        (100.0 *. r.f10_best_prob)
        (100.0 *. r.f10_strict_prob);
      print_endline (Table.render_histogram (Stats.histogram_pct ~bins:12 r.f10_dsa));
      print_endline "")
    Registry.paper_benchmarks

let fig11 () =
  print_endline "== Figure 11: generality of synthesized implementations (doubled input) ==";
  let rows =
    List.map
      (fun (b : Bench_def.t) ->
        Printf.eprintf "[bench] fig11 %s...\n%!" b.b_name;
        let r = Exp.fig11 ~jobs:!jobs b in
        let p = paper_of b.b_name in
        [
          r.f11_name;
          string_of_int r.f11_b1_double;
          string_of_int r.f11_orig_profile_cycles;
          fmt_f r.f11_orig_profile_speedup;
          fmt_f p.p_gen_orig;
          string_of_int r.f11_double_profile_cycles;
          fmt_f r.f11_double_profile_speedup;
          fmt_f p.p_gen_double;
        ])
      Registry.paper_benchmarks
  in
  Table.print
    ~headers:
      [
        "Benchmark"; "1-core"; "orig-prof 62c"; "spd"; "(paper)";
        "double-prof 62c"; "spd"; "(paper)";
      ]
    rows;
  print_endline ""

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per pipeline stage that
   backs a table/figure. *)

let bechamel () =
  let open Bechamel in
  let kw = Registry.keyword_counter in
  let prog = Bamboo.compile kw.b_source in
  let an = Bamboo.analyse prog in
  let prof = Bamboo.profile ~args:kw.b_args prog in
  let layout = Bamboo.Runtime.single_core_layout prog in
  let tests =
    Test.make_grouped ~name:"bamboo"
      [
        Test.make ~name:"frontend.compile (fig7 input)"
          (Staged.stage (fun () -> ignore (Bamboo.compile kw.b_source)));
        Test.make ~name:"analysis.astg+disjoint (fig3)"
          (Staged.stage (fun () -> ignore (Bamboo.analyse prog)));
        Test.make ~name:"runtime.execute 1-core (fig7)"
          (Staged.stage (fun () -> ignore (Bamboo.Runtime.run_single ~args:kw.b_args prog)));
        Test.make ~name:"sim.schedsim (fig9 estimate)"
          (Staged.stage (fun () -> ignore (Bamboo.Schedsim.simulate prog prof layout)));
        Test.make ~name:"sim.critpath (fig6)"
          (Staged.stage (fun () ->
               let r = Bamboo.Schedsim.simulate prog prof layout in
               ignore (Bamboo.Critpath.analyse r)));
        Test.make ~name:"synth.candidates (fig10)"
          (Staged.stage (fun () ->
               ignore
                 (Bamboo.Candidates.generate ~n:8 ~seed:3 prog an.cstg prof Bamboo.Machine.m16)));
      ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let raws =
    Benchmark.all
      (Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ())
      [ instance ] tests
  in
  let results =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
      instance raws
  in
  print_endline "== Bechamel micro-benchmarks (pipeline stages) ==";
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> Printf.printf "  %-44s %14.0f ns/run\n%!" name est
      | _ -> Printf.printf "  %-44s (no estimate)\n%!" name)
    results

(* ------------------------------------------------------------------ *)
(* execbench: scaling curve of the parallel OCaml-domains execution
   backend (lib/exec) over 1/2/4/8 domains.  Every point is checked
   against the sequential runtime's canonical digest before its time
   is reported — a fast-but-wrong backend scores zero here.  Wall
   times only mean speedup on a machine with that many cores; the
   digest column is meaningful everywhere. *)

type execpoint = {
  xp_domains : int;
  xp_wall : float;
  xp_invocations : int;
  xp_messages : int;
  xp_retries : int;
  xp_cycles : int;
  xp_idle_polls : int; (* scheduler steps that made no progress, summed over cores *)
}

type execrow = {
  xr_name : string;
  xr_cores : int;
  xr_digest : string;
  xr_digest_ok : bool; (* all domain counts matched the reference *)
  xr_seq_wall : float;
  xr_points : execpoint list;
}

let exec_domain_counts = [ 1; 2; 4; 8 ]

let xp_speedup (r : execrow) (p : execpoint) =
  let base = List.find (fun q -> q.xp_domains = 1) r.xr_points in
  if p.xp_wall > 0.0 then base.xp_wall /. p.xp_wall else 0.0

let execbench_results : execrow list Lazy.t =
  lazy
    (let machine = Bamboo.Machine.with_cores Bamboo.Machine.tilepro64 8 in
     let reps = if !quick then 1 else 3 in
     List.map
       (fun (b : Bench_def.t) ->
         Printf.eprintf "[bench] execbench %s...\n%!" b.b_name;
         let args =
           if !quick then Option.value ~default:b.b_args (quick_args b.b_name) else b.b_args
         in
         let prog = Bamboo.compile b.b_source in
         let an = Bamboo.analyse prog in
         let layout = Bamboo.Exec.spread_layout prog machine in
         let t0 = Bamboo.Clock.now () in
         let seq = Bamboo.Runtime.run ~args ~lock_groups:an.lock_groups prog layout in
         let seq_wall = Bamboo.Clock.elapsed t0 in
         let expected =
           Bamboo.Canon.digest prog ~output:seq.r_output ~objects:seq.r_objects
         in
         let ok = ref true in
         let points =
           List.map
             (fun domains ->
               (* Best of [reps]: quiescence detection makes wall time
                  noisy at small inputs, and min is the standard
                  estimator for the noise-free floor. *)
               let best = ref None in
               for rep = 1 to reps do
                 let r =
                   Bamboo.Exec.run ~args ~domains ~seed:(domains + rep)
                     ~max_invocations:50_000_000 ~lock_groups:an.lock_groups prog layout
                 in
                 if r.x_digest <> expected then ok := false;
                 match !best with
                 | Some (b : Bamboo.Exec.result) when b.x_wall_seconds <= r.x_wall_seconds ->
                     ()
                 | _ -> best := Some r
               done;
               let r = Option.get !best in
               {
                 xp_domains = domains;
                 xp_wall = r.x_wall_seconds;
                 xp_invocations = r.x_invocations;
                 xp_messages = r.x_messages;
                 xp_retries = r.x_lock_retries;
                 xp_cycles = r.x_cycles;
                 xp_idle_polls = r.x_idle_polls;
               })
             exec_domain_counts
         in
         {
           xr_name = b.b_name;
           xr_cores = machine.cores;
           xr_digest = expected;
           xr_digest_ok = !ok;
           xr_seq_wall = seq_wall;
           xr_points = points;
         })
       Registry.paper_benchmarks)

let execbench () =
  let rows = Lazy.force execbench_results in
  print_endline "== execbench: parallel domains backend, 8-core spread layout ==";
  Printf.printf
    "   (wall seconds, best of %s; speedup vs 1 domain; digest vs sequential runtime;\n\
    \    host reports %d recommended domains — speedups need real cores)\n"
    (if !quick then "1 rep" else "5 reps")
    (Domain.recommended_domain_count ());
  Table.print
    ~headers:
      [
        "Benchmark"; "seq s"; "1d s"; "2d s"; "4d s"; "8d s";
        "spd@2"; "spd@4"; "spd@8"; "msgs@8"; "retries@8"; "digest";
      ]
    (List.map
       (fun r ->
         let p n = List.find (fun q -> q.xp_domains = n) r.xr_points in
         [
           r.xr_name;
           Printf.sprintf "%.3f" r.xr_seq_wall;
           Printf.sprintf "%.3f" (p 1).xp_wall;
           Printf.sprintf "%.3f" (p 2).xp_wall;
           Printf.sprintf "%.3f" (p 4).xp_wall;
           Printf.sprintf "%.3f" (p 8).xp_wall;
           Printf.sprintf "%.2fx" (xp_speedup r (p 2));
           Printf.sprintf "%.2fx" (xp_speedup r (p 4));
           Printf.sprintf "%.2fx" (xp_speedup r (p 8));
           string_of_int (p 8).xp_messages;
           string_of_int (p 8).xp_retries;
           (if r.xr_digest_ok then "ok" else "MISMATCH");
         ])
       rows);
  print_endline "";
  if List.exists (fun r -> not r.xr_digest_ok) rows then (
    prerr_endline "[bench] execbench: digest mismatch against the sequential runtime";
    exit 1)

(* ------------------------------------------------------------------ *)
(* stealbench: static placement vs the work-stealing scheduler
   (--schedule steal) on the same 8-core spread layout.  Every point —
   both modes, every domain count — is digest-checked against the
   sequential runtime before its time is reported, so the comparison
   can never trade correctness for speed.  Wall-clock differences only
   mean anything on a host with real cores (CI's runner); steal counts
   and idle-poll counts are meaningful everywhere. *)

type stealpoint = {
  sp_domains : int;
  sp_static_wall : float;
  sp_steal_wall : float;
  sp_static_cycles : int;
  sp_steal_cycles : int;
  sp_static_idle_polls : int;
  sp_steal_idle_polls : int;
  sp_steal_attempts : int;
  sp_steals : int;
  sp_steal_aborts : int;
  sp_stolen_invocations : int;
  sp_core_stats : Bamboo.Exec.core_stats array; (* steal run, best rep *)
}

type stealrow = {
  sr_name : string;
  sr_cores : int;
  sr_steal_safe_tasks : int; (* tasks the BAM011 contract lets thieves take *)
  sr_tasks : int;
  sr_digest : string;
  sr_digest_ok : bool; (* both modes, all domain counts matched the reference *)
  sr_points : stealpoint list;
}

let sp_speedup p = if p.sp_steal_wall > 0.0 then p.sp_static_wall /. p.sp_steal_wall else 0.0

let stealbench_results : stealrow list Lazy.t =
  lazy
    (let machine = Bamboo.Machine.with_cores Bamboo.Machine.tilepro64 8 in
     let reps = if !quick then 1 else 3 in
     List.map
       (fun (b : Bench_def.t) ->
         Printf.eprintf "[bench] stealbench %s...\n%!" b.b_name;
         let args =
           if !quick then Option.value ~default:b.b_args (quick_args b.b_name) else b.b_args
         in
         let prog = Bamboo.compile b.b_source in
         let an = Bamboo.analyse prog in
         (* Compute the BAM011 steal-safety contract once per program
            instead of per run (Exec.run would re-derive it). *)
         let eff = Bamboo.Effects.analyse prog an.astgs in
         let contract = Bamboo.Effects.steal_contract eff ~lock_groups:an.lock_groups prog in
         let steal_safe = contract.Bamboo.Effects.st_safe in
         let layout = Bamboo.Exec.spread_layout prog machine in
         let seq = Bamboo.Runtime.run ~args ~lock_groups:an.lock_groups prog layout in
         let expected =
           Bamboo.Canon.digest prog ~output:seq.r_output ~objects:seq.r_objects
         in
         let ok = ref true in
         let best_of schedule domains =
           let best = ref None in
           for rep = 1 to reps do
             let r =
               Bamboo.Exec.run ~args ~domains ~seed:(domains + rep)
                 ~max_invocations:50_000_000 ~lock_groups:an.lock_groups ~schedule
                 ~steal_safe prog layout
             in
             if r.Bamboo.Exec.x_digest <> expected then ok := false;
             match !best with
             | Some (b : Bamboo.Exec.result) when b.x_wall_seconds <= r.x_wall_seconds -> ()
             | _ -> best := Some r
           done;
           Option.get !best
         in
         let points =
           List.map
             (fun domains ->
               let st = best_of Bamboo.Exec.Static domains in
               let sl = best_of Bamboo.Exec.Steal domains in
               {
                 sp_domains = domains;
                 sp_static_wall = st.x_wall_seconds;
                 sp_steal_wall = sl.x_wall_seconds;
                 sp_static_cycles = st.x_cycles;
                 sp_steal_cycles = sl.x_cycles;
                 sp_static_idle_polls = st.x_idle_polls;
                 sp_steal_idle_polls = sl.x_idle_polls;
                 sp_steal_attempts = sl.x_steal_attempts;
                 sp_steals = sl.x_steals;
                 sp_steal_aborts = sl.x_steal_aborts;
                 sp_stolen_invocations = sl.x_stolen_invocations;
                 sp_core_stats = sl.x_core_stats;
               })
             exec_domain_counts
         in
         let safe_tasks = Array.fold_left (fun a s -> if s then a + 1 else a) 0 steal_safe in
         {
           sr_name = b.b_name;
           sr_cores = machine.cores;
           sr_steal_safe_tasks = safe_tasks;
           sr_tasks = Array.length steal_safe;
           sr_digest = expected;
           sr_digest_ok = !ok;
           sr_points = points;
         })
       Registry.all)

let stealbench () =
  let rows = Lazy.force stealbench_results in
  print_endline "== stealbench: static vs work-stealing placement, 8-core spread layout ==";
  Printf.printf
    "   (wall seconds, best of %s; speedup is static/steal at the same domain count;\n\
    \    every point digest-checked against the sequential runtime;\n\
    \    host reports %d recommended domains — speedups need real cores)\n"
    (if !quick then "1 rep" else "5 reps")
    (Domain.recommended_domain_count ());
  Table.print
    ~headers:
      [
        "Benchmark"; "safe tasks"; "static@8 s"; "steal@8 s"; "spd@8";
        "steals@8"; "aborts@8"; "idle st@8"; "idle sl@8"; "digest";
      ]
    (List.map
       (fun r ->
         let p = List.find (fun q -> q.sp_domains = 8) r.sr_points in
         [
           r.sr_name;
           Printf.sprintf "%d/%d" r.sr_steal_safe_tasks r.sr_tasks;
           Printf.sprintf "%.3f" p.sp_static_wall;
           Printf.sprintf "%.3f" p.sp_steal_wall;
           Printf.sprintf "%.2fx" (sp_speedup p);
           string_of_int p.sp_steals;
           string_of_int p.sp_steal_aborts;
           string_of_int p.sp_static_idle_polls;
           string_of_int p.sp_steal_idle_polls;
           (if r.sr_digest_ok then "ok" else "MISMATCH");
         ])
       rows);
  print_endline "";
  if List.exists (fun r -> not r.sr_digest_ok) rows then (
    prerr_endline "[bench] stealbench: digest mismatch against the sequential runtime";
    exit 1)

(* ------------------------------------------------------------------ *)
(* interpbench: the two interpreter engines — tree-walking oracle and
   closure engine — timed on the same sequential runtime workload.
   Every row cross-checks the canonical digest AND the exact charged
   cycle total across both engines before reporting a time; the
   speedup column counts the closure engine's one-off code generation
   (IR to bytecode to closures, part of end-to-end `bamboo run`)
   against it. *)

type interprow = {
  ir_name : string;
  ir_codegen_seconds : float;  (* IR -> closures, once per program *)
  ir_tree_wall : float;
  ir_clos_wall : float;
  ir_reps : int;
  ir_cycles : int;
  ir_cycles_ok : bool;
  ir_digest_ok : bool;
}

(* Wall-time speedup of the closure engine over the tree walker, with
   its one-off code generation counted against it. *)
let ir_speedup_clos r =
  let clos = r.ir_clos_wall +. r.ir_codegen_seconds in
  if clos > 0.0 then r.ir_tree_wall /. clos else 0.0

let ir_clos_cycles_per_sec r =
  if r.ir_clos_wall > 0.0 then float_of_int r.ir_cycles /. r.ir_clos_wall else 0.0

let interpbench_results : interprow list Lazy.t =
  lazy
    (let reps = if !quick then 1 else 5 in
     let with_engine e f =
       let saved = !Bamboo.Interp.engine in
       Bamboo.Interp.engine := e;
       Fun.protect ~finally:(fun () -> Bamboo.Interp.engine := saved) f
     in
     List.map
       (fun (b : Bench_def.t) ->
         Printf.eprintf "[bench] interpbench %s...\n%!" b.b_name;
         let args =
           if !quick then Option.value ~default:b.b_args (quick_args b.b_name) else b.b_args
         in
         let prog = Bamboo.compile b.b_source in
         let t0 = Bamboo.Clock.now () in
         ignore (Bamboo.Iclosure.get prog);
         let codegen_seconds = Bamboo.Clock.elapsed t0 in
         let time_engine e =
           with_engine e (fun () ->
               let best = ref infinity and last = ref None in
               for _ = 1 to reps do
                 let t0 = Bamboo.Clock.now () in
                 let r = Bamboo.Runtime.run_single ~args prog in
                 let w = Bamboo.Clock.elapsed t0 in
                 if w < !best then best := w;
                 last := Some r
               done;
               let r = Option.get !last in
               ( !best,
                 r.r_total_cycles,
                 Bamboo.Canon.digest prog ~output:r.r_output ~objects:r.r_objects ))
         in
         let clos_wall, clos_cycles, clos_digest = time_engine Bamboo.Interp.Closure in
         let tree_wall, tree_cycles, tree_digest = time_engine Bamboo.Interp.Tree in
         {
           ir_name = b.b_name;
           ir_codegen_seconds = codegen_seconds;
           ir_tree_wall = tree_wall;
           ir_clos_wall = clos_wall;
           ir_reps = reps;
           ir_cycles = clos_cycles;
           ir_cycles_ok = clos_cycles = tree_cycles;
           ir_digest_ok = clos_digest = tree_digest;
         })
       Registry.all)

let interpbench () =
  let rows = Lazy.force interpbench_results in
  print_endline "== interpbench: tree oracle vs closure engine ==";
  Printf.printf
    "   (sequential runtime, best of %s; the speedup counts one-off codegen time;\n\
    \    cycles and digest are asserted bit-identical across both engines)\n"
    (if !quick then "1 rep" else "5 reps");
  Table.print
    ~headers:
      [
        "Benchmark"; "codegen s"; "tree s"; "closure s"; "clos/tree"; "Mcycles/s"; "cycles";
        "digest";
      ]
    (List.map
       (fun r ->
         [
           r.ir_name;
           Printf.sprintf "%.4f" r.ir_codegen_seconds;
           Printf.sprintf "%.3f" r.ir_tree_wall;
           Printf.sprintf "%.3f" r.ir_clos_wall;
           Printf.sprintf "%.2fx" (ir_speedup_clos r);
           Printf.sprintf "%.1f" (ir_clos_cycles_per_sec r /. 1e6);
           (if r.ir_cycles_ok then "ok" else "MISMATCH");
           (if r.ir_digest_ok then "ok" else "MISMATCH");
         ])
       rows);
  print_endline "";
  if List.exists (fun r -> not (r.ir_cycles_ok && r.ir_digest_ok)) rows then (
    prerr_endline "[bench] interpbench: engines disagree on cycles or digest";
    exit 1)

(* ------------------------------------------------------------------ *)
(* synthbench: paper-scale multi-start synthesis.  Three panels per
   benchmark:

   1. scale — repeated full syntheses (multi-start + tempering over a
      shared sharded memo cache) on the Figure 10 machine, reporting
      the best-bucket success rate the paper's "~1000 starting points"
      claim rests on, plus cache hit rate and shard contention;
   2. scaling — one synthesis per --jobs point with a FRESH evaluator
      each (a warm cache would turn the second run into pure hits and
      fake the curve), asserting bit-identical results across jobs;
   3. mesh — the same synthesis against the mesh128/mesh256 scale-up
      targets, to show where each benchmark's estimated speedup
      saturates.

   Wall-clock scaling only means anything with real cores (CI's
   multi-core runner); success rates, hit rates, digests and the
   jobs-determinism check are meaningful everywhere. *)

type synthpoint = {
  yp_jobs : int;
  yp_wall : float;
  yp_cycles : int;     (* best estimated cycles — must not depend on jobs *)
  yp_evaluated : int;  (* distinct layouts simulated — must not either *)
}

type meshrow = {
  my_machine : string;
  my_cores : int;
  my_best_cycles : int;
  my_est_speedup : float; (* estimated 1-core cycles / best cycles *)
  my_evaluated : int;
  my_hit_rate : float;
  my_shards : int;
  my_contention : int;
  my_wall : float;
}

type synthrow = {
  sy_scale : Exp.synth_scale_result;
  sy_points : synthpoint list;
  sy_jobs_identical : bool; (* scaling points agree on cycles and evaluated *)
  sy_mesh : meshrow list;
}

(* The Tracking attractor only shows at a workload with real task-level
   slack, but full inputs make thousands of simulated syntheses
   intractable — same lighter inputs as the Figure 10 panel. *)
let synthbench_args (b : Bench_def.t) =
  if !quick then quick_args b.b_name
  else
    match b.b_name with
    | "KMeans" -> Some [ "6200"; "4"; "5"; "31"; "4" ]
    | "Tracking" -> Some [ "96"; "62"; "31"; "3"; "62" ]
    | _ -> None

let synthbench_set : Bench_def.t list =
  List.filter
    (fun (b : Bench_def.t) -> List.mem b.b_name [ "Tracking"; "Fractal"; "KMeans" ])
    Registry.paper_benchmarks

let synthbench_results : synthrow list Lazy.t =
  lazy
    (let trials = if !quick then 8 else 20 in
     let trial_starts = if !quick then 4 else 12 in
     let sample = if !quick then 60 else 150 in
     let starts = if !quick then 6 else 16 in
     let reps = if !quick then 1 else 2 in
     let cfg = Exp.synth_scale_config in
     let jobs_points = List.filter (fun d -> d <= max 1 !jobs) exec_domain_counts in
     List.map
       (fun (b : Bench_def.t) ->
         Printf.eprintf "[bench] synthbench %s...\n%!" b.b_name;
         let args = Option.value ~default:b.b_args (synthbench_args b) in
         let scale =
           Exp.synth_scale ~trials ~starts:trial_starts ~sample ~jobs:!jobs ~args b
         in
         let prog = Bamboo.compile b.b_source in
         let an = Bamboo.analyse prog in
         let prof = Bamboo.profile ~args prog in
         let est1 = Bamboo.estimate prog prof (Bamboo.Runtime.single_core_layout prog) in
         let run_at j =
           (* Fresh evaluator inside each synthesize call: every point
              pays the same cache misses, so the walls are comparable. *)
           let best = ref None in
           for _ = 1 to reps do
             let o =
               Bamboo.Dsa.synthesize ~config:cfg ~starts ~tempering:true ~jobs:j ~seed:77
                 prog an.cstg prof Bamboo.Machine.tilepro64
             in
             match !best with
             | Some (k : Bamboo.Dsa.outcome) when k.seconds <= o.seconds -> ()
             | _ -> best := Some o
           done;
           Option.get !best
         in
         let points =
           List.map
             (fun j ->
               let o = run_at j in
               {
                 yp_jobs = j;
                 yp_wall = o.seconds;
                 yp_cycles = o.best_cycles;
                 yp_evaluated = o.evaluated;
               })
             jobs_points
         in
         let jobs_identical =
           match points with
           | [] -> true
           | p0 :: rest ->
               List.for_all
                 (fun p -> p.yp_cycles = p0.yp_cycles && p.yp_evaluated = p0.yp_evaluated)
                 rest
         in
         let mesh =
           List.map
             (fun (m : Bamboo.Machine.t) ->
               let ev =
                 Bamboo.Evaluator.create ~jobs:!jobs
                   ~max_invocations:cfg.Bamboo.Dsa.sim_max_invocations prog prof
               in
               Fun.protect ~finally:(fun () -> Bamboo.Evaluator.shutdown ev) @@ fun () ->
               let o =
                 Bamboo.Dsa.synthesize ~config:cfg ~starts ~tempering:true ~evaluator:ev
                   ~seed:101 prog an.cstg prof m
               in
               let eval = Bamboo.Evaluator.evaluated ev in
               let hits = Bamboo.Evaluator.cache_hits ev in
               {
                 my_machine = m.Bamboo.Machine.name;
                 my_cores = m.Bamboo.Machine.cores;
                 my_best_cycles = o.best_cycles;
                 my_est_speedup =
                   (if o.best_cycles > 0 then float_of_int est1 /. float_of_int o.best_cycles
                    else 0.0);
                 my_evaluated = eval;
                 my_hit_rate =
                   (if eval + hits > 0 then float_of_int hits /. float_of_int (eval + hits)
                    else 0.0);
                 my_shards = Bamboo.Evaluator.cache_shards ev;
                 my_contention = Bamboo.Evaluator.cache_contention ev;
                 my_wall = o.seconds;
               })
             [ Bamboo.Machine.tilepro64; Bamboo.Machine.m128; Bamboo.Machine.m256 ]
         in
         { sy_scale = scale; sy_points = points; sy_jobs_identical = jobs_identical; sy_mesh = mesh })
       synthbench_set)

let synthbench () =
  let rows = Lazy.force synthbench_results in
  print_endline "== synthbench: paper-scale multi-start synthesis ==";
  Printf.printf
    "   (success = trials landing in the lowest of 12 buckets spanning the sampled\n\
    \    candidate range, the paper's Figure 10 criterion; --jobs here: %d)\n"
    !jobs;
  Table.print
    ~headers:
      [
        "Benchmark"; "trials"; "starts"; "restarts"; "best bucket"; "within 5%";
        "hit rate"; "shards"; "contended"; "starts/s"; "digest";
      ]
    (List.map
       (fun r ->
         let s = r.sy_scale in
         [
           s.ss_name;
           string_of_int s.ss_trials;
           string_of_int s.ss_starts;
           string_of_int s.ss_restarts;
           Printf.sprintf "%.0f%%" (100.0 *. s.ss_success);
           Printf.sprintf "%.0f%%" (100.0 *. s.ss_strict);
           Printf.sprintf "%.1f%%" (100.0 *. s.ss_hit_rate);
           string_of_int s.ss_shards;
           string_of_int s.ss_contention;
           Printf.sprintf "%.1f" s.ss_starts_per_sec;
           (if s.ss_digest_ok then "ok" else "MISMATCH");
         ])
       rows);
  print_endline "";
  print_endline "-- jobs scaling (fresh cache per point; cycles must not move) --";
  List.iter
    (fun r ->
      Printf.printf "  %-12s %s %s\n" r.sy_scale.ss_name
        (String.concat "  "
           (List.map
              (fun p -> Printf.sprintf "j%d: %.3fs" p.yp_jobs p.yp_wall)
              r.sy_points))
        (if r.sy_jobs_identical then "[identical]" else "[JOBS DIVERGED]"))
    rows;
  print_endline "";
  print_endline "-- mesh scale-up sweep (estimated speedup over 1 core) --";
  Table.print
    ~headers:
      [ "Benchmark"; "machine"; "cores"; "best cycles"; "est spd"; "hit rate"; "wall s" ]
    (List.concat_map
       (fun r ->
         List.map
           (fun m ->
             [
               r.sy_scale.ss_name;
               m.my_machine;
               string_of_int m.my_cores;
               string_of_int m.my_best_cycles;
               Printf.sprintf "%.1fx" m.my_est_speedup;
               Printf.sprintf "%.1f%%" (100.0 *. m.my_hit_rate);
               Printf.sprintf "%.3f" m.my_wall;
             ])
           r.sy_mesh)
       rows);
  print_endline "";
  if List.exists (fun r -> not r.sy_scale.ss_digest_ok) rows then (
    prerr_endline "[bench] synthbench: digest mismatch against the sequential runtime";
    exit 1);
  if List.exists (fun r -> not r.sy_jobs_identical) rows then (
    prerr_endline "[bench] synthbench: synthesis results depend on --jobs";
    exit 1)

(* ------------------------------------------------------------------ *)
(* servebench: rate sweeps over the streaming runtime to find the
   saturation knee per benchmark, per domain count, per schedule.

   The ladder is anchored to a *measured* capacity, not a guess: a
   short shed-mode probe at an unsustainable offered rate measures the
   sustained throughput the combo can actually deliver on this host,
   and the sweep offers multiples of that.  This keeps the knee inside
   the swept range on any machine (the CI runner may have 1 core or
   64).  The knee is the highest offered rate the combo still serves
   at >= 90% of offered; one extra low-rate point per combo runs the
   closed-loop digest check against the sequential runtime. *)

type servepoint = {
  vp_offered : float;
  vp_sustained : float;
  vp_served : int;
  vp_dropped : int;
  vp_p50_ns : int;
  vp_p95_ns : int;
  vp_p99_ns : int;
  vp_max_ns : int;
}

type servecombo = {
  vc_domains : int;
  vc_schedule : Bamboo.Exec.schedule;
  vc_capacity : float;            (* probe: sustained req/s under overload *)
  vc_points : servepoint list;
  vc_knee_offered : float;        (* 0.0 if no point sustained >= 90% *)
  vc_knee_sustained : float;
  vc_check_rate : float;          (* closed-loop low-rate point *)
  vc_check_served : int;
  vc_check_mismatches : int;
  vc_schedule_digest : string;
}

type serverow = { vr_name : string; vr_args : string list; vr_combos : servecombo list }

let serve_benchmarks = [ "Fractal"; "KMeans"; "Series" ]
let serve_rate_multipliers = [ 0.3; 0.6; 0.9; 1.3; 2.0 ]

(* Fixed across every combo (not capacity-derived) so the check
   points' schedule digests witness determinism: same seed, rate and
   duration must give the identical arrival stream at every domain
   count and schedule mode. *)
let serve_check_rate = 40.0

let servebench_results : serverow list Lazy.t =
  lazy
    (let machine = Bamboo.Machine.with_cores Bamboo.Machine.tilepro64 8 in
     let domain_counts = if !quick then [ 2; 8 ] else exec_domain_counts in
     let probe_duration = if !quick then 0.3 else 0.5 in
     let point_duration = if !quick then 0.4 else 1.0 in
     let check_duration = if !quick then 0.3 else 0.5 in
     List.map
       (fun name ->
         let b = Registry.find name in
         let args = Option.value ~default:b.b_args (quick_args b.b_name) in
         let prog = Bamboo.compile b.b_source in
         let an = Bamboo.analyse prog in
         let layout = Bamboo.Exec.spread_layout prog machine in
         let classes = [ { Bamboo.Serve.rc_name = name; rc_args = args; rc_weight = 1 } ] in
         let serve ?(check = false) ~domains ~schedule ~rate ~duration () =
           let config =
             {
               Bamboo.Serve.default_config with
               sv_rate = rate;
               sv_duration = duration;
               sv_admission = (if check then Bamboo.Serve.Block else Bamboo.Serve.Shed);
               sv_classes = classes;
               sv_domains = domains;
               sv_schedule = schedule;
               sv_inflight = 2 * domains;
               sv_check = check;
             }
           in
           Bamboo.serve ~config prog an layout
         in
         let combos =
           List.concat_map
             (fun domains ->
               List.map
                 (fun schedule ->
                   Printf.eprintf "[bench] servebench %s %dd %s...\n%!" name domains
                     (match schedule with Bamboo.Exec.Static -> "static" | Steal -> "steal");
                   (* Probe: offer far beyond capacity, shed the excess;
                      sustained throughput is the combo's capacity. *)
                   let probe =
                     serve ~domains ~schedule ~rate:50_000.0 ~duration:probe_duration ()
                   in
                   let capacity = Float.max 20.0 probe.rp_sustained in
                   let points =
                     List.map
                       (fun m ->
                         let rate = Float.round (m *. capacity) in
                         let r =
                           serve ~domains ~schedule ~rate ~duration:point_duration ()
                         in
                         let c = List.hd r.rp_classes in
                         {
                           vp_offered = rate;
                           vp_sustained = r.rp_sustained;
                           vp_served = r.rp_served;
                           vp_dropped = r.rp_dropped;
                           vp_p50_ns = c.cr_p50_ns;
                           vp_p95_ns = c.cr_p95_ns;
                           vp_p99_ns = c.cr_p99_ns;
                           vp_max_ns = c.cr_max_ns;
                         })
                       serve_rate_multipliers
                   in
                   let knee =
                     List.fold_left
                       (fun acc p ->
                         if p.vp_sustained >= 0.9 *. p.vp_offered then
                           match acc with
                           | Some k when k.vp_offered >= p.vp_offered -> acc
                           | _ -> Some p
                         else acc)
                       None points
                   in
                   let chk =
                     serve ~check:true ~domains ~schedule ~rate:serve_check_rate
                       ~duration:check_duration ()
                   in
                   {
                     vc_domains = domains;
                     vc_schedule = schedule;
                     vc_capacity = capacity;
                     vc_points = points;
                     vc_knee_offered =
                       (match knee with Some p -> p.vp_offered | None -> 0.0);
                     vc_knee_sustained =
                       (match knee with Some p -> p.vp_sustained | None -> 0.0);
                     vc_check_rate = serve_check_rate;
                     vc_check_served = chk.rp_served;
                     vc_check_mismatches = chk.rp_mismatches;
                     vc_schedule_digest = chk.rp_schedule_digest;
                   })
                 [ Bamboo.Exec.Static; Bamboo.Exec.Steal ])
             domain_counts
         in
         { vr_name = name; vr_args = args; vr_combos = combos })
       serve_benchmarks)

let servebench () =
  let rows = Lazy.force servebench_results in
  print_endline "== servebench: open-loop rate sweep, saturation knee per combo ==";
  Printf.printf
    "   (capacity from a shed-mode overload probe; knee = highest offered rate served\n\
    \    at >= 90%%; check = closed-loop digest point; host reports %d recommended domains)\n"
    (Domain.recommended_domain_count ());
  Table.print
    ~headers:
      [
        "Benchmark"; "dom"; "sched"; "cap r/s"; "knee r/s"; "knee sus";
        "p99@knee ms"; "chk served"; "chk bad";
      ]
    (List.concat_map
       (fun r ->
         List.map
           (fun c ->
             let p99 =
               match
                 List.find_opt (fun p -> p.vp_offered = c.vc_knee_offered) c.vc_points
               with
               | Some p -> Printf.sprintf "%.3f" (float_of_int p.vp_p99_ns /. 1e6)
               | None -> "-"
             in
             [
               r.vr_name;
               string_of_int c.vc_domains;
               (match c.vc_schedule with Bamboo.Exec.Static -> "static" | Steal -> "steal");
               Printf.sprintf "%.0f" c.vc_capacity;
               Printf.sprintf "%.0f" c.vc_knee_offered;
               Printf.sprintf "%.0f" c.vc_knee_sustained;
               p99;
               string_of_int c.vc_check_served;
               string_of_int c.vc_check_mismatches;
             ])
           r.vr_combos)
       rows);
  print_endline "";
  if
    List.exists
      (fun r -> List.exists (fun c -> c.vc_check_mismatches > 0) r.vr_combos)
      rows
  then (
    prerr_endline "[bench] servebench: closed-loop digest mismatch";
    exit 1);
  if List.exists (fun r -> List.exists (fun c -> c.vc_knee_offered = 0.0) r.vr_combos) rows
  then (
    prerr_endline "[bench] servebench: a combo never reached 90% of offered rate";
    exit 1)

(* ------------------------------------------------------------------ *)
(* JSON emitters (machine-readable records so future PRs can track the
   perf trajectory): BENCH_pr3 = figures, BENCH_pr4 = domains-backend
   scaling curve, BENCH_pr8 = tree vs closure interpreter engine
   comparison (supersedes BENCH_pr5), BENCH_pr9 =
   paper-scale synthesis panels, BENCH_pr10 = streaming-runtime rate
   sweeps.  All built on the shared Json_out tree. *)

let emit_json path =
  let open Json_out in
  let bench_obj (r : Exp.bench_result) =
    Obj
      [
        ("name", Str r.br_name);
        ("cores", Int r.br_cores);
        ("cycles_c_1core", Int r.br_c);
        ("cycles_bamboo_1core", Int r.br_b1);
        ("cycles_bamboo_ncore", Int r.br_bn);
        ("cycles_estimated_1core", Int r.br_est1);
        ("cycles_estimated_ncore", Int r.br_estn);
        ("speedup_vs_bamboo", Float (Exp.speedup_b r));
        ("speedup_vs_c", Float (Exp.speedup_c r));
        ("overhead_pct", Float (Exp.overhead_pct r));
        ("dsa_seconds", Float r.br_dsa_seconds);
        ("dsa_layouts_evaluated", Int r.br_dsa_evaluated);
        ("dsa_cache_hits", Int r.br_dsa_cache_hits);
        ("dsa_cache_hit_rate", Float (cache_hit_rate r));
        ("dsa_evals_per_sec", Float (evals_per_sec r));
        ("dsa_pruned", Int r.br_dsa_pruned);
        ("dsa_sim_events", Int r.br_dsa_sim_events);
        ("dsa_events_per_sec", Float (dsa_events_per_sec r));
        ("output_ok", Bool r.br_ok);
      ]
  in
  write path
    (Obj
       [
         ("schema", Str "BENCH_pr3");
         ("jobs", Int !jobs);
         ("quick", Bool !quick);
         ("benchmarks", Arr (List.map bench_obj (Lazy.force results)));
       ])

let emit_exec_json path =
  let open Json_out in
  let point_obj r p =
    Obj
      [
        ("domains", Int p.xp_domains);
        ("wall_seconds", Float p.xp_wall);
        ("speedup_vs_1domain", Float (xp_speedup r p));
        ("invocations", Int p.xp_invocations);
        ("messages", Int p.xp_messages);
        ("lock_retries", Int p.xp_retries);
        ("cycles", Int p.xp_cycles);
        ("idle_polls", Int p.xp_idle_polls);
      ]
  in
  let row_obj r =
    Obj
      [
        ("name", Str r.xr_name);
        ("cores", Int r.xr_cores);
        ("sequential_wall_seconds", Float r.xr_seq_wall);
        ("digest", Str r.xr_digest);
        ("digest_ok", Bool r.xr_digest_ok);
        ("points", Arr (List.map (point_obj r) r.xr_points));
      ]
  in
  write path
    (Obj
       [
         ("schema", Str "BENCH_pr4");
         ("quick", Bool !quick);
         ("host_recommended_domains", Int (Domain.recommended_domain_count ()));
         ("benchmarks", Arr (List.map row_obj (Lazy.force execbench_results)));
       ])

let emit_steal_json path =
  let open Json_out in
  let core_obj (c : Bamboo.Exec.core_stats) =
    Obj
      [
        ("core", Int c.cs_core);
        ("invocations", Int c.cs_invocations);
        ("stolen", Int c.cs_stolen);
        ("busy_cycles", Int c.cs_busy_cycles);
        ("idle_polls", Int c.cs_idle_polls);
        ("steal_attempts", Int c.cs_steal_attempts);
        ("steals", Int c.cs_steals);
        ("steal_aborts", Int c.cs_steal_aborts);
      ]
  in
  let point_obj p =
    Obj
      [
        ("domains", Int p.sp_domains);
        ("static_wall_seconds", Float p.sp_static_wall);
        ("steal_wall_seconds", Float p.sp_steal_wall);
        ("speedup_steal_vs_static", Float (sp_speedup p));
        ("static_cycles", Int p.sp_static_cycles);
        ("steal_cycles", Int p.sp_steal_cycles);
        ("static_idle_polls", Int p.sp_static_idle_polls);
        ("steal_idle_polls", Int p.sp_steal_idle_polls);
        ("steal_attempts", Int p.sp_steal_attempts);
        ("steals", Int p.sp_steals);
        ("steal_aborts", Int p.sp_steal_aborts);
        ("stolen_invocations", Int p.sp_stolen_invocations);
        ("steal_core_stats", Arr (Array.to_list (Array.map core_obj p.sp_core_stats)));
      ]
  in
  let row_obj r =
    Obj
      [
        ("name", Str r.sr_name);
        ("cores", Int r.sr_cores);
        ("steal_safe_tasks", Int r.sr_steal_safe_tasks);
        ("tasks", Int r.sr_tasks);
        ("digest", Str r.sr_digest);
        ("digest_ok", Bool r.sr_digest_ok);
        ("points", Arr (List.map point_obj r.sr_points));
      ]
  in
  write path
    (Obj
       [
         ("schema", Str "BENCH_pr7");
         ("quick", Bool !quick);
         ("host_recommended_domains", Int (Domain.recommended_domain_count ()));
         ("benchmarks", Arr (List.map row_obj (Lazy.force stealbench_results)));
       ])

let emit_interp_json path =
  let open Json_out in
  let row_obj r =
    Obj
      [
        ("name", Str r.ir_name);
        ("codegen_seconds", Float r.ir_codegen_seconds);
        ("tree_wall_seconds", Float r.ir_tree_wall);
        ("closure_wall_seconds", Float r.ir_clos_wall);
        ("reps", Int r.ir_reps);
        ("speedup_closure_vs_tree", Float (ir_speedup_clos r));
        ("cycles", Int r.ir_cycles);
        ("closure_cycles_per_sec", Float (ir_clos_cycles_per_sec r));
        ("cycles_ok", Bool r.ir_cycles_ok);
        ("digest_ok", Bool r.ir_digest_ok);
      ]
  in
  write path
    (Obj
       [
         ("schema", Str "BENCH_pr8");
         ("quick", Bool !quick);
         ("benchmarks", Arr (List.map row_obj (Lazy.force interpbench_results)));
       ])

let emit_synth_json path =
  let open Json_out in
  let point_obj p =
    Obj
      [
        ("jobs", Int p.yp_jobs);
        ("wall_seconds", Float p.yp_wall);
        ("best_cycles", Int p.yp_cycles);
        ("evaluated", Int p.yp_evaluated);
      ]
  in
  let mesh_obj m =
    Obj
      [
        ("machine", Str m.my_machine);
        ("cores", Int m.my_cores);
        ("best_cycles", Int m.my_best_cycles);
        ("est_speedup", Float m.my_est_speedup);
        ("evaluated", Int m.my_evaluated);
        ("cache_hit_rate", Float m.my_hit_rate);
        ("cache_shards", Int m.my_shards);
        ("shard_contention", Int m.my_contention);
        ("wall_seconds", Float m.my_wall);
      ]
  in
  let row_obj r =
    let s = r.sy_scale in
    Obj
      [
        ("name", Str s.Exp.ss_name);
        ( "scale",
          Obj
            [
              ("machine", Str s.ss_machine);
              ("cores", Int s.ss_cores);
              ("trials", Int s.ss_trials);
              ("starts", Int s.ss_starts);
              ("restarts", Int s.ss_restarts);
              ("best_cycles", Int s.ss_best_cycles);
              ("worst_sample_cycles", Int s.ss_worst_sample);
              ("best_bucket_rate", Float s.ss_success);
              ("strict_rate", Float s.ss_strict);
              ("evaluated", Int s.ss_evaluated);
              ("cache_hits", Int s.ss_cache_hits);
              ("cache_hit_rate", Float s.ss_hit_rate);
              ("pruned", Int s.ss_pruned);
              ("cache_shards", Int s.ss_shards);
              ("shard_contention", Int s.ss_contention);
              ("wall_seconds", Float s.ss_seconds);
              ("starts_per_sec", Float s.ss_starts_per_sec);
              ("digest_ok", Bool s.ss_digest_ok);
              ("trial_cycles", Arr (List.map (fun c -> Float c) s.ss_outcomes));
            ] );
        ("jobs_identical", Bool r.sy_jobs_identical);
        ("scaling", Arr (List.map point_obj r.sy_points));
        ("mesh", Arr (List.map mesh_obj r.sy_mesh));
      ]
  in
  write path
    (Obj
       [
         ("schema", Str "BENCH_pr9");
         ("quick", Bool !quick);
         ("jobs", Int !jobs);
         ("host_recommended_domains", Int (Domain.recommended_domain_count ()));
         ("benchmarks", Arr (List.map row_obj (Lazy.force synthbench_results)));
       ])

let emit_serve_json path =
  let open Json_out in
  let point_obj p =
    Obj
      [
        ("offered_rate", Float p.vp_offered);
        ("sustained_rate", Float p.vp_sustained);
        ("served", Int p.vp_served);
        ("dropped", Int p.vp_dropped);
        ("p50_ns", Int p.vp_p50_ns);
        ("p95_ns", Int p.vp_p95_ns);
        ("p99_ns", Int p.vp_p99_ns);
        ("max_ns", Int p.vp_max_ns);
      ]
  in
  let combo_obj c =
    Obj
      [
        ("domains", Int c.vc_domains);
        ( "schedule",
          Str (match c.vc_schedule with Bamboo.Exec.Static -> "static" | Steal -> "steal") );
        ("capacity_rate", Float c.vc_capacity);
        ("points", Arr (List.map point_obj c.vc_points));
        ("knee_offered_rate", Float c.vc_knee_offered);
        ("knee_sustained_rate", Float c.vc_knee_sustained);
        ( "check",
          Obj
            [
              ("rate", Float c.vc_check_rate);
              ("served", Int c.vc_check_served);
              ("mismatches", Int c.vc_check_mismatches);
              ("schedule_digest", Str c.vc_schedule_digest);
            ] );
      ]
  in
  let row_obj r =
    Obj
      [
        ("name", Str r.vr_name);
        ("args", Arr (List.map (fun a -> Str a) r.vr_args));
        ("combos", Arr (List.map combo_obj r.vr_combos));
      ]
  in
  write path
    (Obj
       [
         ("schema", Str "BENCH_pr10");
         ("quick", Bool !quick);
         ("host_recommended_domains", Int (Domain.recommended_domain_count ()));
         ("rate_multipliers", Arr (List.map (fun m -> Float m) serve_rate_multipliers));
         ("benchmarks", Arr (List.map row_obj (Lazy.force servebench_results)));
       ])

let () =
  let argv = Array.to_list Sys.argv |> List.tl in
  let json_path = ref None in
  let rec parse = function
    | [] -> []
    | "--quick" :: rest ->
        quick := true;
        parse rest
    | "--jobs" :: n :: rest ->
        (* Same 1..64 cap as the CLI: more domains than that only adds
           scheduler churn on any machine we target. *)
        (match int_of_string_opt n with
        | Some n when n >= 1 && n <= 64 -> jobs := n
        | _ ->
            Printf.eprintf "--jobs expects an integer in 1..64, got %s\n" n;
            exit 2);
        parse rest
    | "--json" :: path :: rest ->
        json_path := Some path;
        parse rest
    | ("--jobs" | "--json") :: [] ->
        Printf.eprintf "--jobs/--json need an argument\n";
        exit 2
    | x :: rest -> x :: parse rest
  in
  (* Default: as wide as the host allows, capped so a many-core CI
     runner does not oversubscribe the simulator. *)
  jobs := max 1 (min 8 (Domain.recommended_domain_count ()));
  let positional = parse argv in
  let what = match positional with [] -> "all" | w :: _ -> w in
  (match what with
  | "fig7" -> fig7 ()
  | "fig9" -> fig9 ()
  | "fig10" -> fig10 ~quick:!quick ()
  | "fig11" -> fig11 ()
  | "execbench" -> execbench ()
  | "stealbench" -> stealbench ()
  | "interpbench" -> interpbench ()
  | "synthbench" -> synthbench ()
  | "servebench" -> servebench ()
  | "bechamel" -> bechamel ()
  | "all" ->
      fig7 ();
      fig9 ();
      fig10 ~quick:!quick ();
      fig11 ();
      execbench ();
      stealbench ();
      interpbench ();
      synthbench ()
  | other ->
      Printf.eprintf
        "unknown target %s \
         (fig7|fig9|fig10|fig11|execbench|stealbench|interpbench|synthbench|servebench|bechamel|all)\n"
        other;
      exit 2);
  (match !json_path with
  | Some path ->
      if what = "execbench" then emit_exec_json path
      else if what = "stealbench" then emit_steal_json path
      else if what = "interpbench" then emit_interp_json path
      else if what = "synthbench" then emit_synth_json path
      else if what = "servebench" then emit_serve_json path
      else emit_json path
  | None -> ());
  print_endline "done."
