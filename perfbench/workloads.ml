(** The workloads.  Each calls the pipeline only through the public
    [Bamboo] API and the benchmark registry, times every layer from
    outside around those calls, reads the counters the result records
    already carry, and checks every timed operation against the
    expected-output table.

    Thread budget: at most two threads per workload, fixed here rather
    than read from the host — [compile] synthesizes with [jobs = 2] (the
    caller plus one pool domain), [exec] runs on [domains = 2] (the
    caller is one of the workers), and [serve] has
    one worker domain beside the load generator on the caller's
    thread. *)

module B = Bamboo
module Clock = Bamboo.Clock
module Registry = Bamboo_benchmarks.Registry
module Bench_def = Bamboo_benchmarks.Bench_def

let synth_jobs = 2
let synth_starts = 8

(** Synthesis always searches from the CLI's default seed: the runtime
    cycles of the layout DSA picks swing by up to 8x between seeds, so a
    seed-fed search would measure search luck, not the code.  [compile]
    therefore does not depend on the run seed at all, and the hold-out
    seed confirms nothing there. *)
let synth_seed = 42
let exec_domains = 2
let serve_domains = 1

(** Set-ups per run; [setup_s] is their median. *)
let setups = 5

(* ------------------------------------------------------------------ *)
(* Run context: seed, time budget, tracer and failure accounting. *)

type ctx = {
  seed : int;
  seconds : float;
  tracing : bool;       (* --trace 1: alternate untraced and traced passes *)
  tracer : Trace.t;
  table : Expected.row list;
  mutable attempted : int;
  mutable failed : int;
}

let make_ctx ?(table = Lazy.force Expected.table) ~seed ~seconds ~tracing () =
  { seed; seconds; tracing; tracer = Trace.create (); table; attempted = 0; failed = 0 }

let span ctx ?tag name f = Trace.with_span ctx.tracer ?tag name f

let fail ctx n msg =
  ctx.failed <- ctx.failed + n;
  prerr_endline ("perfbench: FAILED " ^ msg)

(** One operation: counted as attempted; an [Error] or an exception
    counts it as failed. *)
let operation ctx label f =
  ctx.attempted <- ctx.attempted + 1;
  match f () with
  | Ok v -> Some v
  | Error msg ->
      fail ctx 1 msg;
      None
  | exception e ->
      fail ctx 1 (label ^ ": " ^ Printexc.to_string e);
      None

let check_run row ~digest ~output v =
  match Expected.check row ~digest ~output with Ok () -> Ok v | Error e -> Error e

(** Index [i] of set-ups and passes is traced when tracing and odd, so
    traced and untraced work interleave and host drift hits both. *)
let traced ctx i = ctx.tracing && i mod 2 = 1

(** Items [(index, traced, x)] of one kind.  A traced run leaves out
    the untraced item 0 when it has another: the first set-up and pass
    of a process run cold, and would otherwise count as tracing
    overhead. *)
let subset ctx ~traced items =
  let items = List.filter (fun (_, t, _) -> t = traced) items in
  let items =
    if ctx.tracing && (not traced) && List.length items > 1 then
      List.filter (fun (i, _, _) -> i <> 0) items
    else items
  in
  List.map (fun (_, _, x) -> x) items

(** Run [setup] [setups] times and keep the last state; returns the
    state and each set-up's [(index, traced, seconds)]. *)
let repeat_setup ctx setup =
  let rec go i acc last =
    if i = setups then (Option.get last, List.rev acc)
    else begin
      ctx.tracer.on <- traced ctx i;
      ctx.tracer.group <- -1;
      let t0 = Clock.now () in
      let st = span ctx ~tag:(string_of_int i) "setup" setup in
      let dt = Clock.elapsed t0 in
      Printf.eprintf "perfbench: set-up %d%s %.3f s\n%!" i
        (if traced ctx i then " (traced)" else "")
        dt;
      go (i + 1) ((i, traced ctx i, dt) :: acc) (Some st)
    end
  in
  go 0 [] None

(** Start passes until [ctx.seconds] have elapsed, and at least
    [min_passes] (two when tracing, so both kinds exist); pass [i]'s
    spans carry group [i]. *)
let timed_passes ?(min_passes = 1) ctx pass =
  let min_passes = if ctx.tracing then max 2 min_passes else min_passes in
  let t0 = Clock.now () in
  let rec go i acc =
    if i >= min_passes && Clock.elapsed t0 >= ctx.seconds then List.rev acc
    else begin
      ctx.tracer.on <- traced ctx i;
      ctx.tracer.group <- i;
      let p0 = Clock.now () in
      let r = span ctx ~tag:(string_of_int i) "pass" (fun () -> pass i) in
      let dt = Clock.elapsed p0 in
      Printf.eprintf "perfbench: pass %d%s %.3f s\n%!" i
        (if traced ctx i then " (traced)" else "")
        dt;
      go (i + 1) ((i, traced ctx i, r) :: acc)
    end
  in
  let passes = go 0 [] in
  ctx.tracer.on <- false;
  passes

(** What a workload hands back: end-to-end metrics over its untraced
    or its traced set-ups and passes, and per-layer metrics over the
    traced ones. *)
type result = {
  end_to_end : traced:bool -> (string * float) list;
  layers : (string * float) list;
}

(** Median over traced passes of the per-pass sum of self time of the
    spans [keep] selects. *)
let layer_seconds ctx passes ~keep =
  let groups = List.filter_map (fun (i, t, _) -> if t then Some i else None) passes in
  if groups = [] then 0.0
  else
    let selfs = Trace.self_times (Trace.spans ctx.tracer) in
    Summary.median (Trace.self_seconds_by_group selfs ~groups ~keep)

let named name (s : Trace.span) = s.name = name
let tagged name tag (s : Trace.span) = s.name = name && s.tag = tag

(** [layout_mcycles]: the geometric mean, in Mcycles, of the runtime
    cycles of each program's layout. *)
let layout_mcycles cycles = Summary.geomean (List.map (fun c -> float_of_int c /. 1e6) cycles)

(* ------------------------------------------------------------------ *)
(* compile: source text to synthesized layout for every registry
   program, then one digest-checked run of the chosen layout. *)

type built = {
  bd_program : string;
  bd_build_s : float;          (* source text -> layout *)
  bd_outcome : B.Dsa.outcome;
  bd_profile_cycles : int;
  bd_layout_cycles : int;      (* chosen layout on the cycle-level runtime *)
}

(** Source text to profile: compile, analyse, check (failing on any
    error it reports) and profile one program. *)
let profiled ctx (b : Bench_def.t) =
  let tag = b.b_name in
  let prog = span ctx ~tag "frontend" (fun () -> B.compile b.b_source) in
  let an = span ctx ~tag "analysis" (fun () -> B.analyse prog) in
  let diags = span ctx ~tag "check" (fun () -> B.check prog an) in
  if B.Diagnostic.has_errors diags then failwith (tag ^ ": check reports errors");
  let prof, run = span ctx ~tag "profile" (fun () -> B.Profile.collect ~args:b.b_args prog) in
  (prog, an, prof, run)

let build ctx (b : Bench_def.t) (row : Expected.row) =
  let tag = b.b_name in
  operation ctx tag (fun () ->
      span ctx ~tag "program" (fun () ->
          let t0 = Clock.now () in
          let prog, an, prof, prof_run = profiled ctx b in
          let o =
            span ctx ~tag "synth" (fun () ->
                B.synthesize ~jobs:synth_jobs ~starts:synth_starts ~seed:synth_seed prog an prof
                  B.Machine.tilepro64)
          in
          let build_s = Clock.elapsed t0 in
          let r = span ctx ~tag "runtime" (fun () -> B.execute ~args:b.b_args prog an o.best) in
          let digest =
            span ctx ~tag "canon" (fun () ->
                B.Canon.digest prog ~output:r.r_output ~objects:r.r_objects)
          in
          Printf.eprintf "perfbench:   %s %.3f s, %d cycles (estimated %d)\n%!" tag build_s
            r.r_total_cycles o.best_cycles;
          check_run row ~digest ~output:r.r_output
            {
              bd_program = tag;
              bd_build_s = build_s;
              bd_outcome = o;
              bd_profile_cycles = prof_run.r_total_cycles;
              bd_layout_cycles = r.r_total_cycles;
            }))

(** Set-up looks up each program's table row, then builds the program
    up to its profile once and checks the profiling run's output against
    the row, so a program that does not build or compute its expected
    output fails before anything is timed; every pass starts again from
    source text. *)
let compile_workload ctx (programs : Bench_def.t list) =
  let rows, setup_times =
    repeat_setup ctx (fun () ->
        List.map
          (fun (b : Bench_def.t) ->
            let row = Expected.row ctx.table ~program:b.b_name ~args:b.b_args in
            Expected.validate row;
            ignore
              (operation ctx (b.b_name ^ "/profile") (fun () ->
                   let prog, _, _, r = profiled ctx b in
                   let digest = B.Canon.digest prog ~output:r.r_output ~objects:r.r_objects in
                   check_run row ~digest ~output:r.r_output ()));
            (b, row))
          programs)
  in
  (* Three passes at least, so the median is a warm pass even though
     the first pass of a process runs cold. *)
  let passes =
    timed_passes ~min_passes:3 ctx (fun _ ->
        List.filter_map (fun (b, row) -> build ctx b row) rows)
  in
  let complete builds = List.length builds = List.length rows in
  let end_to_end ~traced =
    let ps = List.filter complete (subset ctx ~traced passes) in
    if ps = [] then []
    else
      [
        ("setup_s", Summary.median (subset ctx ~traced setup_times));
        ( "pass_s",
          Summary.median
            (List.map (fun bs -> List.fold_left (fun a b -> a +. b.bd_build_s) 0.0 bs) ps) );
        ( "layout_mcycles",
          Summary.median
            (List.map (fun bs -> layout_mcycles (List.map (fun b -> b.bd_layout_cycles) bs)) ps) );
      ]
  in
  let layers =
    let ps = List.filter complete (subset ctx ~traced:true passes) in
    if ps = [] then []
    else begin
      let per_pass f =
        Summary.median (List.map (fun bs -> List.fold_left (fun a b -> a +. f b) 0.0 bs) ps)
      in
      let s name = layer_seconds ctx passes ~keep:(named name) in
      let count f = per_pass (fun b -> float_of_int (f b.bd_outcome)) in
      let synth_s = s "synth" and profile_s = s "profile" and runtime_s = s "runtime" in
      let profile_mc = per_pass (fun b -> float_of_int b.bd_profile_cycles /. 1e6) in
      let runtime_mc = per_pass (fun b -> float_of_int b.bd_layout_cycles /. 1e6) in
      let evaluated = count (fun o -> o.evaluated) in
      let requests = count (fun o -> o.evaluated + o.cache_hits) in
      let events = count (fun o -> o.sim_events) in
      (* Fig. 9: how far the simulator's estimate of each chosen layout
         is from the cycle-level runtime, averaged over programs. *)
      let est_error =
        per_pass (fun b ->
            let rt = float_of_int b.bd_layout_cycles in
            100.0 *. Float.abs (float_of_int b.bd_outcome.best_cycles -. rt) /. rt)
        /. float_of_int (List.length rows)
      in
      [
        ("frontend.s", s "frontend");
        ("analysis.s", s "analysis");
        ("check.s", s "check");
        ("profile.s", profile_s);
        ("profile.mcycles", profile_mc);
        ("profile.mcycles_per_s", Summary.ratio profile_mc profile_s);
        ("runtime.s", runtime_s);
        ("runtime.mcycles", runtime_mc);
        ("runtime.mcycles_per_s", Summary.ratio runtime_mc runtime_s);
        ("synth.s", synth_s);
        ("synth.evaluated", evaluated);
        ("synth.requests", requests);
        ("synth.hit_rate", Summary.ratio (requests -. evaluated) requests);
        ("synth.prune_rate", Summary.ratio (count (fun o -> o.pruned)) evaluated);
        ("synth.evals_per_s", Summary.ratio evaluated synth_s);
        ("synth.restarts", count (fun o -> o.restarts));
        ("sim.events", events);
        ("sim.events_per_s", Summary.ratio events synth_s);
        ("sim.layouts", float_of_int (List.length rows));
        ("sim.est_error_pct", est_error);
      ]
      @ List.map
          (fun (b, _) ->
            let name = b.Bench_def.b_name in
            ("synth.s." ^ name, layer_seconds ctx passes ~keep:(tagged "synth" name)))
          rows
    end
  in
  { end_to_end; layers }

(* ------------------------------------------------------------------ *)
(* exec: real execution on two domains, on the CLI's default spread
   layout over 62 cores, under both schedules. *)

let exec_machine = B.Machine.with_cores B.Machine.tilepro64 62

let schedule_name = function B.Exec.Static -> "static" | B.Exec.Steal -> "steal"

type prepared = {
  pr_bench : Bench_def.t;
  pr_args : string list;
  pr_row : Expected.row;
  pr_prog : B.Ir.program;
  pr_an : B.analysis;
  pr_layout : B.Layout.t;
}

(** Compile, analyse and lay out one program. *)
let prepare ctx ~machine ((b : Bench_def.t), args) =
  let tag = b.b_name in
  let row = Expected.row ctx.table ~program:tag ~args in
  Expected.validate row;
  let prog = span ctx ~tag "frontend" (fun () -> B.compile b.b_source) in
  let an = span ctx ~tag "analysis" (fun () -> B.analyse prog) in
  let layout = span ctx ~tag "layout" (fun () -> B.Exec.spread_layout prog machine) in
  { pr_bench = b; pr_args = args; pr_row = row; pr_prog = prog; pr_an = an; pr_layout = layout }

(** One untimed run of the prepared layout on the cycle-level runtime:
    it gives the layout's cycles and is digest-checked like every other
    run. *)
let runtime_cycles ctx p =
  let tag = p.pr_bench.b_name in
  let r =
    span ctx ~tag "runtime" (fun () -> B.execute ~args:p.pr_args p.pr_prog p.pr_an p.pr_layout)
  in
  ignore
    (operation ctx (tag ^ "/runtime") (fun () ->
         let digest = B.Canon.digest p.pr_prog ~output:r.r_output ~objects:r.r_objects in
         check_run p.pr_row ~digest ~output:r.r_output ()));
  r.r_total_cycles

(** One run's wall time and result record, without the record's
    output and final heap: kept across passes, those would hold every
    run's objects alive and make each pass's garbage collection slower
    than the last. *)
type ran = { rn_program : string; rn_schedule : string; rn_wall : float; rn_x : B.Exec.result }

let run_exec ctx p ~schedule =
  let sch = schedule_name schedule in
  let tag = p.pr_bench.b_name ^ "/" ^ sch in
  operation ctx tag (fun () ->
      let t0 = Clock.now () in
      let x =
        span ctx ~tag "exec" (fun () ->
            B.execute_parallel ~args:p.pr_args ~domains:exec_domains ~seed:ctx.seed ~schedule
              p.pr_prog p.pr_an p.pr_layout)
      in
      let wall = Clock.elapsed t0 in
      check_run p.pr_row ~digest:x.x_digest ~output:x.x_output
        {
          rn_program = p.pr_bench.b_name;
          rn_schedule = sch;
          rn_wall = wall;
          rn_x = { x with x_output = ""; x_objects = [] };
        })

(** Per-layer counters of one schedule over one pass's runs. *)
let schedule_counters (runs : ran list) sch =
  let runs = List.filter (fun r -> r.rn_schedule = sch) runs in
  let sum f = float_of_int (List.fold_left (fun a r -> a + f r.rn_x) 0 runs) in
  let busy = Hashtbl.create 64 in
  List.iter
    (fun r ->
      Array.iter
        (fun (cs : B.Exec.core_stats) ->
          let prev = Option.value ~default:0 (Hashtbl.find_opt busy cs.cs_core) in
          Hashtbl.replace busy cs.cs_core (prev + cs.cs_busy_cycles))
        r.rn_x.x_core_stats)
    runs;
  let active = Hashtbl.fold (fun _ c acc -> if c > 0 then float_of_int c :: acc else acc) busy [] in
  let imbalance =
    match active with
    | [] -> 0.0
    | _ ->
        let mean = List.fold_left ( +. ) 0.0 active /. float_of_int (List.length active) in
        List.fold_left Float.max 0.0 active /. mean
  in
  let invocations = sum (fun x -> x.x_invocations) in
  let attempts = sum (fun x -> x.x_steal_attempts) in
  let wall = List.fold_left (fun a r -> a +. r.rn_wall) 0.0 runs in
  let n m = Printf.sprintf "exec.%s.%s" m sch in
  [
    (n "invocations", invocations);
    (n "us_per_invocation", Summary.ratio (wall *. 1e6) invocations);
    (n "messages_per_invocation", Summary.ratio (sum (fun x -> x.x_messages)) invocations);
    (n "lock_retries", sum (fun x -> x.x_lock_retries));
    (n "idle_polls_per_invocation", Summary.ratio (sum (fun x -> x.x_idle_polls)) invocations);
    (n "steal_attempts", attempts);
    (n "steal_hit_rate", Summary.ratio (sum (fun x -> x.x_steals)) attempts);
    (n "stolen_invocations", sum (fun x -> x.x_stolen_invocations));
    (n "active_cores", float_of_int (List.length active));
    (n "busy_imbalance", imbalance);
  ]

(** Medians, metric by metric, of per-pass metric lists. *)
let median_metrics (per_pass : (string * float) list list) =
  match per_pass with
  | [] -> []
  | first :: _ ->
      List.map
        (fun (name, _) -> (name, Summary.median (List.map (List.assoc name) per_pass)))
        first

let exec_workload ctx (programs : (Bench_def.t * string list) list) =
  let prepared, setup_times =
    repeat_setup ctx (fun () ->
        List.map
          (fun pa ->
            let p = prepare ctx ~machine:exec_machine pa in
            (* Warm-up: fills the closure-code cache and grows the heap,
               so both schedules are timed warm. *)
            ignore (run_exec ctx p ~schedule:B.Exec.Static);
            p)
          programs)
  in
  let layout_mcycles = layout_mcycles (List.map (runtime_cycles ctx) prepared) in
  let schedules = [ B.Exec.Static; B.Exec.Steal ] in
  let passes =
    timed_passes ctx (fun _ ->
        List.concat_map
          (fun schedule -> List.filter_map (fun p -> run_exec ctx p ~schedule) prepared)
          schedules)
  in
  let complete runs = List.length runs = List.length schedules * List.length prepared in
  let end_to_end ~traced =
    let ps = List.filter complete (subset ctx ~traced passes) in
    if ps = [] then []
    else
      [
        ("setup_s", Summary.median (subset ctx ~traced setup_times));
        ( "pass_s",
          Summary.median
            (List.map (fun runs -> List.fold_left (fun a r -> a +. r.rn_wall) 0.0 runs) ps) );
        ("layout_mcycles", layout_mcycles);
      ]
  in
  let layers =
    let ps = List.filter complete (subset ctx ~traced:true passes) in
    if ps = [] then []
    else
      let exec_spans suffix (s : Trace.span) =
        s.name = "exec" && String.ends_with ~suffix s.tag
      in
      let exec_program prog (s : Trace.span) =
        s.name = "exec" && String.starts_with ~prefix:(prog ^ "/") s.tag
      in
      median_metrics
        (List.map
           (fun runs -> List.concat_map (schedule_counters runs) Catalogue.schedules)
           ps)
      @ List.map
          (fun sch ->
            ("exec.s." ^ sch, layer_seconds ctx passes ~keep:(exec_spans ("/" ^ sch))))
          Catalogue.schedules
      @ List.filter_map
          (fun p ->
            let name = p.pr_bench.b_name in
            if List.mem name Catalogue.exec_programs then
              Some ("exec.s." ^ name, layer_seconds ctx passes ~keep:(exec_program name))
            else None)
          prepared
  in
  { end_to_end; layers }

(* ------------------------------------------------------------------ *)
(* serve: KeywordCount requests on one worker domain over an 8-core
   spread layout with Block admission.  Set-up ends with a closed-loop
   phase that digest-checks every request; each timed round is an
   open-loop Poisson phase at a fixed rate, then a fixed burst offered
   far beyond capacity. *)

let serve_machine = B.Machine.with_cores B.Machine.tilepro64 8
let serve_args = [ "16" ]
let check_rate = 100.0

(** About a quarter of the burst capacity measured on a 2-thread host
    (≈ 4,200 req/s), so queueing stays modest and the worker's
    idle/wake-up path is exercised. *)
let open_rate = 1000.0

(** The burst is offered at several times capacity; its size
    ([burst_requests]), not its rate, fixes the work done. *)
let burst_rate = 20_000.0

let serve_config ~rate ~duration ~arrivals ~check ~seed =
  {
    B.Serve.default_config with
    sv_rate = rate;
    sv_duration = duration;
    sv_arrivals = arrivals;
    sv_admission = B.Serve.Block;
    sv_classes = [ { B.Serve.rc_name = "KeywordCount"; rc_args = serve_args; rc_weight = 1 } ];
    sv_seed = seed;
    sv_domains = serve_domains;
    sv_schedule = B.Exec.Static;
    sv_check = check;
  }

(** One serve phase: every scheduled request is an operation, and one
    not served (dropped, or lost to a session crash) failed. *)
let serve_phase ctx (p : prepared) ~phase (config : B.Serve.config) =
  let n =
    Array.length
      (B.Serve.gen_schedule ~seed:config.sv_seed ~rate:config.sv_rate
         ~duration:config.sv_duration ~arrivals:config.sv_arrivals
         (Array.of_list config.sv_classes))
  in
  ctx.attempted <- ctx.attempted + n;
  let t0 = Clock.now () in
  match span ctx ~tag:phase "serve" (fun () -> B.serve ~config p.pr_prog p.pr_an p.pr_layout) with
  | rp ->
      let wall = Clock.elapsed t0 in
      let lost = n - rp.rp_served + rp.rp_mismatches in
      if lost > 0 then
        fail ctx lost
          (Printf.sprintf "serve %s: %d of %d requests not served or mismatched" phase lost n);
      Some (rp, wall)
  | exception e ->
      fail ctx n (Printf.sprintf "serve %s: %s" phase (Printexc.to_string e));
      None

type round = { open_rp : B.Serve.report; burst_rp : B.Serve.report; burst_wall : float }

let merged_hist reports =
  List.fold_left
    (fun acc (rp : B.Serve.report) ->
      List.fold_left
        (fun acc (c : B.Serve.class_report) -> B.Histogram.merge acc c.cr_hist)
        acc rp.rp_classes)
    (B.Histogram.create ()) reports

(** Latency quantile in ms. *)
let hist_ms h q = float_of_int (B.Histogram.quantile h q) /. 1e6

let serve_workload ?(check_seconds = 0.3) ?(open_seconds = 3.0) ?(burst_requests = 3000) ctx =
  let kc = Registry.keyword_counter in
  let (p, layout_mcycles, service_p50, mismatches), setup_times =
    repeat_setup ctx (fun () ->
        let p = prepare ctx ~machine:serve_machine (kc, serve_args) in
        (* The class's oracle digest, checked against the table. *)
        let mcycles = layout_mcycles [ runtime_cycles ctx p ] in
        let chk =
          serve_phase ctx p ~phase:"check"
            (serve_config ~rate:check_rate ~duration:check_seconds
               ~arrivals:B.Serve.Uniform ~check:true ~seed:ctx.seed)
        in
        match chk with
        | Some (rp, _) -> (p, mcycles, hist_ms (merged_hist [ rp ]) 0.5, rp.rp_mismatches)
        | None -> (p, mcycles, 0.0, 0))
  in
  let passes =
    timed_passes ctx (fun i ->
        (* Round seeds of different run seeds never coincide, so the
           hold-out seed replays none of the tuning seed's schedules. *)
        let seed = (ctx.seed * 1000) + i in
        let open_ =
          serve_phase ctx p ~phase:"open"
            (serve_config ~rate:open_rate ~duration:open_seconds ~arrivals:B.Serve.Poisson
               ~check:false ~seed)
        in
        let burst =
          serve_phase ctx p ~phase:"burst"
            (serve_config ~rate:burst_rate
               ~duration:((float_of_int burst_requests +. 0.5) /. burst_rate)
               ~arrivals:B.Serve.Uniform ~check:false ~seed)
        in
        match (open_, burst) with
        | Some (open_rp, _), Some (burst_rp, burst_wall) -> Some { open_rp; burst_rp; burst_wall }
        | _ -> None)
  in
  let rounds ~traced = List.filter_map Fun.id (subset ctx ~traced passes) in
  let end_to_end ~traced =
    match rounds ~traced with
    | [] -> []
    | rs ->
        [
          ("setup_s", Summary.median (subset ctx ~traced setup_times));
          ("pass_s", Summary.median (List.map (fun r -> r.burst_wall) rs));
          ("layout_mcycles", layout_mcycles);
        ]
  in
  let layers =
    match rounds ~traced:true with
    | [] -> []
    | rs ->
        (* Each round's percentile, then the median over rounds: a few
           seconds of a slow host then move one round, not the result. *)
        let per_round q =
          Summary.median (List.map (fun r -> hist_ms (merged_hist [ r.open_rp ]) q) rs)
        in
        let p50 = per_round 0.5 in
        let opens = List.map (fun r -> r.open_rp) rs in
        let h = merged_hist opens in
        let n = B.Histogram.count h in
        let sumf f = List.fold_left (fun a rp -> a +. f rp) 0.0 opens in
        let open_requests = sumf (fun rp -> float_of_int rp.B.Serve.rp_served) in
        let open_s = sumf (fun rp -> rp.B.Serve.rp_wall) in
        let idle =
          sumf (fun rp ->
              float_of_int
                (Array.fold_left
                   (fun a (cs : B.Exec.core_stats) -> a + cs.cs_idle_polls)
                   0 rp.B.Serve.rp_core_stats))
        in
        let burst_s = Summary.median (List.map (fun r -> r.burst_wall) rs) in
        let burst_n = float_of_int (List.hd rs).burst_rp.rp_scheduled in
        let tail_pct, tail_ms, tail_beyond =
          match Summary.tail_pick n with
          | Some (q, b) -> (100.0 *. q, hist_ms h q, float_of_int b)
          | None -> (0.0, 0.0, 0.0)
        in
        [
          ("serve.p50_ms", p50);
          ("serve.p90_ms", per_round 0.9);
          ("serve.service_p50_ms", service_p50);
          ("serve.queue_p50_ms", p50 -. service_p50);
          ("serve.p99_ms", hist_ms h 0.99);
          ("serve.p99_beyond", float_of_int (Summary.beyond ~n 0.99));
          ("serve.tail_pct", tail_pct);
          ("serve.tail_ms", tail_ms);
          ("serve.tail_beyond", tail_beyond);
          ("serve.max_ms", float_of_int (B.Histogram.max_value h) /. 1e6);
          ("serve.stall_s", sumf (fun rp -> rp.B.Serve.rp_stall_seconds));
          ("serve.open_requests", open_requests);
          ("serve.open_s", open_s);
          ("serve.sustained_rps", Summary.ratio open_requests open_s);
          ("serve.burst_requests", burst_n);
          ("serve.burst_s", burst_s);
          ("serve.capacity_rps", Summary.ratio burst_n burst_s);
          ("serve.idle_polls_per_request", Summary.ratio idle open_requests);
          ("serve.mismatches", float_of_int mismatches);
        ]
  in
  { end_to_end; layers }
