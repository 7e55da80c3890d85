(** Tests for the scheduling simulator and critical path analysis. *)

module Ir = Bamboo.Ir
module Runtime = Bamboo.Runtime
module Schedsim = Bamboo.Schedsim
module Critpath = Bamboo.Critpath
module Layout = Bamboo.Layout
module Machine = Bamboo.Machine

let setup ?(args = [ "8" ]) src =
  let prog = Helpers.compile src in
  let prof = Bamboo.profile ~args prog in
  (prog, prof)

let test_sim_matches_real_single_core () =
  let prog, prof = setup Helpers.counter_src in
  let layout = Runtime.single_core_layout prog in
  let est = (Schedsim.simulate prog prof layout).s_total_cycles in
  let real = (Runtime.run_single ~args:[ "8" ] prog).r_total_cycles in
  let err = abs_float (Bamboo.Stats.error_pct ~estimate:(float_of_int est) ~real:(float_of_int real)) in
  Helpers.check_bool (Printf.sprintf "error %.1f%% <= 5%%" err) true (err <= 5.0)

let test_sim_invocation_counts () =
  let prog, prof = setup Helpers.counter_src in
  let layout = Runtime.single_core_layout prog in
  let r = Schedsim.simulate prog prof layout in
  (* 1 startup + 8 work + 8 collect *)
  Helpers.check_int "simulated invocations" 17 r.s_invocations

let test_sim_deterministic () =
  let prog, prof = setup Helpers.counter_src in
  let layout = Runtime.single_core_layout prog in
  let a = (Schedsim.simulate prog prof layout).s_total_cycles in
  let b = (Schedsim.simulate prog prof layout).s_total_cycles in
  Helpers.check_int "same estimate" a b

let test_sim_parallel_faster () =
  let prog, prof = setup Helpers.counter_src in
  let l1 = Runtime.single_core_layout prog in
  let machine = Machine.quad in
  let l4 = Layout.create machine ~ntasks:(Array.length prog.tasks) in
  Array.iter
    (fun (t : Ir.taskinfo) ->
      Layout.set_cores l4 t.t_id (if t.t_name = "work" then [| 0; 1; 2; 3 |] else [| 0 |]))
    prog.tasks;
  let e1 = (Schedsim.simulate prog prof l1).s_total_cycles in
  let e4 = (Schedsim.simulate prog prof l4).s_total_cycles in
  Helpers.check_bool "parallel layout estimated faster" true (e4 < e1)

(* Round-structured program: the count-matching exit rule must fire
   the boundary exit with the right period, or the simulation stalls
   (§4.4 discussion in Schedsim). *)
let rounds_src =
  {|
  class W { flag run; flag sent; flag parked; int n; }
  class M { flag collect; flag redist; flag fin; int seen; int rounds; }
  task startup(StartupObject s in initialstate) {
    for (int i = 0; i < 4; i = i + 1) { W w = new W(){run := true}; }
    M m = new M(){collect := true};
    taskexit(s: initialstate := false);
  }
  task work(W w in run) {
    int acc = 0;
    for (int i = 0; i < 500; i = i + 1) { acc = acc + i; }
    w.n = acc;
    taskexit(w: run := false, sent := true);
  }
  task merge(M m in collect, W w in sent) {
    m.seen = m.seen + 1;
    if (m.seen == 4) {
      m.seen = 0;
      m.rounds = m.rounds + 1;
      if (m.rounds == 5) {
        System.printString("rounds: " + m.rounds);
        taskexit(m: collect := false, fin := true; w: sent := false, parked := true);
      }
      taskexit(m: collect := false, redist := true; w: sent := false, parked := true);
    }
    taskexit(w: sent := false, parked := true);
  }
  task restart(M m in redist, W w in parked) {
    m.seen = m.seen + 1;
    if (m.seen == 4) {
      m.seen = 0;
      taskexit(m: redist := false, collect := true; w: parked := false, run := true);
    }
    taskexit(w: parked := false, run := true);
  }
  |}

let test_sim_round_structure () =
  let prog, prof = setup ~args:[] rounds_src in
  let layout = Runtime.single_core_layout prog in
  let r = Schedsim.simulate prog prof layout in
  let real = Runtime.run_single prog in
  (* real: 1 + 5 rounds x (4 work + 4 merge) + 4 rounds x 4 restart *)
  let real_inv = real.r_invocations in
  Helpers.check_int "simulated all rounds" real_inv r.s_invocations;
  let err =
    abs_float
      (Bamboo.Stats.error_pct
         ~estimate:(float_of_int r.s_total_cycles)
         ~real:(float_of_int real.r_total_cycles))
  in
  Helpers.check_bool (Printf.sprintf "round program error %.1f%% <= 5%%" err) true (err <= 5.0)

let test_critpath_basics () =
  let prog, prof = setup Helpers.counter_src in
  let layout = Runtime.single_core_layout prog in
  let r = Schedsim.simulate prog prof layout in
  let cp = Critpath.analyse r in
  let last_finish =
    Array.fold_left (fun acc (e : Schedsim.event) -> max acc e.ev_finish) 0 r.s_events
  in
  Helpers.check_int "path ends at the last event" last_finish cp.length;
  Helpers.check_bool "path within the makespan" true (cp.length <= r.s_total_cycles);
  Helpers.check_bool "path nonempty" true (cp.path <> []);
  (* the path must be chronologically ordered *)
  let rec ordered = function
    | a :: (b :: _ as rest) ->
        a.Critpath.cp_event.Schedsim.ev_finish <= b.Critpath.cp_event.Schedsim.ev_start + 1
        && ordered rest
    | _ -> true
  in
  Helpers.check_bool "chronological" true (ordered cp.path);
  (* single core: everything is resource- or data-dependent in one chain *)
  Helpers.check_bool "starts at the beginning" true
    ((List.hd cp.path).cp_event.Schedsim.ev_start >= 0)

let test_critpath_opportunities () =
  (* one core hosting everything while others idle: the path should
     surface migration opportunities *)
  let prog, prof = setup Helpers.counter_src in
  let machine = Machine.quad in
  let l = Layout.create machine ~ntasks:(Array.length prog.tasks) in
  Array.iter (fun (t : Ir.taskinfo) -> Layout.set_cores l t.t_id [| 0 |]) prog.tasks;
  let r = Schedsim.simulate prog prof l in
  let cp = Critpath.analyse r in
  let ops = Critpath.opportunities cp in
  Helpers.check_bool "some opportunity on a congested core" true (ops <> [])

let string_of_opportunity = function
  | Critpath.Migrate_delayed (t, c) -> Printf.sprintf "migrate %d@%d" t c
  | Critpath.Move_non_key (t, c) -> Printf.sprintf "move %d@%d" t c

(* The linear opportunity pass against the quadratic oracle it
   replaced, on every registry program's candidate layouts for three
   machines plus heavy shakes of each: long critical paths (thousands
   of steps on KMeans) with both kinds of opportunity. *)
let test_critpath_matches_oracle () =
  let compared = ref 0 and directed = ref 0 and migrations = ref 0 and moves = ref 0 in
  List.iter
    (fun (b : Bamboo_benchmarks.Bench_def.t) ->
      let prog, an, prof = Helpers.registry_profiled b in
      List.iter
        (fun (machine : Machine.t) ->
          let _, _, cands = Bamboo.Candidates.generate ~n:16 ~seed:1 prog an.cstg prof machine in
          let rng = Bamboo.Prng.create ~seed:7 in
          let shakes =
            List.concat_map
              (fun l -> List.init 5 (fun _ -> Bamboo.Dsa.heavy_shake rng prog l))
              cands
          in
          List.iteri
            (fun i l ->
              match Schedsim.simulate prog prof l with
              | exception Schedsim.Sim_overrun _ -> ()
              | r ->
                  let cp = Critpath.analyse r in
                  let linear = Critpath.opportunities cp in
                  let oracle = Critpath_oracle.opportunities cp in
                  if linear <> oracle then
                    Alcotest.failf "%s on %s, layout %d: linear pass [%s], oracle [%s]"
                      b.b_name machine.name i
                      (String.concat "; " (List.map string_of_opportunity linear))
                      (String.concat "; " (List.map string_of_opportunity oracle));
                  incr compared;
                  if linear <> [] then incr directed;
                  List.iter
                    (function
                      | Critpath.Migrate_delayed _ -> incr migrations
                      | Critpath.Move_non_key _ -> incr moves)
                    linear)
            (cands @ shakes))
        [ Machine.tilepro64; Machine.m16; Machine.quad ])
    Bamboo_benchmarks.Registry.all;
  Printf.printf "%d layouts compared, %d with opportunities (%d migrations, %d moves)\n"
    !compared !directed !migrations !moves;
  Helpers.check_bool "both kinds of opportunity compared" true (!migrations > 0 && !moves > 0)

let test_critpath_to_string () =
  let prog, prof = setup Helpers.counter_src in
  let layout = Runtime.single_core_layout prog in
  let r = Schedsim.simulate prog prof layout in
  let cp = Critpath.analyse r in
  let s = Critpath.to_string prog r cp in
  Helpers.check_bool "mentions tasks" true (Str_find.contains s "work");
  Helpers.check_bool "marks path" true (Str_find.contains s "*")

let test_sim_unprofiled_task_is_noop () =
  (* profile with an input that never triggers one task; simulation
     must not crash on it *)
  let src =
    {|
    class C { flag a; flag b; }
    task startup(StartupObject s in initialstate) {
      int n = Integer.parseInt(s.args[0]);
      for (int i = 0; i < n; i = i + 1) { C c = new C(){a := true}; }
      taskexit(s: initialstate := false);
    }
    task hot(C c in a) { taskexit(c: a := false); }
    task cold(C c in b) { taskexit(c: b := false); }
    |}
  in
  let prog = Helpers.compile src in
  let prof = Bamboo.profile ~args:[ "3" ] prog in
  let layout = Bamboo.Runtime.single_core_layout prog in
  let r = Schedsim.simulate prog prof layout in
  Helpers.check_int "only profiled tasks simulated" 4 r.s_invocations

(* ------------------------------------------------------------------ *)
(* Cycle-bound (pruning) semantics *)

let test_cycle_bound_semantics () =
  let prog, prof = setup Helpers.counter_src in
  let layout = Runtime.single_core_layout prog in
  let full = Schedsim.simulate prog prof layout in
  Helpers.check_bool "unbounded run completes" true (full.s_status = Schedsim.Complete);
  Helpers.check_bool "events counted" true (full.s_sim_events > 0);
  let total = full.s_total_cycles in
  (* A bound equal to the true total never triggers: pruning requires
     simulated time to strictly exceed the bound. *)
  let exact = Schedsim.simulate ~cycle_bound:total prog prof layout in
  Helpers.check_bool "bound = total completes" true (exact.s_status = Schedsim.Complete);
  Helpers.check_int "and is unchanged" total exact.s_total_cycles;
  (* Any tighter bound aborts, reports the bound it was pruned at, and
     does strictly less work. *)
  let b = total / 2 in
  let pruned = Schedsim.simulate ~cycle_bound:b prog prof layout in
  Helpers.check_bool "tight bound prunes" true (pruned.s_status = Schedsim.Bounded b);
  Helpers.check_bool "pruned run did some work" true (pruned.s_sim_events > 0);
  Helpers.check_bool "pruned run did less work" true (pruned.s_sim_events < full.s_sim_events);
  (* [Bounded b] must be a proof that the true total exceeds b. *)
  Helpers.check_bool "bound is a true lower bound" true (total > b)

(* ------------------------------------------------------------------ *)
(* Dense engine = reference oracle, event for event, on every paper
   benchmark across layouts. *)

let check_event name i (a : Schedsim.event) (b : Schedsim.event) =
  let fail what av bv =
    Alcotest.failf "%s: event %d: %s differ (%d vs %d)" name i what av bv
  in
  if a.ev_id <> b.ev_id then fail "ids" a.ev_id b.ev_id;
  if a.ev_core <> b.ev_core then fail "cores" a.ev_core b.ev_core;
  if a.ev_task <> b.ev_task then fail "tasks" a.ev_task b.ev_task;
  if a.ev_exit <> b.ev_exit then fail "exits" a.ev_exit b.ev_exit;
  if a.ev_ready <> b.ev_ready then fail "ready times" a.ev_ready b.ev_ready;
  if a.ev_start <> b.ev_start then fail "start times" a.ev_start b.ev_start;
  if a.ev_finish <> b.ev_finish then fail "finish times" a.ev_finish b.ev_finish;
  if a.ev_inputs <> b.ev_inputs then
    Alcotest.failf "%s: event %d: input edges differ" name i

let check_results_equal name (a : Schedsim.result) (b : Schedsim.result) =
  Helpers.check_int (name ^ ": total cycles") a.s_total_cycles b.s_total_cycles;
  Helpers.check_int (name ^ ": invocations") a.s_invocations b.s_invocations;
  Helpers.check_int (name ^ ": sim events") a.s_sim_events b.s_sim_events;
  Helpers.check_bool (name ^ ": status") true (a.s_status = b.s_status);
  Alcotest.(check (array int)) (name ^ ": per-core busy") a.s_per_core_busy b.s_per_core_busy;
  Helpers.check_int (name ^ ": trace length") (Array.length a.s_events)
    (Array.length b.s_events);
  Array.iteri (fun i ea -> check_event name i ea b.s_events.(i)) a.s_events

(** Simulate every layout with both engines — unbounded and bounded —
    and require identical results. *)
let check_equivalence (b : Bamboo_benchmarks.Bench_def.t) =
  let args = Helpers.small_args b.b_name in
  let prog = Bamboo.compile b.b_source in
  let an = Bamboo.analyse prog in
  let prof = Bamboo.profile ~args prog in
  let _, _, seeds =
    Bamboo.Candidates.generate ~n:5 ~seed:17 prog an.cstg prof Machine.m16
  in
  let layouts = Runtime.single_core_layout prog :: seeds in
  let prepared = Schedsim.prepare prog prof in
  List.iteri
    (fun i l ->
      let name = Printf.sprintf "%s layout %d" b.b_name i in
      let r_ref = Schedsim_reference.simulate prog prof l in
      let r_dense = Schedsim.simulate_prepared prepared l in
      check_results_equal name r_ref r_dense;
      (* Bounded runs must agree too: same abort point, same partial
         event counts. *)
      let bound = max 1 (r_ref.s_total_cycles * 3 / 4) in
      let p_ref = Schedsim_reference.simulate ~cycle_bound:bound prog prof l in
      let p_dense = Schedsim.simulate_prepared ~cycle_bound:bound prepared l in
      check_results_equal (name ^ " (bounded)") p_ref p_dense)
    layouts

let equivalence_cases =
  List.map
    (fun (b : Bamboo_benchmarks.Bench_def.t) ->
      Alcotest.test_case b.b_name `Quick (fun () -> check_equivalence b))
    Bamboo_benchmarks.Registry.paper_benchmarks

let tests =
  [
    ( "sim.unit",
      [
        Alcotest.test_case "matches real 1-core" `Quick test_sim_matches_real_single_core;
        Alcotest.test_case "invocation counts" `Quick test_sim_invocation_counts;
        Alcotest.test_case "deterministic" `Quick test_sim_deterministic;
        Alcotest.test_case "parallel faster" `Quick test_sim_parallel_faster;
        Alcotest.test_case "round structure" `Quick test_sim_round_structure;
        Alcotest.test_case "unprofiled task" `Quick test_sim_unprofiled_task_is_noop;
        Alcotest.test_case "cycle bound semantics" `Quick test_cycle_bound_semantics;
      ] );
    ("sim.equivalence", equivalence_cases);
    ( "sim.critpath",
      [
        Alcotest.test_case "basics" `Quick test_critpath_basics;
        Alcotest.test_case "opportunities" `Quick test_critpath_opportunities;
        Alcotest.test_case "linear pass matches oracle" `Slow test_critpath_matches_oracle;
        Alcotest.test_case "rendering" `Quick test_critpath_to_string;
      ] );
  ]
