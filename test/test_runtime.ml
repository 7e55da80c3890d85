(** Tests for the many-core runtime: correctness across core counts,
    determinism, locking, tag dispatch, and failure modes. *)

module Ir = Bamboo.Ir
module Runtime = Bamboo.Runtime
module Layout = Bamboo.Layout
module Machine = Bamboo.Machine

let test_counter_single_core () =
  let out = Helpers.run_output ~args:[ "5" ] Helpers.counter_src in
  (* sum of doubled 1..5 = 30 *)
  Helpers.check_string "result" "total: 30\n" out

let test_counter_multi_core_same_output () =
  List.iter
    (fun cores ->
      let out, _ = Helpers.run_on_cores ~args:[ "9" ] Helpers.counter_src cores in
      Helpers.check_string (Printf.sprintf "%d cores" cores) "total: 90\n" out)
    [ 1; 2; 3; 4; 8 ]

let test_multi_core_speedup () =
  (* add real work so parallelism shows through the overheads *)
  let src =
    {|
    class Job {
      flag todo; flag fin;
      int n; double out;
      Job(int n) { this.n = n; }
      void crunch() {
        double acc = 0.0;
        for (int i = 0; i < 4000; i = i + 1) { acc = acc + Math.sqrt(i + n); }
        out = acc;
      }
    }
    class Sink { flag open; int left; Sink(int n) { this.left = n; } }
    task startup(StartupObject s in initialstate) {
      for (int i = 0; i < 8; i = i + 1) { Job j = new Job(i){todo := true}; }
      Sink k = new Sink(8){open := true};
      taskexit(s: initialstate := false);
    }
    task crunch(Job j in todo) { j.crunch(); taskexit(j: todo := false, fin := true); }
    task drain(Sink k in open, Job j in fin) {
      k.left = k.left - 1;
      if (k.left == 0) { System.printString("done"); taskexit(k: open := false; j: fin := false); }
      taskexit(j: fin := false);
    }
    |}
  in
  let _, c1 = Helpers.run_on_cores src 1 in
  let out4, c4 = Helpers.run_on_cores src 4 in
  Helpers.check_string "works on 4 cores" "done\n" out4;
  Helpers.check_bool "at least 2x faster on 4 cores" true
    (float_of_int c1 /. float_of_int c4 > 2.0)

let test_determinism () =
  let _, a = Helpers.run_on_cores ~args:[ "7" ] Helpers.counter_src 4 in
  let _, b = Helpers.run_on_cores ~args:[ "7" ] Helpers.counter_src 4 in
  Helpers.check_int "same cycle count on repeat" a b

let test_invocation_counts () =
  let prog = Helpers.compile Helpers.counter_src in
  let r = Runtime.run_single ~args:[ "6" ] ~record_trace:true prog in
  (* 1 startup + 6 work + 6 collect *)
  Helpers.check_int "invocations" 13 r.r_invocations;
  Helpers.check_int "records match" 13 (List.length r.r_records);
  let by_task = Hashtbl.create 4 in
  List.iter
    (fun (rec_ : Runtime.invocation_record) ->
      Hashtbl.replace by_task rec_.ir_task
        (1 + (try Hashtbl.find by_task rec_.ir_task with Not_found -> 0)))
    r.r_records;
  let count name =
    match Ir.find_task prog name with
    | Some t -> ( try Hashtbl.find by_task t.Ir.t_id with Not_found -> 0)
    | None -> -1
  in
  Helpers.check_int "startup once" 1 (count "startup");
  Helpers.check_int "work per item" 6 (count "work");
  Helpers.check_int "collect per item" 6 (count "collect")

let test_messages_only_across_cores () =
  let prog = Helpers.compile Helpers.counter_src in
  let r1 = Runtime.run_single ~args:[ "4" ] prog in
  Helpers.check_int "no messages on one core" 0 r1.r_messages;
  let _, _ = Helpers.run_on_cores ~args:[ "4" ] Helpers.counter_src 4 in
  let an = Bamboo.analyse prog in
  let machine = Machine.with_cores Machine.tilepro64 4 in
  let l = Layout.create machine ~ntasks:(Array.length prog.tasks) in
  Array.iter
    (fun (t : Ir.taskinfo) ->
      Layout.set_cores l t.t_id (if t.t_name = "work" then [| 1; 2; 3 |] else [| 0 |]))
    prog.tasks;
  let r4 = Bamboo.execute ~args:[ "4" ] prog an l in
  Helpers.check_bool "messages flow between cores" true (r4.r_messages > 0)

let test_stuck_detection () =
  (* a task that never clears its flag re-fires forever *)
  let src =
    {|
    class C { flag f; int n; }
    task startup(StartupObject s in initialstate) {
      C c = new C(){f := true};
      taskexit(s: initialstate := false);
    }
    task spin(C c in f) {
      c.n = c.n + 1;
      taskexit(c: f := true);
    }
    |}
  in
  let prog = Helpers.compile src in
  match Runtime.run_single ~max_invocations:500 prog with
  | exception Runtime.Runtime_stuck _ -> ()
  | _ -> Alcotest.fail "expected livelock detection"

let test_invalid_layout_rejected () =
  let prog = Helpers.compile Helpers.counter_src in
  let l = Layout.create Machine.quad ~ntasks:(Array.length prog.tasks) in
  (* leave every task unmapped *)
  match Runtime.run prog l with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected invalid layout rejection"

let test_multi_instance_restriction () =
  let prog = Helpers.compile Helpers.counter_src in
  let collect = match Ir.find_task prog "collect" with Some t -> t | None -> Alcotest.fail "collect" in
  Helpers.check_bool "untagged multi-param task not replicable" false
    (Layout.multi_instance_ok collect);
  let l = Layout.create Machine.quad ~ntasks:(Array.length prog.tasks) in
  Array.iter (fun (t : Ir.taskinfo) -> Layout.set_cores l t.t_id [| 0 |]) prog.tasks;
  Layout.set_cores l collect.t_id [| 0; 1 |];
  Helpers.check_bool "validate flags it" true (Layout.validate prog l <> [])

(* Tag dispatch: two batches must merge with their own collector. *)
let tag_src =
  {|
  class Piece { flag fresh; flag cooked; int batch; int v; Piece(int b, int v) { this.batch = b; this.v = v; } }
  class Pot { flag collecting; flag served; int batch; int sum; int left; Pot(int b, int n) { this.batch = b; this.left = n; } }
  task startup(StartupObject s in initialstate) {
    for (int b = 0; b < 2; b = b + 1) {
      tag bt = new tag(batchtag);
      Pot pot = new Pot(b, 3){collecting := true, add bt};
      for (int i = 0; i < 3; i = i + 1) {
        Piece p = new Piece(b, 10 * b + i){fresh := true, add bt};
      }
    }
    taskexit(s: initialstate := false);
  }
  task cook(Piece p in fresh) {
    p.v = p.v * 2;
    taskexit(p: fresh := false, cooked := true);
  }
  task merge(Pot pot in collecting with batchtag bt, Piece p in cooked with batchtag bt) {
    pot.sum = pot.sum + p.v;
    pot.left = pot.left - 1;
    if (pot.left == 0) {
      System.printString("pot " + pot.batch + ": " + pot.sum);
      taskexit(pot: collecting := false, served := true; p: cooked := false);
    }
    taskexit(p: cooked := false);
  }
  |}

let check_pots out =
  (* batch 0 pieces 0,1,2 doubled = 6; batch 1 pieces 10,11,12 doubled = 66 *)
  let lines = String.split_on_char '\n' out |> List.filter (fun l -> l <> "") in
  Alcotest.(check (list string))
    "each pot sums its own batch"
    [ "pot 0: 6"; "pot 1: 66" ]
    (List.sort compare lines)

let test_tag_dispatch_single_core () = check_pots (Helpers.run_output tag_src)

let test_tag_dispatch_multi_core () =
  let out, _ = Helpers.run_on_cores tag_src 4 in
  check_pots out

let test_tag_hash_multi_instance_merge () =
  (* merge has tags on every param, so it may be instantiated twice *)
  let prog = Helpers.compile tag_src in
  let an = Bamboo.analyse prog in
  let machine = Machine.quad in
  let l = Layout.create machine ~ntasks:(Array.length prog.tasks) in
  Array.iter
    (fun (t : Ir.taskinfo) ->
      match t.t_name with
      | "merge" -> Layout.set_cores l t.t_id [| 1; 2 |]
      | "cook" -> Layout.set_cores l t.t_id [| 0; 1; 2; 3 |]
      | _ -> Layout.set_cores l t.t_id [| 0 |])
    prog.tasks;
  Helpers.check_bool "layout valid" true (Layout.validate prog l = []);
  let r = Bamboo.execute prog an l in
  check_pots r.r_output

let shared_src =
  {|
  class A { flag fa; flag linked; B partner; int id; A(int id) { this.id = id; } }
  class B { flag fb; int id; B(int id) { this.id = id; } }
  class Done { flag open; int left; Done(int n) { this.left = n; } }
  task startup(StartupObject s in initialstate) {
    for (int i = 0; i < 4; i = i + 1) {
      A a = new A(i){fa := true};
      B b = new B(i){fb := true};
    }
    Done d = new Done(4){open := true};
    taskexit(s: initialstate := false);
  }
  task link(A a in fa, B b in fb) {
    a.partner = b;
    taskexit(a: fa := false, linked := true; b: fb := false);
  }
  task finish(Done d in open, A a in linked) {
    d.left = d.left - 1;
    if (d.left == 0) { System.printString("linked all"); taskexit(d: open := false; a: linked := false); }
    taskexit(a: linked := false);
  }
  |}

(* Shared-lock correctness: tasks that link two classes get a group
   lock and still run to completion with correct results. *)
let test_shared_lock_execution () =
  let prog = Helpers.compile shared_src in
  let an = Bamboo.analyse prog in
  (* the disjointness analysis must force a shared lock group *)
  let cid n = Ir.find_class_exn prog n in
  Helpers.check_int "A,B same lock group" an.lock_groups.(cid "A") an.lock_groups.(cid "B");
  let machine = Machine.quad in
  let l = Layout.create machine ~ntasks:(Array.length prog.tasks) in
  Array.iter
    (fun (t : Ir.taskinfo) ->
      Layout.set_cores l t.t_id (if t.t_name = "link" then [| 0 |] else [| 1 |]))
    prog.tasks;
  let r = Bamboo.execute prog an l in
  Helpers.check_string "completes correctly" "linked all\n" r.r_output

let test_transfer_latency_matters () =
  (* The same layout shape on near vs. far cores must cost more cycles
     when messages cross more mesh hops. *)
  let prog = Helpers.compile Helpers.counter_src in
  let an = Bamboo.analyse prog in
  let machine = Machine.tilepro64 in
  let run_with work_core =
    let l = Layout.create machine ~ntasks:(Array.length prog.tasks) in
    Array.iter
      (fun (t : Ir.taskinfo) ->
        Layout.set_cores l t.t_id (if t.t_name = "work" then [| work_core |] else [| 0 |]))
      prog.tasks;
    (* a single item isolates the round-trip: its two transfers are on
       the critical path, so hop latency must show in the makespan *)
    (Bamboo.execute ~args:[ "1" ] prog an l).r_total_cycles
  in
  let near = run_with 1 (* 1 hop *) and far = run_with 61 (* 12 hops *) in
  Helpers.check_bool "more hops cost more cycles" true (far > near)

let test_output_ordering_deterministic () =
  let outs =
    List.init 3 (fun _ -> fst (Helpers.run_on_cores ~args:[ "9" ] Helpers.counter_src 8))
  in
  match outs with
  | [ a; b; c ] ->
      Helpers.check_string "stable across repeats" a b;
      Helpers.check_string "stable across repeats" b c
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Pinned totals on multi-core layouts *)

let totals (r : Runtime.result) =
  [ r.r_total_cycles; r.r_invocations; r.r_failed_locks; r.r_messages ]

(* Cycles, invocations, failed locks and messages of every registry
   program at its registry arguments on a 16-core spread layout.  The
   cycle-level runtime is deterministic, so any change to assembly,
   routing, locking or dispatch order that moves a schedule moves one
   of these. *)
let pinned_registry =
  [
    ("Tracking", [ 14_646_237; 874; 0; 826 ]);
    ("KMeans", [ 33_917_408; 3_721; 0; 3_708 ]);
    ("MonteCarlo", [ 5_540_837; 249; 0; 233 ]);
    ("FilterBank", [ 5_971_196; 249; 0; 233 ]);
    ("Fractal", [ 4_704_310; 497; 0; 465 ]);
    ("Series", [ 4_069_029; 249; 0; 233 ]);
    ("KeywordCount", [ 9_778; 33; 0; 31 ]);
  ]

let test_pinned_registry () =
  List.iter
    (fun (name, expected) ->
      let b = Bamboo_benchmarks.Registry.find name in
      let prog = Helpers.compile b.b_source in
      let an = Bamboo.analyse prog in
      let layout = Bamboo.Exec.spread_layout prog Machine.m16 in
      let r = Bamboo.execute ~args:b.b_args prog an layout in
      Alcotest.(check (list int))
        (name ^ ": cycles, invocations, failed locks, messages")
        expected (totals r))
    pinned_registry

(* None of the registry runs fails a lock, so the group-keyed
   shared-lock program is pinned too: on the layout of "shared locks",
   and with startup, link and finish on three cores, where one group
   lock is contended. *)
let test_pinned_shared_locks () =
  let prog = Helpers.compile shared_src in
  let an = Bamboo.analyse prog in
  let run cores_of =
    let l = Layout.create Machine.quad ~ntasks:(Array.length prog.tasks) in
    Array.iter (fun (t : Ir.taskinfo) -> Layout.set_cores l t.t_id (cores_of t.t_name)) prog.tasks;
    totals (Bamboo.execute prog an l)
  in
  Alcotest.(check (list int))
    "two cores" [ 2_761; 9; 0; 13 ]
    (run (function "link" -> [| 0 |] | _ -> [| 1 |]));
  Alcotest.(check (list int))
    "three cores" [ 3_097; 9; 1; 13 ]
    (run (function "startup" -> [| 0 |] | "link" -> [| 1 |] | _ -> [| 2 |]))

let cores_arb = QCheck.(int_range 1 8)

let runtime_output_core_invariant =
  QCheck.Test.make ~name:"output independent of core count" ~count:12 cores_arb (fun cores ->
      let out, _ = Helpers.run_on_cores ~args:[ "6" ] Helpers.counter_src cores in
      out = "total: 42\n")

let tests =
  [
    ( "runtime.unit",
      [
        Alcotest.test_case "counter single core" `Quick test_counter_single_core;
        Alcotest.test_case "counter multi core" `Quick test_counter_multi_core_same_output;
        Alcotest.test_case "multi core speedup" `Quick test_multi_core_speedup;
        Alcotest.test_case "determinism" `Quick test_determinism;
        Alcotest.test_case "invocation counts" `Quick test_invocation_counts;
        Alcotest.test_case "messages across cores" `Quick test_messages_only_across_cores;
        Alcotest.test_case "stuck detection" `Quick test_stuck_detection;
        Alcotest.test_case "invalid layout" `Quick test_invalid_layout_rejected;
        Alcotest.test_case "multi-instance restriction" `Quick test_multi_instance_restriction;
        Alcotest.test_case "tags single core" `Quick test_tag_dispatch_single_core;
        Alcotest.test_case "tags multi core" `Quick test_tag_dispatch_multi_core;
        Alcotest.test_case "tag hash instances" `Quick test_tag_hash_multi_instance_merge;
        Alcotest.test_case "shared locks" `Quick test_shared_lock_execution;
        Alcotest.test_case "transfer latency" `Quick test_transfer_latency_matters;
        Alcotest.test_case "output ordering" `Quick test_output_ordering_deterministic;
      ] );
    ( "runtime.pinned",
      [
        Alcotest.test_case "registry on 16 cores" `Quick test_pinned_registry;
        Alcotest.test_case "shared locks" `Quick test_pinned_shared_locks;
      ] );
    Helpers.qsuite "runtime.qcheck" [ runtime_output_core_invariant ];
  ]
