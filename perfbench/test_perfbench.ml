(* Tests of the benchmark's own code: the expected-output check, the
   tail-percentile picker, ratio bases, the geometric mean behind
   layout_mcycles, span self times, and that every workload prints
   every metric BENCHMARK.json names, each with its unit.  Workloads
   run here on small inputs so the suite stays quick. *)

open Perfbench
module Registry = Bamboo_benchmarks.Registry

let kc = Registry.keyword_counter
let table = Lazy.force Expected.table

let corrupt (r : Expected.row) =
  let d = Bytes.of_string r.digest in
  Bytes.set d 0 (if Bytes.get d 0 = '0' then '1' else '0');
  { r with digest = Bytes.to_string d }

let small_ctx ?(table = table) ?(tracing = false) () =
  Workloads.make_ctx ~table ~seed:1 ~seconds:0.0 ~tracing ()

(* ------------------------------------------------------------------ *)

let test_table_covers_workloads () =
  let rows =
    List.map (fun (b : Bamboo_benchmarks.Bench_def.t) -> (b.b_name, b.b_args)) Registry.all
  in
  List.iter
    (fun (program, args) ->
      let r = Expected.row table ~program ~args in
      Expected.validate r)
    rows

let test_check_accepts_table () =
  let r = Expected.row table ~program:"KeywordCount" ~args:[ "16" ] in
  Alcotest.(check bool) "matching run passes" true
    (Expected.check r ~digest:r.digest ~output:("x\n" ^ r.line ^ "\n") = Ok ());
  Alcotest.(check bool) "missing line fails" true
    (Result.is_error (Expected.check r ~digest:r.digest ~output:"keyword count: 1\n"))

let test_corrupted_digest_fails () =
  let r = Expected.row table ~program:"KeywordCount" ~args:[ "16" ] in
  Alcotest.(check bool) "row check fails" true
    (Result.is_error (Expected.check (corrupt r) ~digest:r.digest ~output:r.line));
  (* A whole workload run against a table with that row corrupted
     counts the runs of that program as failed. *)
  let bad = List.map (fun (x : Expected.row) -> if x = r then corrupt x else x) table in
  let ok_ctx = small_ctx () and bad_ctx = small_ctx ~table:bad () in
  ignore (Workloads.exec_workload ok_ctx [ (kc, [ "16" ]) ]);
  ignore (Workloads.exec_workload bad_ctx [ (kc, [ "16" ]) ]);
  Alcotest.(check int) "true table: nothing fails" 0 ok_ctx.failed;
  Alcotest.(check bool) "corrupted table: some operation fails" true (bad_ctx.failed > 0);
  Alcotest.(check int) "every operation fails" bad_ctx.attempted bad_ctx.failed

(* ------------------------------------------------------------------ *)

let test_tail_pick_examples () =
  let pick n = Summary.tail_pick n in
  Alcotest.(check (option (pair (float 0.0) int))) "too few samples" None (pick 19);
  Alcotest.(check (option (pair (float 0.0) int))) "median" (Some (0.5, 10)) (pick 20);
  Alcotest.(check (option (pair (float 0.0) int))) "p90" (Some (0.9, 99)) (pick 999);
  Alcotest.(check (option (pair (float 0.0) int))) "p99" (Some (0.99, 10)) (pick 1000);
  Alcotest.(check (option (pair (float 0.0) int))) "p99.9" (Some (0.999, 10)) (pick 10_000)

let test_tail_pick_highest () =
  for n = 1 to 30_000 do
    match Summary.tail_pick n with
    | None ->
        List.iter
          (fun q -> if Summary.beyond ~n q >= 10 then Alcotest.failf "n=%d: %g qualifies" n q)
          Summary.tail_candidates
    | Some (q, b) ->
        if b <> Summary.beyond ~n q || b < 10 then Alcotest.failf "n=%d: bad count %d" n b;
        List.iter
          (fun q' ->
            if q' > q && Summary.beyond ~n q' >= 10 then
              Alcotest.failf "n=%d: %g is higher than %g and qualifies" n q' q)
          Summary.tail_candidates
  done

(* ------------------------------------------------------------------ *)

let test_ratios_have_bases () =
  List.iter
    (fun (s : Catalogue.spec) ->
      match s.kind with
      | Catalogue.Plain -> ()
      | Catalogue.Ratio base ->
          if not (List.exists (fun (b : Catalogue.spec) -> b.name = base) Catalogue.per_layer)
          then Alcotest.failf "%s: base %s is not printed beside it" s.name base)
    (Catalogue.end_to_end @ Catalogue.per_layer);
  (* and the rates and hit rates are declared as ratios *)
  List.iter
    (fun name ->
      match List.find_opt (fun (s : Catalogue.spec) -> s.name = name) Catalogue.per_layer with
      | Some { kind = Catalogue.Ratio _; _ } -> ()
      | _ -> Alcotest.failf "%s is not reported as a ratio with its base" name)
    [
      "synth.hit_rate"; "synth.prune_rate"; "synth.evals_per_s"; "sim.events_per_s";
      "exec.steal_hit_rate.steal"; "exec.us_per_invocation.static"; "serve.capacity_rps";
    ]

let test_geomean () =
  Alcotest.(check (float 1e-12)) "geometric, not arithmetic" 2.0
    (Workloads.layout_mcycles [ 1_000_000; 4_000_000 ]);
  Alcotest.(check (float 1e-9)) "scale-free" 30.0 (Summary.geomean [ 10.0; 90.0 ]);
  Alcotest.check_raises "zero cycles rejected"
    (Invalid_argument "Summary.geomean: non-positive value") (fun () ->
      ignore (Summary.geomean [ 1.0; 0.0 ]))

let test_self_times () =
  let span id parent t0 t1 =
    let t0 = Int64.of_int t0 and t1 = Int64.of_int t1 in
    { Trace.id; parent; name = "x"; tag = ""; group = 0; t0; t1 }
  in
  let spans = [ span 0 (-1) 0 100; span 1 0 10 30; span 2 0 50 60; span 3 1 12 20 ] in
  let self =
    List.map (fun ((s : Trace.span), ns) -> (s.id, Int64.to_int ns)) (Trace.self_times spans)
  in
  Alcotest.(check (list (pair int int)))
    "span minus its children" [ (0, 70); (1, 12); (2, 10); (3, 8) ] self;
  let t = Trace.create ~on:true () in
  ignore (Trace.with_span t "outer" (fun () -> Trace.with_span t "inner" (fun () -> 1)));
  match Trace.spans t with
  | [ inner; outer ] ->
      Alcotest.(check int) "parent recorded" outer.id inner.parent;
      Alcotest.(check string) "names" "inner/outer" (inner.name ^ "/" ^ outer.name)
  | l -> Alcotest.failf "expected 2 spans, got %d" (List.length l)

(* ------------------------------------------------------------------ *)
(* Every workload prints every metric BENCHMARK.json names. *)

let benchmark_json =
  lazy (Json.of_string (In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all))

let names_units key =
  match Json.member key (Lazy.force benchmark_json) with
  | Some (Json.Arr ms) ->
      List.map
        (fun m ->
          match (Json.member "name" m, Json.member "unit" m) with
          | Some (Json.Str n), Some (Json.Str u) -> (n, u)
          | _ -> Alcotest.failf "%s entry without name or unit" key)
        ms
  | _ -> Alcotest.failf "BENCHMARK.json has no %s list" key

let test_catalogue_matches_benchmark_json () =
  let specs l = List.map (fun (s : Catalogue.spec) -> (s.name, s.unit_)) l in
  Alcotest.(check (list (pair string string))) "end_to_end" (names_units "end_to_end")
    (specs Catalogue.end_to_end);
  Alcotest.(check (list (pair string string))) "per_layer" (names_units "per_layer")
    (specs Catalogue.per_layer)

let small_workload name ctx =
  match name with
  | "compile" -> Workloads.compile_workload ctx [ kc ]
  | "exec" -> Workloads.exec_workload ctx [ (kc, [ "16" ]) ]
  | "serve" ->
      Workloads.serve_workload ~check_seconds:0.02 ~open_seconds:0.1 ~burst_requests:50 ctx
  | w -> Alcotest.failf "unknown workload %s" w

let test_outputs_carry_every_metric () =
  List.iter
    (fun workload ->
      List.iter
        (fun tracing ->
          let ctx = small_ctx ~tracing () in
          let r = small_workload workload ctx in
          let rendered = Report.metrics ~tracing ctx r in
          let key = if tracing then "per_layer" else "end_to_end" in
          let got =
            match rendered with
            | Json.Obj kvs ->
                List.map
                  (fun (n, m) ->
                    match Json.member "unit" m with
                    | Some (Json.Str u) -> (n, u)
                    | _ -> Alcotest.failf "%s/%s: %s has no unit" workload key n)
                  kvs
            | _ -> Alcotest.fail "metrics is not an object"
          in
          Alcotest.(check (list (pair string string)))
            (Printf.sprintf "%s %s" workload key) (names_units key) got;
          Alcotest.(check int) (workload ^ ": no failures") 0 ctx.failed;
          if not tracing then
            List.iter
              (fun (n, m) ->
                match Json.member "value" m with
                | Some (Json.Num v) when v > 0.0 -> ()
                | _ -> Alcotest.failf "%s: end-to-end %s is not positive" workload n)
              (match rendered with Json.Obj kvs -> kvs | _ -> []))
        [ false; true ])
    [ "compile"; "exec"; "serve" ]

let () =
  Alcotest.run "perfbench"
    [
      ( "expected",
        [
          Alcotest.test_case "table covers every workload input" `Quick test_table_covers_workloads;
          Alcotest.test_case "check accepts the table" `Quick test_check_accepts_table;
          Alcotest.test_case "corrupted digest fails" `Quick test_corrupted_digest_fails;
        ] );
      ( "summary",
        [
          Alcotest.test_case "tail pick examples" `Quick test_tail_pick_examples;
          Alcotest.test_case "tail pick is highest" `Quick test_tail_pick_highest;
          Alcotest.test_case "ratios carry bases" `Quick test_ratios_have_bases;
          Alcotest.test_case "layout_mcycles is a geomean" `Quick test_geomean;
          Alcotest.test_case "span self times" `Quick test_self_times;
        ] );
      ( "output",
        [
          Alcotest.test_case "catalogue matches BENCHMARK.json" `Quick
            test_catalogue_matches_benchmark_json;
          Alcotest.test_case "every workload prints every metric" `Quick
            test_outputs_carry_every_metric;
        ] );
    ]
