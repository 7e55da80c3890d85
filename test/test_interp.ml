(** Tests for the interpreter and its cycle cost model, driven
    through complete tiny programs. *)

(* Wrap a statement sequence into a runnable startup task. *)
let wrap ?(classes = "") body =
  Printf.sprintf
    {|
    %s
    task startup(StartupObject s in initialstate) {
      %s
      taskexit(s: initialstate := false);
    }
    |}
    classes body

let run ?args ?classes body = Helpers.run_output ?args (wrap ?classes body)

let check_prints name expected body =
  Helpers.check_string name expected (run body)

let test_arith () =
  check_prints "int arith" "17\n" "System.printInt(2 + 3 * 5);";
  check_prints "div mod" "3 1\n" "System.printString((7 / 2) + \" \" + (7 % 2));";
  check_prints "neg" "-5\n" "System.printInt(-5);";
  check_prints "bitops" "6\n" "System.printInt((12 & 7) ^ 2);";
  check_prints "shift" "40\n" "System.printInt(5 << 3);";
  check_prints "double" "2.500000\n" "System.printDouble(5.0 / 2.0);";
  check_prints "cast trunc" "2\n" "System.printInt((int)(5.0 / 2.0));";
  check_prints "cast widen" "2.000000\n" "System.printDouble((double)2);"

let test_comparisons () =
  check_prints "lt" "yes\n" "if (1 < 2) { System.printString(\"yes\"); }";
  check_prints "string eq" "eq\n"
    "if (\"ab\".equals(\"a\" + \"b\")) { System.printString(\"eq\"); }";
  check_prints "shortcircuit and" "ok\n"
    "int x = 0; if (x != 0 && 1 / x > 0) { } System.printString(\"ok\");"

let test_control_flow () =
  check_prints "while" "10\n" "int i = 0; int acc = 0; while (i < 5) { acc = acc + i; i = i + 1; } System.printInt(acc);";
  check_prints "for" "10\n" "int acc = 0; for (int i = 0; i < 5; i = i + 1) { acc = acc + i; } System.printInt(acc);";
  check_prints "break" "3\n" "int i = 0; while (true) { i = i + 1; if (i == 3) { break; } } System.printInt(i);";
  check_prints "continue" "13\n"
    "int acc = 0; int i = 0; while (i < 5) { i = i + 1; if (i == 2) { continue; } acc = acc + i; } System.printInt(acc);"

let test_strings () =
  check_prints "length" "5\n" "System.printInt(\"hello\".length());";
  check_prints "charAt" "101\n" "System.printInt(\"hello\".charAt(1));";
  check_prints "substring" "ell\n" "System.printString(\"hello\".substring(1, 4));";
  check_prints "indexOf" "2\n" "System.printInt(\"hello\".indexOf(\"ll\", 0));";
  check_prints "concat num" "v=3 w=2.5\n"
    "System.printString(\"v=\" + 3 + \" w=\" + 2.5);";
  check_prints "parse" "45\n" "System.printInt(Integer.parseInt(\"45\"));"

let test_math () =
  check_prints "sqrt" "3.000000\n" "System.printDouble(Math.sqrt(9.0));";
  check_prints "pow" "8.000000\n" "System.printDouble(Math.pow(2.0, 3.0));";
  check_prints "imax" "7\n" "System.printInt(Math.imax(3, 7));";
  check_prints "floor" "2.000000\n" "System.printDouble(Math.floor(2.9));";
  check_prints "min" "1.500000\n" "System.printDouble(Math.min(2.0, 1.5));";
  check_prints "max" "2.000000\n" "System.printDouble(Math.max(2.0, 1.5));";
  (* Stdlib's order: a NaN first operand yields the second, a NaN
     second operand yields NaN ([Math.abs] drops the sign the host's
     printf would show). *)
  let nan_case call =
    Printf.sprintf "double n = 0.0 / 0.0; System.printDouble(Math.abs(%s));" call
  in
  check_prints "min nan first" "1.000000\n" (nan_case "Math.min(n, 1.0)");
  check_prints "min nan second" "nan\n" (nan_case "Math.min(1.0, n)");
  check_prints "max nan first" "1.000000\n" (nan_case "Math.max(n, 1.0)");
  check_prints "max nan second" "nan\n" (nan_case "Math.max(1.0, n)")

let test_arrays () =
  check_prints "int array" "6\n"
    "int[] a = new int[3]; a[0] = 1; a[1] = 2; a[2] = 3; System.printInt(a[0] + a[1] + a[2]);";
  check_prints "length" "4\n" "double[] a = new double[4]; System.printInt(a.length);";
  check_prints "2d array" "5\n"
    "int[][] m = new int[2][3]; m[1][2] = 5; System.printInt(m[1][2]);";
  check_prints "boolean array" "yes\n"
    "boolean[] b = new boolean[2]; b[1] = true; if (b[1] && !b[0]) { System.printString(\"yes\"); }";
  check_prints "string array" "hi\n"
    "String[] a = new String[1]; a[0] = \"hi\"; System.printString(a[0]);"

let test_objects_methods () =
  let classes =
    {|
    class Point {
      int x;
      int y;
      Point(int x, int y) { this.x = x; this.y = y; }
      int manhattan(Point other) {
        return Math.iabs(x - other.x) + Math.iabs(y - other.y);
      }
      int sum() { return helper() + y; }
      int helper() { return x; }
    }
    |}
  in
  Helpers.check_string "methods" "7\n"
    (run ~classes "Point a = new Point(0, 0); Point b = new Point(3, 4); System.printInt(a.manhattan(b));");
  Helpers.check_string "unqualified call" "3\n"
    (run ~classes "Point p = new Point(1, 2); System.printInt(p.sum());")

let test_random_deterministic () =
  let body =
    "Random r = new Random(42); System.printInt(r.nextInt(1000)); System.printInt(r.nextInt(1000));"
  in
  let a = run body and b = run body in
  Helpers.check_string "same seed same stream" a b;
  let c = run "Random r = new Random(43); System.printInt(r.nextInt(1000)); System.printInt(r.nextInt(1000));" in
  Helpers.check_bool "different seed differs" true (a <> c)

let test_random_gaussian_mean () =
  let out =
    run
      "Random r = new Random(7); double acc = 0.0; for (int i = 0; i < 2000; i = i + 1) { acc = acc + r.nextGaussian(); } System.printInt((int)(acc / 100.0));"
  in
  (* sum of 2000 gaussians ~ N(0, 2000): acc/100 has stddev ~0.45 *)
  let v = int_of_string (String.trim out) in
  Helpers.check_bool "gaussian mean near zero" true (abs v <= 2)

let test_args () =
  Helpers.check_string "args access" "7\n"
    (Helpers.run_output ~args:[ "3"; "4" ]
       (wrap "System.printInt(Integer.parseInt(s.args[0]) + Integer.parseInt(s.args[1]));"))

let expect_runtime_error body =
  match run body with
  | exception Bamboo.Value.Runtime_error _ -> ()
  | _ -> Alcotest.fail "expected runtime error"

let test_runtime_errors () =
  expect_runtime_error "int q = 1 / 0;";
  expect_runtime_error "int q = 1 % 0;";
  expect_runtime_error "int[] a = new int[2]; a[5] = 1;";
  expect_runtime_error "int[] a = new int[2]; int x = a[-1];";
  expect_runtime_error "String txt = \"ab\"; int c = txt.charAt(9);";
  expect_runtime_error "int[] a = null; int x = a[0];"

let test_null_deref () =
  match
    run ~classes:"class C { int x; }" "C c = null; int v = c.x;"
  with
  | exception Bamboo.Value.Runtime_error msg ->
      Helpers.check_bool "mentions null" true (Str_find.contains msg "null")
  | _ -> Alcotest.fail "expected null deref error"

let test_cycles_monotone_and_deterministic () =
  let prog = Helpers.compile (wrap "int acc = 0; for (int i = 0; i < 100; i = i + 1) { acc = acc + i; }") in
  let r1 = Bamboo.Runtime.run_single prog in
  let r2 = Bamboo.Runtime.run_single prog in
  Helpers.check_int "deterministic cycles" r1.r_total_cycles r2.r_total_cycles;
  Helpers.check_bool "positive cycles" true (r1.r_total_cycles > 0)

let test_cost_scales_with_work () =
  let cycles n =
    let prog =
      Helpers.compile
        (wrap (Printf.sprintf "int acc = 0; for (int i = 0; i < %d; i = i + 1) { acc = acc + i; }" n))
    in
    (Bamboo.Runtime.run_single prog).r_total_cycles
  in
  let c1 = cycles 100 and c2 = cycles 10_000 in
  let ratio = float_of_int c2 /. float_of_int c1 in
  Helpers.check_bool "work scales roughly linearly" true (ratio > 20.0 && ratio < 120.0)

(* qcheck: random arithmetic expressions evaluated against an OCaml oracle *)

type iexpr = Lit of int | Add of iexpr * iexpr | Sub of iexpr * iexpr | Mul of iexpr * iexpr

let rec iexpr_to_src = function
  | Lit n -> if n < 0 then Printf.sprintf "(0 - %d)" (-n) else string_of_int n
  | Add (a, b) -> Printf.sprintf "(%s + %s)" (iexpr_to_src a) (iexpr_to_src b)
  | Sub (a, b) -> Printf.sprintf "(%s - %s)" (iexpr_to_src a) (iexpr_to_src b)
  | Mul (a, b) -> Printf.sprintf "(%s * %s)" (iexpr_to_src a) (iexpr_to_src b)

let rec iexpr_eval = function
  | Lit n -> n
  | Add (a, b) -> iexpr_eval a + iexpr_eval b
  | Sub (a, b) -> iexpr_eval a - iexpr_eval b
  | Mul (a, b) -> iexpr_eval a * iexpr_eval b

let iexpr_gen =
  QCheck.Gen.(
    sized
    @@ fix (fun self n ->
           if n <= 1 then map (fun v -> Lit v) (int_range (-50) 50)
           else
             frequency
               [
                 (1, map (fun v -> Lit v) (int_range (-50) 50));
                 (2, map2 (fun a b -> Add (a, b)) (self (n / 2)) (self (n / 2)));
                 (2, map2 (fun a b -> Sub (a, b)) (self (n / 2)) (self (n / 2)));
                 (1, map2 (fun a b -> Mul (a, b)) (self (n / 2)) (self (n / 2)));
               ]))

let interp_matches_oracle =
  QCheck.Test.make ~name:"interpreter agrees with OCaml on int expressions" ~count:60
    (QCheck.make ~print:iexpr_to_src iexpr_gen)
    (fun e ->
      let out = run (Printf.sprintf "System.printInt(%s);" (iexpr_to_src e)) in
      int_of_string (String.trim out) = iexpr_eval e)

(* ------------------------------------------------------------------ *)
(* Allocation per simulated cycle *)

(* Minor-heap words the profiling run allocates per thousand cycles, at
   the registry arguments.  The run is on one domain, so
   [Gc.minor_words] counts every allocation it makes.  A float compare
   that calls a helper in another module boxes both operands
   ([-opaque]), which these ceilings catch: measured 7.4 (KMeans) and
   3.5 (Fractal) with [Float.compare] inline, 19.0 and 52.4 through
   such a helper.  Each ceiling is about 1.5x the value measured when
   it was set. *)
let alloc_ceilings = [ ("KMeans", 11.0); ("Fractal", 5.5) ]

let check_alloc (name, ceiling) =
  let b = Bamboo_benchmarks.Registry.find name in
  let prog = Helpers.compile b.b_source in
  let before = Gc.minor_words () in
  let _, r = Bamboo.Profile.collect ~args:b.b_args prog in
  let words = Gc.minor_words () -. before in
  let per_kcycle = words /. float_of_int r.r_total_cycles *. 1000.0 in
  Printf.printf "%s: %.0f minor words over %d cycles, %.2f per thousand cycles\n" name words
    r.r_total_cycles per_kcycle;
  Helpers.check_bool
    (Printf.sprintf "%s: %.2f <= %.1f words per thousand cycles" name per_kcycle ceiling)
    true (per_kcycle <= ceiling)

(* The closure engine keeps doubles unboxed through [Math.min] and
   [Math.max]: a loop over both allocates nothing per iteration.  A
   call to a helper in another module boxes both operands of each,
   8 words per iteration. *)
let test_alloc_min_max () =
  let iterations = 200_000 in
  let prog =
    Helpers.compile
      (wrap
         (Printf.sprintf
            "double acc = 0.0; double x = 0.5; \
             for (int i = 0; i < %d; i = i + 1) { \
             acc = acc + Math.min(x, 3.0) + Math.max(x, 0.25); } \
             System.printDouble(acc);"
            iterations))
  in
  let before = Gc.minor_words () in
  ignore (Bamboo.Runtime.run_single prog);
  let per_iteration = (Gc.minor_words () -. before) /. float_of_int iterations in
  Printf.printf "Math.min/max loop: %.2f minor words per iteration\n" per_iteration;
  Helpers.check_bool
    (Printf.sprintf "%.2f <= 0.5 words per iteration" per_iteration)
    true (per_iteration <= 0.5)

let tests =
  [
    ( "interp.unit",
      [
        Alcotest.test_case "arithmetic" `Quick test_arith;
        Alcotest.test_case "comparisons" `Quick test_comparisons;
        Alcotest.test_case "control flow" `Quick test_control_flow;
        Alcotest.test_case "strings" `Quick test_strings;
        Alcotest.test_case "math" `Quick test_math;
        Alcotest.test_case "arrays" `Quick test_arrays;
        Alcotest.test_case "objects and methods" `Quick test_objects_methods;
        Alcotest.test_case "random deterministic" `Quick test_random_deterministic;
        Alcotest.test_case "gaussian mean" `Quick test_random_gaussian_mean;
        Alcotest.test_case "args" `Quick test_args;
        Alcotest.test_case "runtime errors" `Quick test_runtime_errors;
        Alcotest.test_case "null deref" `Quick test_null_deref;
        Alcotest.test_case "cycles deterministic" `Quick test_cycles_monotone_and_deterministic;
        Alcotest.test_case "cost scales" `Quick test_cost_scales_with_work;
      ] );
    Helpers.qsuite "interp.qcheck" [ interp_matches_oracle ];
    ( "interp.alloc",
      List.map
        (fun ((name, _) as c) -> Alcotest.test_case name `Quick (fun () -> check_alloc c))
        alloc_ceilings
      @ [ Alcotest.test_case "Math.min/max loop" `Quick test_alloc_min_max ] );
  ]
