(** Equivalence suite for the two interpreter engines.

    The closure engine ({!Bamboo.Iclosure}) must be observationally
    indistinguishable from the tree-walking oracle selected by
    [Interp.engine := Tree]: same output, same canonical digest, same
    error messages, and — because the whole experimental apparatus is
    built on the cycle model — *bit-identical* cycle and fuel totals.
    The suite checks all seven benchmarks sequentially and at 2/4/8
    domains, every interpreter error path by message equality, the
    Java fidelity of [Random.nextInt], a first-compile race across
    domains, and a differential fuzzer over randomly generated
    well-typed bodies. *)

module Interp = Bamboo.Interp
module Canon = Bamboo.Canon
module Exec = Bamboo.Exec
module Machine = Bamboo.Machine
module Registry = Bamboo_benchmarks.Registry
module Bench_def = Bamboo_benchmarks.Bench_def

(** Run [f] with engine [e] selected for contexts created inside it,
    restoring the default afterwards. *)
let with_engine e f =
  let saved = !Interp.engine in
  Interp.engine := e;
  Fun.protect ~finally:(fun () -> Interp.engine := saved) f

let with_reference f = with_engine Interp.Tree f
let with_closure f = with_engine Interp.Closure f

(* ------------------------------------------------------------------ *)
(* Sequential equivalence: output, digest, and exact cycles *)

type seq_obs = { o_out : string; o_cycles : int; o_digest : string }

let observe_seq prog args =
  let r = Bamboo.Runtime.run_single ~args prog in
  {
    o_out = r.r_output;
    o_cycles = r.r_total_cycles;
    o_digest = Canon.digest prog ~output:r.r_output ~objects:r.r_objects;
  }

let test_seq_equivalence (b : Bench_def.t) () =
  let args = Helpers.small_args b.b_name in
  let prog = Bamboo.compile b.b_source in
  let tree = with_reference (fun () -> observe_seq prog args) in
  let got = with_closure (fun () -> observe_seq prog args) in
  let name what = Printf.sprintf "%s %s" b.b_name what in
  Helpers.check_string (name "output") tree.o_out got.o_out;
  Helpers.check_string (name "digest") tree.o_digest got.o_digest;
  Helpers.check_int (name "exact cycles") tree.o_cycles got.o_cycles

(* ------------------------------------------------------------------ *)
(* Parallel equivalence: digest (always) and exact charged cycles at
   2/4/8 domains.  Charged cycles are placement-invariant — an
   invocation charges by the operations its body executes — but for
   Tracking and KMeans the body cost itself depends on object state
   whose intermediate values vary with assembly order (the final
   state converges, so digests agree while run totals drift by a few
   cycles even between two runs of the *same* engine).  For those two
   the bit-exact cycle contract is pinned by the sequential test
   above; here they get the digest assertion only. *)

let cycles_schedule_invariant name = not (List.mem name [ "Tracking"; "KMeans" ])

let test_par_equivalence (b : Bench_def.t) () =
  let args = Helpers.small_args b.b_name in
  let prog = Bamboo.compile b.b_source in
  let an = Bamboo.analyse prog in
  let machine = Machine.with_cores Machine.tilepro64 8 in
  let layout = Exec.spread_layout prog machine in
  let run () =
    List.map
      (fun domains ->
        let r =
          Exec.run ~args ~domains ~seed:domains ~lock_groups:an.lock_groups prog layout
        in
        (domains, r.x_digest, r.x_cycles))
      [ 2; 4; 8 ]
  in
  let tree = with_reference run in
  List.iter2
    (fun (d, cdig, ccyc) (_, tdig, tcyc) ->
      Helpers.check_string (Printf.sprintf "%s digest @ %d domains" b.b_name d) tdig cdig;
      if cycles_schedule_invariant b.b_name then
        Helpers.check_int (Printf.sprintf "%s cycles @ %d domains" b.b_name d) tcyc ccyc)
    (with_closure run) tree

let equivalence_cases =
  List.concat_map
    (fun (b : Bench_def.t) ->
      [
        Alcotest.test_case (b.b_name ^ " sequential") `Quick (test_seq_equivalence b);
        Alcotest.test_case (b.b_name ^ " 2/4/8 domains") `Quick (test_par_equivalence b);
      ])
    Registry.all

(* ------------------------------------------------------------------ *)
(* Error paths: both engines must raise Runtime_error with the *same
   message*, not merely the same exception type. *)

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

let error_message ?classes body =
  match Helpers.run_output (wrap ?classes body) with
  | out -> Alcotest.failf "expected a runtime error, got output %S" out
  | exception Bamboo.Value.Runtime_error m -> m

let check_same_error name ?classes body =
  let tree = with_reference (fun () -> error_message ?classes body) in
  Helpers.check_string name tree (with_closure (fun () -> error_message ?classes body))

let test_error_messages () =
  check_same_error "div by zero" "int z = 0; int q = 1 / z;";
  check_same_error "mod by zero" "int z = 0; int q = 1 % z;";
  check_same_error "array store oob" "int[] a = new int[2]; a[5] = 1;";
  check_same_error "array load negative" "int[] a = new int[2]; int x = a[-1];";
  check_same_error "double array oob" "double[] a = new double[3]; double x = a[7];";
  check_same_error "null array deref" "int[] a = null; int x = a[0];";
  check_same_error "null field deref" ~classes:"class C { int x; }" "C c = null; int v = c.x;";
  check_same_error "null receiver" ~classes:"class C { int get() { return 1; } }"
    "C c = null; int v = c.get();";
  check_same_error "charAt oob" "String t = \"ab\"; int c = t.charAt(9);";
  check_same_error "substring oob" "String t = \"ab\"; String u = t.substring(1, 5);";
  check_same_error "parseInt garbage" "int n = Integer.parseInt(\"zap\");";
  check_same_error "negative array size" "int n = 0 - 3; int[] a = new int[n];";
  check_same_error "nextInt bad bound" "Random r = new Random(1); int n = r.nextInt(0);"

(** Fuel exhaustion must trip with the identical message under both
    engines (the closure engine checks fuel at block granularity, but
    the message and exception are shared). *)
let test_fuel_exhaustion () =
  let prog = Bamboo.compile (wrap "int i = 0; while (true) { i = i + 1; }") in
  let fuel_error () =
    let ctx = Interp.create ~max_steps:10_000 prog in
    let s = Interp.make_startup ctx [] in
    match Interp.invoke_task ctx prog.tasks.(0) [| s |] ~tag_binds:[] with
    | _ -> Alcotest.fail "expected fuel exhaustion"
    | exception Bamboo.Value.Runtime_error m -> m
  in
  let tree = with_reference fuel_error in
  Helpers.check_string "exact message" "interpreter fuel exhausted" tree;
  Helpers.check_string "fuel message (closure)" tree (with_closure fuel_error)

(* ------------------------------------------------------------------ *)
(* Engine plumbing *)

let test_compile_cache () =
  let prog = Bamboo.compile Helpers.counter_src in
  Helpers.check_bool "closure code is cached per program" true
    (Bamboo.Iclosure.get prog == Bamboo.Iclosure.get prog);
  let code e = (with_engine e (fun () -> Interp.create prog)).Interp.code in
  Helpers.check_bool "tree contexts carry no code" true (code Interp.Tree = Interp.Etree);
  Helpers.check_bool "closure contexts carry closure code" true
    (match code Interp.Closure with Interp.Eclos _ -> true | Interp.Etree -> false)

(** Regression: race the *first* compile of a fresh program across
    domains.  The per-program code cache is mutex-guarded, so every
    domain must come back with the same physically-shared compiled
    code (and nothing must crash).  Before the guard existed this was
    a genuine data race on the cache list. *)
let test_compile_race () =
  let race get =
    let prog = Bamboo.compile Helpers.counter_src in
    let barrier = Atomic.make 0 in
    let workers =
      Array.init 4 (fun _ ->
          Domain.spawn (fun () ->
              Atomic.incr barrier;
              while Atomic.get barrier < 4 do
                Domain.cpu_relax ()
              done;
              get prog))
    in
    let results = Array.map Domain.join workers in
    Array.for_all (fun c -> c == results.(0)) results
  in
  Helpers.check_bool "closure first-compile race yields one shared code" true
    (race Bamboo.Iclosure.get)

(* ------------------------------------------------------------------ *)
(* Java fidelity of Random.nextInt (values computed from the
   java.util.Random specification: 48-bit LCG, power-of-two fast
   path, rejection loop on the truncated final partial range). *)

let run_ints body =
  Helpers.run_output (wrap body)
  |> String.split_on_char '\n'
  |> List.filter (fun s -> s <> "")
  |> List.map int_of_string

let test_rng_java_fidelity () =
  Alcotest.(check (list int))
    "new Random(42).nextInt(100) x4" [ 30; 63; 48; 84 ]
    (run_ints
       "Random r = new Random(42); for (int i = 0; i < 4; i = i + 1) { \
        System.printInt(r.nextInt(100)); }");
  Alcotest.(check (list int))
    "power-of-two path: new Random(42).nextInt(16) x4" [ 11; 0; 10; 0 ]
    (run_ints
       "Random r = new Random(42); for (int i = 0; i < 4; i = i + 1) { \
        System.printInt(r.nextInt(16)); }");
  (* seed 0, bound 1431655765: the first 31-bit draw lands in the
     truncated tail and must be rejected.  Biased draw-mod (the old
     bug) would return 138085595; Java redraws and returns 516548029. *)
  Alcotest.(check (list int))
    "rejection loop fires" [ 516548029 ]
    (run_ints "Random r = new Random(0); System.printInt(r.nextInt(1431655765));")

(* ------------------------------------------------------------------ *)
(* Differential fuzzer: random well-typed bodies, closure vs tree.
   Programs are terminating and error-free by construction (loops are
   bounded counters, array indices are masked, divisors are nonzero
   literals); output and exact cycles must agree. *)

type fz = {
  mutable buf : Buffer.t;
  mutable depth : int;
  mutable nloop : int;                 (* unique loop-variable counter *)
  rand : Random.State.t;
}

let fz_int fz n = Random.State.int fz.rand n
let fz_add fz s = Buffer.add_string fz.buf s

(* int expressions over locals a,b,c, the array arr, and loop vars in
   scope (passed as a list of names) *)
let rec gen_iexpr fz vars d =
  if d = 0 then
    match fz_int fz 3 with
    | 0 -> fz_add fz (string_of_int (fz_int fz 200 - 100))
    | 1 -> fz_add fz (List.nth vars (fz_int fz (List.length vars)))
    | _ ->
        fz_add fz "arr[(";
        fz_add fz (List.nth vars (fz_int fz (List.length vars)));
        fz_add fz ") & 7]"
  else
    match fz_int fz 7 with
    | 0 | 1 ->
        fz_add fz "(";
        gen_iexpr fz vars (d - 1);
        fz_add fz (match fz_int fz 4 with 0 -> " + " | 1 -> " - " | 2 -> " * " | _ -> " & ");
        gen_iexpr fz vars (d - 1);
        fz_add fz ")"
    | 2 ->
        (* division by a nonzero literal *)
        fz_add fz "(";
        gen_iexpr fz vars (d - 1);
        fz_add fz (Printf.sprintf " %s %d)" (if fz_int fz 2 = 0 then "/" else "%") (1 + fz_int fz 9))
    | 3 ->
        fz_add fz "Math.imax(";
        gen_iexpr fz vars (d - 1);
        fz_add fz ", ";
        gen_iexpr fz vars (d - 1);
        fz_add fz ")"
    | 4 ->
        fz_add fz "Math.iabs(";
        gen_iexpr fz vars (d - 1);
        fz_add fz ")"
    | 5 ->
        fz_add fz "(int)(";
        gen_fexpr fz vars (d - 1);
        fz_add fz ")"
    | _ -> gen_iexpr fz vars 0

and gen_fexpr fz vars d =
  if d = 0 then
    match fz_int fz 3 with
    | 0 -> fz_add fz (Printf.sprintf "%d.%d" (fz_int fz 20) (fz_int fz 100))
    | 1 -> fz_add fz (if fz_int fz 2 = 0 then "x" else "y")
    | _ ->
        fz_add fz "(double)(";
        gen_iexpr fz vars 0;
        fz_add fz ")"
  else
    match fz_int fz 5 with
    | 0 | 1 ->
        fz_add fz "(";
        gen_fexpr fz vars (d - 1);
        fz_add fz (match fz_int fz 3 with 0 -> " + " | 1 -> " - " | _ -> " * ");
        gen_fexpr fz vars (d - 1);
        fz_add fz ")"
    | 2 ->
        fz_add fz "Math.sqrt(Math.abs(";
        gen_fexpr fz vars (d - 1);
        fz_add fz "))"
    | 3 ->
        fz_add fz "(";
        gen_fexpr fz vars (d - 1);
        fz_add fz " / 3.5)"
    | _ -> gen_fexpr fz vars 0

let gen_bexpr fz vars d =
  gen_iexpr fz vars d;
  fz_add fz (match fz_int fz 4 with 0 -> " < " | 1 -> " > " | 2 -> " == " | _ -> " != ");
  gen_iexpr fz vars d

let rec gen_stmt fz vars d =
  match if d = 0 then fz_int fz 4 else fz_int fz 7 with
  | 0 ->
      fz_add fz (List.nth [ "a"; "b"; "c" ] (fz_int fz 3));
      fz_add fz " = ";
      gen_iexpr fz vars (min d 2);
      fz_add fz ";\n"
  | 1 ->
      fz_add fz (if fz_int fz 2 = 0 then "x" else "y");
      fz_add fz " = ";
      gen_fexpr fz vars (min d 2);
      fz_add fz ";\n"
  | 2 -> (
      match fz_int fz 3 with
      | 0 ->
          fz_add fz "System.printInt(";
          gen_iexpr fz vars (min d 2);
          fz_add fz ");\n"
      | 1 ->
          fz_add fz "System.printDouble(";
          gen_fexpr fz vars (min d 2);
          fz_add fz ");\n"
      | _ ->
          fz_add fz "System.printString(\"v\" + (";
          gen_iexpr fz vars (min d 2);
          fz_add fz "));\n")
  | 3 ->
      fz_add fz "arr[(";
      gen_iexpr fz vars (min d 2);
      fz_add fz ") & 7] = ";
      gen_iexpr fz vars (min d 2);
      fz_add fz ";\n"
  | 4 ->
      fz_add fz "if (";
      gen_bexpr fz vars 1;
      fz_add fz ") {\n";
      gen_stmts fz vars (d - 1);
      fz_add fz "}";
      if fz_int fz 2 = 0 then begin
        fz_add fz " else {\n";
        gen_stmts fz vars (d - 1);
        fz_add fz "}"
      end;
      fz_add fz "\n"
  | 5 ->
      let v = Printf.sprintf "i%d" fz.nloop in
      fz.nloop <- fz.nloop + 1;
      fz_add fz
        (Printf.sprintf "for (int %s = 0; %s < %d; %s = %s + 1) {\n" v v (2 + fz_int fz 6) v v);
      gen_stmts fz (v :: vars) (d - 1);
      fz_add fz "}\n"
  | _ ->
      fz_add fz "s2 = s2 + \"|\" + ";
      gen_iexpr fz vars (min d 2);
      fz_add fz ";\n"

and gen_stmts fz vars d =
  let n = 1 + fz_int fz 3 in
  for _ = 1 to n do
    gen_stmt fz vars d
  done

let gen_body seed =
  let fz = { buf = Buffer.create 512; depth = 0; nloop = 0; rand = Random.State.make [| seed |] } in
  ignore fz.depth;
  fz_add fz "int a = 3; int b = -7; int c = 11;\n";
  fz_add fz "double x = 1.25; double y = -0.5;\n";
  fz_add fz "int[] arr = new int[8];\n";
  fz_add fz "String s2 = \"\";\n";
  gen_stmts fz [ "a"; "b"; "c" ] 3;
  fz_add fz "System.printString(s2);\n";
  fz_add fz "System.printInt(a + b + c + arr[0] + arr[7]);\n";
  fz_add fz "System.printDouble(x + y);\n";
  Buffer.contents fz.buf

(** One engine's observation of a run, errors included: a normal run
    ends in [Ok], a runtime error (notably fuel exhaustion under a
    tight [max_steps] budget) in [Error msg].  Cycles are included in
    both cases — an erroring run must have charged exactly as much as
    the oracle before stopping. *)
let observe_fuel prog ~max_steps =
  let ctx = Interp.create ~max_steps prog in
  let s = Interp.make_startup ctx [] in
  match Interp.invoke_task ctx prog.tasks.(0) [| s |] ~tag_binds:[] with
  | r -> Ok (r.Interp.tr_exit, r.Interp.tr_output, ctx.Interp.cycles, ctx.Interp.steps)
  | exception Bamboo.Value.Runtime_error m -> Error (m, ctx.Interp.cycles, ctx.Interp.steps)

let fuzz_engines_agree =
  QCheck.Test.make ~name:"tree walker and closure engine agree on random bodies" ~count:50
    (QCheck.make ~print:gen_body QCheck.Gen.(0 -- 1_000_000))
    (fun seed ->
      let src = wrap (gen_body seed) in
      let prog = Bamboo.compile src in
      let tree = with_reference (fun () -> observe_seq prog []) in
      let got = with_closure (fun () -> observe_seq prog []) in
      if got.o_out <> tree.o_out then
        QCheck.Test.fail_reportf "output mismatch:\n%s\nvs\n%s" got.o_out tree.o_out;
      if got.o_cycles <> tree.o_cycles then
        QCheck.Test.fail_reportf "cycle mismatch: %d vs %d" got.o_cycles tree.o_cycles;
      if got.o_digest <> tree.o_digest then QCheck.Test.fail_reportf "digest mismatch";
      (* Fuel differential: run the same body under a budget tight
         enough that many generated bodies exhaust it.  Successful
         runs must agree exactly; erroring runs must agree on the
         message.  Counters at trip time may differ: the tree walker
         trips mid-block, the closure engine at the block-aggregate
         [Kcost]. *)
      let budget = 150 in
      let tree_fuel = with_reference (fun () -> observe_fuel prog ~max_steps:budget) in
      let clos_fuel = with_closure (fun () -> observe_fuel prog ~max_steps:budget) in
      (match (tree_fuel, clos_fuel) with
      | Ok t, Ok c -> if c <> t then QCheck.Test.fail_reportf "fuel-budget run mismatch"
      | Error (mt, _, _), Error (mc, _, _) ->
          if mc <> mt then QCheck.Test.fail_reportf "fuel error message mismatch: %S / %S" mt mc
      | _ -> QCheck.Test.fail_reportf "fuel-budget success/error disagreement across engines");
      true)

let tests =
  [
    ("interp.equivalence", equivalence_cases);
    ( "interp.engines",
      [
        Alcotest.test_case "error messages" `Quick test_error_messages;
        Alcotest.test_case "fuel exhaustion" `Quick test_fuel_exhaustion;
        Alcotest.test_case "compile cache" `Quick test_compile_cache;
        Alcotest.test_case "compile race" `Quick test_compile_race;
        Alcotest.test_case "rng java fidelity" `Quick test_rng_java_fidelity;
      ] );
    Helpers.qsuite "interp.fuzz" [ fuzz_engines_agree ];
  ]
