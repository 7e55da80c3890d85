(** Shared helpers for the test suites. *)

let compile = Bamboo.compile

(** Tiny inputs so tests stay fast; keyed by benchmark name. *)
let small_args = function
  | "Tracking" -> [ "64"; "16"; "4"; "2"; "8" ]
  | "KMeans" -> [ "400"; "2"; "3"; "4"; "4" ]
  | "MonteCarlo" -> [ "8"; "60" ]
  | "FilterBank" -> [ "6"; "64"; "8" ]
  | "Fractal" -> [ "32"; "16"; "8"; "24" ]
  | "Series" -> [ "8"; "40"; "4" ]
  | "KeywordCount" -> [ "8" ]
  | name -> invalid_arg ("no small args for " ^ name)

(** A complete, tiny, well-formed program reused by many suites. *)
let counter_src =
  {|
class Item {
  flag todo;
  flag done;
  int value;
  Item(int v) { this.value = v; }
  int doubled() { return value * 2; }
}
class Acc {
  flag open;
  int total;
  int expected;
  int seen;
  Acc(int n) { this.expected = n; }
  boolean absorb(Item it) {
    total = total + it.doubled();
    seen = seen + 1;
    return seen == expected;
  }
}
task startup(StartupObject s in initialstate) {
  int n = Integer.parseInt(s.args[0]);
  for (int i = 0; i < n; i = i + 1) {
    Item it = new Item(i + 1){todo := true};
  }
  Acc a = new Acc(n){open := true};
  taskexit(s: initialstate := false);
}
task work(Item it in todo) {
  taskexit(it: todo := false, done := true);
}
task collect(Acc a in open, Item it in done) {
  boolean complete = a.absorb(it);
  if (complete) {
    System.printString("total: " + a.total);
    taskexit(a: open := false; it: done := false);
  }
  taskexit(it: done := false);
}
|}

(** Run a source on one core and return its printed output. *)
let run_output ?(args = []) src =
  let prog = compile src in
  (Bamboo.Runtime.run_single ~args prog).r_output

(** Run on [cores] cores with every task replicated everywhere it is
    allowed, returning (output, total cycles). *)
let run_on_cores ?(args = []) src cores =
  let prog = compile src in
  let an = Bamboo.analyse prog in
  let machine = Bamboo.Machine.with_cores Bamboo.Machine.tilepro64 cores in
  let layout = Bamboo.Layout.create machine ~ntasks:(Array.length prog.tasks) in
  Array.iter
    (fun (t : Bamboo.Ir.taskinfo) ->
      if Bamboo.Layout.multi_instance_ok t && Array.length t.t_params = 1 then
        Bamboo.Layout.set_cores layout t.t_id (Array.init cores (fun c -> c))
      else Bamboo.Layout.set_cores layout t.t_id [| 0 |])
    prog.tasks;
  let r = Bamboo.execute ~args prog an layout in
  (r.r_output, r.r_total_cycles)

let check_string = Alcotest.(check string)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let expect_typecheck_error src =
  match Bamboo.compile src with
  | exception Bamboo_frontend.Typecheck.Error _ -> ()
  | exception Bamboo_frontend.Lexer.Error _ -> ()
  | _ -> Alcotest.fail "expected a frontend error"

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

(** A registry program compiled, analysed and profiled on its registry
    arguments — once per test run, shared by the suites that simulate
    or search at benchmark scale. *)
let registry_profiled =
  let memo = Hashtbl.create 8 in
  fun (b : Bamboo_benchmarks.Bench_def.t) ->
    match Hashtbl.find_opt memo b.b_name with
    | Some p -> p
    | None ->
        let prog = compile b.b_source in
        let an = Bamboo.analyse prog in
        let prof, _ = Bamboo.Profile.collect ~args:b.b_args prog in
        Hashtbl.replace memo b.b_name (prog, an, prof);
        (prog, an, prof)
