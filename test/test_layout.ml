(** Layout keys and validity against the oracles in [Layout_oracle],
    on random layouts of the registry programs over three machines. *)

module Ir = Bamboo.Ir
module Layout = Bamboo.Layout
module Machine = Bamboo.Machine
module Prng = Bamboo.Prng

let machines = [ Machine.m16; Machine.tilepro64; Machine.m256 ]

let programs =
  lazy
    (Array.of_list
       (List.map
          (fun (b : Bamboo_benchmarks.Bench_def.t) -> Bamboo.compile b.b_source)
          Bamboo_benchmarks.Registry.all))

(* A random layout of [prog] on [machine].  Tasks draw their cores
   from a small random pool, so repeated cores — isomorphic layouts,
   duplicate-core problems — are common; some tasks get no core, and
   with [~stray:true] an occasional core lies outside the machine. *)
let random_layout ?(stray = false) rng (prog : Ir.program) (machine : Machine.t) =
  let pool = Array.init (1 + Prng.int rng 8) (fun _ -> Prng.int rng machine.cores) in
  {
    Layout.machine;
    assignment =
      Array.map
        (fun _ ->
          let n = if Prng.int rng 8 = 0 then 0 else 1 + Prng.int rng 4 in
          Array.init n (fun _ ->
              if stray && Prng.int rng 50 = 0 then machine.cores + Prng.int rng 4
              else pool.(Prng.int rng (Array.length pool))))
        prog.tasks;
  }

(* [l] with its core ids renamed by a random permutation of the machine. *)
let permute rng (l : Layout.t) =
  let perm = Array.init l.machine.cores (fun c -> c) in
  Prng.shuffle rng perm;
  { l with assignment = Array.map (Array.map (fun c -> perm.(c))) l.assignment }

(* [l] with every task's cores in a random order: the renaming follows
   first appearance, so the key may or may not change. *)
let reorder rng (l : Layout.t) =
  let l = Layout.copy l in
  Array.iter (Prng.shuffle rng) l.assignment;
  l

(* [l] with one core of one task replaced by a random core. *)
let mutate rng (l : Layout.t) =
  let l = Layout.copy l in
  let tid = Prng.int rng (Array.length l.assignment) in
  let cores = l.assignment.(tid) in
  if Array.length cores > 0 then
    cores.(Prng.int rng (Array.length cores)) <- Prng.int rng l.machine.cores;
  l

(* Run [check rng prog machine] for one random program on each machine. *)
let on_machines seed check =
  let rng = Prng.create ~seed in
  let progs = Lazy.force programs in
  let prog = progs.(Prng.int rng (Array.length progs)) in
  List.for_all (fun machine -> check rng prog machine) machines

let key_equal_iff_oracle_equal =
  QCheck.Test.make ~name:"key equal exactly when the oracle key is equal" ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      on_machines seed (fun rng prog machine ->
          let a = random_layout rng prog machine in
          let b =
            match Prng.int rng 4 with
            | 0 -> permute rng a
            | 1 -> reorder rng (permute rng a)
            | 2 -> mutate rng a
            | _ -> random_layout rng prog machine
          in
          Layout.canonical_key a = Layout.canonical_key b
          = (Layout_oracle.canonical_key a = Layout_oracle.canonical_key b)))

let permutation_keeps_key =
  QCheck.Test.make ~name:"a core permutation keeps the key" ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      on_machines seed (fun rng prog machine ->
          let a = random_layout rng prog machine in
          Layout.canonical_key (permute rng a) = Layout.canonical_key a))

let validate_matches_oracle =
  QCheck.Test.make ~name:"validate returns the oracle's problems" ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      on_machines seed (fun rng prog machine ->
          let l = random_layout ~stray:true rng prog machine in
          Layout.validate prog l = Layout_oracle.validate prog l))

(* The random layouts above must exercise both answers of every check,
   or the properties prove little. *)
let test_coverage () =
  let iso = ref 0 and distinct = ref 0 and valid = ref 0 and invalid = ref 0 in
  for seed = 0 to 299 do
    ignore
      (on_machines seed (fun rng prog machine ->
           let a = random_layout rng prog machine in
           let b = if Prng.bool rng then mutate rng a else random_layout rng prog machine in
           incr (if Layout.canonical_key a = Layout.canonical_key b then iso else distinct);
           incr (if Layout.validate prog a = [] then valid else invalid);
           true))
  done;
  Helpers.check_bool "equal and unequal keys both drawn" true (!iso > 0 && !distinct > 0);
  Helpers.check_bool "valid and invalid layouts both drawn" true (!valid > 0 && !invalid > 0)

let tests =
  [
    ( "layout.oracle",
      Alcotest.test_case "random layouts cover both answers" `Quick test_coverage
      :: List.map QCheck_alcotest.to_alcotest
           [ key_equal_iff_oracle_equal; permutation_keeps_key; validate_matches_oracle ] );
  ]
