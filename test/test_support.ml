(** Tests for the support library: PRNG, priority queue, union-find,
    statistics, dot output, and table rendering. *)

open Bamboo.Support
module Prng = Bamboo.Prng
module Stats = Bamboo.Stats

let test_prng_deterministic () =
  let a = Prng.create ~seed:7 and b = Prng.create ~seed:7 in
  for _ = 1 to 100 do
    Helpers.check_int "same stream" (Prng.int a 1000) (Prng.int b 1000)
  done

let test_prng_seeds_differ () =
  let a = Prng.create ~seed:1 and b = Prng.create ~seed:2 in
  let xs = List.init 20 (fun _ -> Prng.int a 1_000_000) in
  let ys = List.init 20 (fun _ -> Prng.int b 1_000_000) in
  Helpers.check_bool "different streams" true (xs <> ys)

let test_prng_copy () =
  let a = Prng.create ~seed:3 in
  ignore (Prng.int a 10);
  let b = Prng.copy a in
  Helpers.check_int "copy continues identically" (Prng.int a 99999) (Prng.int b 99999)

let test_prng_unbiased () =
  (* Rejection sampling makes every residue equally likely; with the
     old [bits mod bound] a bound this close to a power of two skews
     noticeably.  Chi-squared-ish sanity check over a coarse bound. *)
  let rng = Prng.create ~seed:99 in
  let bound = 7 in
  let counts = Array.make bound 0 in
  let n = 70_000 in
  for _ = 1 to n do
    let v = Prng.int rng bound in
    counts.(v) <- counts.(v) + 1
  done;
  let expected = float_of_int n /. float_of_int bound in
  Array.iteri
    (fun v c ->
      Helpers.check_bool
        (Printf.sprintf "residue %d within 5%% of uniform" v)
        true
        (abs_float (float_of_int c -. expected) < 0.05 *. expected))
    counts

let test_prng_large_bound () =
  (* Bounds close to the generator's 62-bit range exercise the
     rejection path; results must stay inside the bound. *)
  let rng = Prng.create ~seed:4 in
  let bound = (0x3FFFFFFFFFFFFFFF / 2) + 3 in
  for _ = 1 to 1000 do
    let v = Prng.int rng bound in
    Helpers.check_bool "in range" true (v >= 0 && v < bound)
  done

let test_prng_bounds_exn () =
  Alcotest.check_raises "zero bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int (Prng.create ~seed:1) 0))

let prng_int_in_bounds =
  QCheck.Test.make ~name:"prng int stays in bounds" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Prng.create ~seed in
      let v = Prng.int rng bound in
      v >= 0 && v < bound)

let prng_float_in_bounds =
  QCheck.Test.make ~name:"prng float stays in bounds" ~count:500
    QCheck.(pair small_int (float_bound_exclusive 1000.0))
    (fun (seed, bound) ->
      let rng = Prng.create ~seed in
      let v = Prng.float rng bound in
      v >= 0.0 && v <= bound)

let prng_shuffle_permutes =
  QCheck.Test.make ~name:"shuffle is a permutation" ~count:200
    QCheck.(pair small_int (list_of_size (Gen.int_range 0 50) int))
    (fun (seed, xs) ->
      let arr = Array.of_list xs in
      Prng.shuffle (Prng.create ~seed) arr;
      List.sort compare (Array.to_list arr) = List.sort compare xs)

let test_pqueue_orders () =
  let q = Pqueue.create ~dummy:"" in
  List.iter (fun (p, v) -> Pqueue.push q ~prio:p v)
    [ (5, "e"); (1, "a"); (3, "c"); (2, "b"); (4, "d") ];
  let out = ref [] in
  while not (Pqueue.is_empty q) do
    out := Pqueue.take q :: !out
  done;
  Helpers.check_string "sorted" "abcde" (String.concat "" (List.rev !out))

let test_pqueue_fifo_ties () =
  let q = Pqueue.create ~dummy:0 in
  List.iter (fun v -> Pqueue.push q ~prio:7 v) [ 1; 2; 3 ];
  let xs = List.init 3 (fun _ -> Pqueue.take q) in
  Alcotest.(check (list int)) "insertion order on equal priorities" [ 1; 2; 3 ] xs

(* [min_prio] peeks at the next priority without removing anything. *)
let test_pqueue_peek () =
  let q = Pqueue.create ~dummy:0 in
  Helpers.check_bool "empty peek raises" true
    (match Pqueue.min_prio q with _ -> false | exception Invalid_argument _ -> true);
  Pqueue.push q ~prio:9 42;
  Helpers.check_int "peek sees the priority" 9 (Pqueue.min_prio q);
  Helpers.check_int "peek non-destructive" 1 (Pqueue.length q);
  Helpers.check_int "take returns the payload" 42 (Pqueue.take q);
  Helpers.check_bool "empty take raises" true
    (match Pqueue.take q with _ -> false | exception Invalid_argument _ -> true)

let pqueue_sorts =
  QCheck.Test.make ~name:"pqueue pops in priority order" ~count:200
    QCheck.(list (int_range 0 1000))
    (fun prios ->
      let q = Pqueue.create ~dummy:0 in
      List.iter (fun p -> Pqueue.push q ~prio:p p) prios;
      let rec drain acc =
        if Pqueue.is_empty q then List.rev acc else drain (Pqueue.take q :: acc)
      in
      drain [] = List.sort compare prios)

let pqueue_interleaved_oracle =
  (* Random interleaving of pushes and pops against a sorted-list
     oracle: every pop must return exactly what a sorted association
     list (stable on ties) would. *)
  QCheck.Test.make ~name:"pqueue matches sorted-list oracle under interleaved ops" ~count:200
    QCheck.(list (option (int_range 0 50)))
    (fun ops ->
      let q = Pqueue.create ~dummy:(-1) in
      let oracle = ref [] in
      let seq = ref 0 in
      let ok = ref true in
      List.iter
        (fun op ->
          match op with
          | Some prio ->
              Pqueue.push q ~prio !seq;
              (* stable insert: after all existing entries of <= priority *)
              let rec ins = function
                | [] -> [ (prio, !seq) ]
                | (p, v) :: rest when p <= prio -> (p, v) :: ins rest
                | rest -> (prio, !seq) :: rest
              in
              oracle := ins !oracle;
              incr seq
          | None -> (
              match !oracle with
              | [] -> if not (Pqueue.is_empty q) then ok := false
              | (p', v') :: rest ->
                  if Pqueue.is_empty q then ok := false
                  else begin
                    let p = Pqueue.min_prio q in
                    let v = Pqueue.take q in
                    if p <> p' || v <> v' then ok := false
                  end;
                  oracle := rest))
        ops;
      !ok && Pqueue.length q = List.length !oracle)

let test_pool_map_ordering () =
  Pool.with_pool ~jobs:4 (fun p ->
      let out = Pool.map p (fun x -> x * x) (Array.init 100 (fun i -> i)) in
      Alcotest.(check (array int)) "positional results" (Array.init 100 (fun i -> i * i)) out;
      (* a second batch on the same pool works *)
      let out2 = Pool.map_list p string_of_int [ 3; 1; 2 ] in
      Alcotest.(check (list string)) "list order kept" [ "3"; "1"; "2" ] out2)

let test_pool_sequential_degenerate () =
  Pool.with_pool ~jobs:1 (fun p ->
      Helpers.check_int "jobs clamped" 1 (Pool.jobs p);
      let out = Pool.map p succ [| 1; 2; 3 |] in
      Alcotest.(check (array int)) "inline map" [| 2; 3; 4 |] out)

let test_pool_exception_propagation () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun p ->
          (match Pool.map p (fun x -> if x >= 7 then failwith ("boom " ^ string_of_int x) else x)
                   [| 1; 9; 7; 2 |]
           with
          | _ -> Alcotest.fail "expected exception"
          | exception Failure msg ->
              (* lowest-index failure wins, independent of scheduling *)
              Helpers.check_string "first failing element" "boom 9" msg);
          (* the pool survives a failed batch *)
          let out = Pool.map p succ [| 10 |] in
          Alcotest.(check (array int)) "usable after failure" [| 11 |] out))
    [ 1; 4 ]

let test_pool_nested_rejected () =
  Pool.with_pool ~jobs:2 (fun p ->
      match Pool.map p (fun x -> Array.length (Pool.map p (fun y -> y) [| x |])) [| 1; 2; 3 |] with
      | _ -> Alcotest.fail "expected Pool.Busy"
      | exception Pool.Busy _ -> ())

let test_pool_shutdown_rejects_map () =
  let p = Pool.create ~jobs:2 in
  Pool.shutdown p;
  match Pool.map p succ [| 1 |] with
  | _ -> Alcotest.fail "expected invalid_arg"
  | exception Invalid_argument _ -> ()

(* Parking: [acquire]/[release] keep one idle pool between searches. *)

(* The domain ids that run one batch of [Pool.jobs p] elements, sorted.
   Every element waits until all have started, so each domain (the
   caller included) runs exactly one. *)
let pool_domains p =
  let jobs = Pool.jobs p in
  let started = Atomic.make 0 in
  let deadline = Unix.gettimeofday () +. 10.0 in
  Pool.map p
    (fun () ->
      Atomic.incr started;
      while Atomic.get started < jobs do
        if Unix.gettimeofday () > deadline then failwith "batch never reached every domain";
        Domain.cpu_relax ()
      done;
      (Domain.self () :> int))
    (Array.make jobs ())
  |> Array.to_list |> List.sort compare

(* Park a pool of [jobs], so the next acquire of that size has one. *)
let park jobs = Pool.release (Pool.acquire ~jobs)

let test_pool_reuse () =
  let p = Pool.acquire ~jobs:2 in
  let first = pool_domains p in
  Helpers.check_bool "caller and one worker" true
    (List.length first = 2 && List.mem (Domain.self () :> int) first);
  Pool.release p;
  let p' = Pool.acquire ~jobs:2 in
  Helpers.check_bool "the parked pool comes back" true (p' == p);
  Alcotest.(check (list int)) "same worker domain" first (pool_domains p');
  Pool.release p'

let test_pool_release_displaces () =
  let two = Pool.acquire ~jobs:2 and three = Pool.acquire ~jobs:3 in
  Pool.release two;
  Pool.release three;
  (match Pool.map two succ [| 1 |] with
  | _ -> Alcotest.fail "the displaced pool should be shut down"
  | exception Invalid_argument _ -> ());
  let three' = Pool.acquire ~jobs:3 in
  Helpers.check_bool "the last released pool is parked" true (three' == three);
  let two' = Pool.acquire ~jobs:2 in
  Helpers.check_bool "nothing else was parked" true (two' != two);
  Pool.release two';
  Pool.release three'

(* A pool map raises [Invalid_argument] once the pool is shut down. *)
let is_shut_down p =
  match Pool.map p succ [| 1 |] with _ -> false | exception Invalid_argument _ -> true

let test_pool_acquire_other_size () =
  park 2;
  let two = Pool.acquire ~jobs:2 in
  Pool.release two;
  let three = Pool.acquire ~jobs:3 in
  Helpers.check_bool "a parked pool of another size is shut down" true (is_shut_down two);
  Pool.release three;
  let one = Pool.acquire ~jobs:1 in
  Helpers.check_bool "a one-job acquire shuts the parked pool down" true (is_shut_down three);
  Pool.release one;
  let two' = Pool.acquire ~jobs:2 in
  Helpers.check_bool "nothing was parked" true (two' != two);
  Pool.release two'

let test_pool_release_twice () =
  let p = Pool.acquire ~jobs:2 in
  Pool.release p;
  Pool.release p;
  let p' = Pool.acquire ~jobs:2 in
  Helpers.check_bool "the pool stays parked" true (p' == p);
  Alcotest.(check (array int)) "still maps" [| 2 |] (Pool.map p' succ [| 1 |]);
  Pool.release p'

let test_pool_shutdown_parked () =
  park 2;
  let p = Pool.acquire ~jobs:2 in
  Pool.release p;
  Pool.shutdown_parked ();
  Helpers.check_bool "the parked pool is shut down" true (is_shut_down p);
  Pool.shutdown_parked ();
  let p' = Pool.acquire ~jobs:2 in
  Helpers.check_bool "the slot is empty" true (p' != p);
  Pool.release p'

(* The domains backend never runs beside a parked pool. *)
let test_exec_shuts_parked_pool () =
  let b = Bamboo_benchmarks.Registry.find "Fractal" in
  let prog = Bamboo.compile b.b_source in
  let an = Bamboo.analyse prog in
  let layout = Bamboo.Exec.spread_layout prog Bamboo.Machine.m16 in
  let p = Pool.acquire ~jobs:2 in
  Pool.release p;
  let r = Bamboo.execute_parallel ~args:(Helpers.small_args "Fractal") ~domains:2 prog an layout in
  Helpers.check_bool "executed work" true (r.x_invocations > 0);
  Helpers.check_bool "the parked pool is shut down" true (is_shut_down p)

let test_pool_acquire_exclusive () =
  park 2;
  let a = Pool.acquire ~jobs:2 in
  let b = Pool.acquire ~jobs:2 in
  Helpers.check_bool "two acquires, two pools" true (a != b);
  let me = (Domain.self () :> int) in
  let workers p = List.filter (( <> ) me) (pool_domains p) in
  Helpers.check_bool "no shared worker" true (workers a <> workers b);
  Pool.release a;
  Pool.release b

let test_pool_reuse_after_failure () =
  park 2;
  let p = Pool.acquire ~jobs:2 in
  (match Pool.map p (fun x -> if x = 3 then failwith "boom" else x) [| 1; 2; 3; 4 |] with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure _ -> ());
  Pool.release p;
  let p' = Pool.acquire ~jobs:2 in
  Helpers.check_bool "the failed pool is parked" true (p' == p);
  Alcotest.(check (array int)) "still maps" [| 2; 3 |] (Pool.map p' succ [| 1; 2 |]);
  Pool.release p'

let test_pool_parked_nested_rejected () =
  let nested p =
    match Pool.map p (fun x -> Array.length (Pool.map p (fun y -> y) [| x |])) [| 1; 2 |] with
    | _ -> Alcotest.fail "expected Pool.Busy"
    | exception Pool.Busy _ -> ()
  in
  let p = Pool.acquire ~jobs:2 in
  nested p;
  Pool.release p;
  let p' = Pool.acquire ~jobs:2 in
  nested p';
  Alcotest.(check (array int)) "maps after Busy" [| 1 |] (Pool.map p' Fun.id [| 1 |]);
  Pool.release p'

(* The id the next spawned domain gets: ids only grow, so the
   difference between two probes counts the domains spawned between
   them (plus the first probe itself). *)
let next_domain_id () = (Domain.join (Domain.spawn Domain.self) :> int)

let test_searches_share_pool () =
  let b = Bamboo_benchmarks.Registry.find "Fractal" in
  let prog = Bamboo.compile b.b_source in
  let an = Bamboo.analyse prog in
  let prof = Bamboo.profile ~args:(Helpers.small_args "Fractal") prog in
  let search jobs = Bamboo.synthesize ~jobs ~starts:4 ~seed:5 prog an prof Bamboo.Machine.m16 in
  let sequential = search 1 in
  park 2;
  let parked = Pool.acquire ~jobs:2 in
  Pool.release parked;
  let before = next_domain_id () in
  let o1 = search 2 in
  let o2 = search 2 in
  Helpers.check_int "no domain spawned by either search" (before + 1) (next_domain_id ());
  let after = Pool.acquire ~jobs:2 in
  Helpers.check_bool "both searches ran on the parked pool" true (after == parked);
  Pool.release after;
  let summary (o : Bamboo.Dsa.outcome) =
    ( o.best.assignment,
      [ o.best_cycles; o.iterations; o.restarts; o.evaluated; o.cache_hits; o.pruned;
        o.sim_events ] )
  in
  List.iter
    (fun o ->
      Helpers.check_bool "outcome identical to jobs 1" true (summary o = summary sequential))
    [ o1; o2 ]

let pool_matches_array_map =
  QCheck.Test.make ~name:"pool map agrees with Array.map for any jobs" ~count:50
    QCheck.(pair (int_range 1 6) (list small_int))
    (fun (jobs, xs) ->
      let arr = Array.of_list xs in
      let expected = Array.map (fun x -> (2 * x) + 1) arr in
      Pool.with_pool ~jobs (fun p -> Pool.map p (fun x -> (2 * x) + 1) arr = expected))

let test_union_find () =
  let uf = Union_find.create 6 in
  ignore (Union_find.union uf 0 1);
  ignore (Union_find.union uf 2 3);
  ignore (Union_find.union uf 1 2);
  Helpers.check_bool "0~3" true (Union_find.same uf 0 3);
  Helpers.check_bool "0!~4" false (Union_find.same uf 0 4);
  Helpers.check_int "groups" 3 (List.length (Union_find.groups uf))

let union_find_transitive =
  QCheck.Test.make ~name:"union-find respects transitive closure" ~count:200
    QCheck.(list (pair (int_range 0 19) (int_range 0 19)))
    (fun pairs ->
      let uf = Union_find.create 20 in
      List.iter (fun (a, b) -> ignore (Union_find.union uf a b)) pairs;
      (* oracle: naive closure *)
      let adj = Array.make_matrix 20 20 false in
      for i = 0 to 19 do adj.(i).(i) <- true done;
      List.iter (fun (a, b) -> adj.(a).(b) <- true; adj.(b).(a) <- true) pairs;
      for _ = 0 to 19 do
        for i = 0 to 19 do
          for j = 0 to 19 do
            if adj.(i).(j) then
              for k = 0 to 19 do
                if adj.(j).(k) then adj.(i).(k) <- true
              done
          done
        done
      done;
      let ok = ref true in
      for i = 0 to 19 do
        for j = 0 to 19 do
          if Union_find.same uf i j <> adj.(i).(j) then ok := false
        done
      done;
      !ok)

let test_stats_basics () =
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "stddev" 1.0 (Stats.stddev [ 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "p50" 2.0 (Stats.percentile 50.0 [ 3.0; 1.0; 2.0 ]);
  Alcotest.(check (float 1e-9)) "speedup" 4.0 (Stats.speedup ~base:8.0 ~par:2.0);
  Alcotest.(check (float 1e-9)) "error_pct" (-50.0) (Stats.error_pct ~estimate:1.0 ~real:2.0)

let test_stats_histogram () =
  let h = Stats.histogram ~bins:2 [ 0.0; 1.0; 9.0; 10.0 ] in
  Helpers.check_int "bins" 2 (List.length h);
  let counts = List.map (fun (_, _, c) -> c) h in
  Alcotest.(check (list int)) "counts" [ 2; 2 ] counts;
  let hp = Stats.histogram_pct ~bins:2 [ 0.0; 1.0; 9.0; 10.0 ] in
  Alcotest.(check (float 1e-9)) "pct sums to 100" 100.0
    (List.fold_left (fun a (_, _, p) -> a +. p) 0.0 hp)

let histogram_conserves_count =
  QCheck.Test.make ~name:"histogram conserves total count" ~count:200
    QCheck.(pair (int_range 1 20) (list_of_size (Gen.int_range 1 100) (float_bound_inclusive 100.0)))
    (fun (bins, xs) ->
      let total = List.fold_left (fun a (_, _, c) -> a + c) 0 (Stats.histogram ~bins xs) in
      total = List.length xs)

let test_dot_output () =
  let d = Dot.create "g" in
  Dot.node d "a" ~label:"A" ~peripheries:2;
  Dot.node d "b" ~label:"B";
  Dot.edge d "a" "b" ~label:"t" ~style:"dashed";
  Dot.cluster d ~label:"C" [ "a"; "b" ];
  let s = Dot.to_string d in
  List.iter
    (fun needle ->
      Helpers.check_bool ("contains " ^ needle) true
        (let re = Str_find.contains s needle in
         re))
    [ "digraph"; "peripheries=2"; "style=dashed"; "subgraph cluster_0"; "label=\"C\"" ]

let test_table_render () =
  let s = Table.render ~headers:[ "a"; "bb" ] [ [ "x"; "1" ]; [ "yy"; "22" ] ] in
  Helpers.check_bool "aligned" true (Str_find.contains s "a   bb");
  Helpers.check_string "float fmt" "3.1" (Table.fmt_float 3.14159)

(* ------------------------------------------------------------------ *)
(* Mailbox: the MPSC core-to-core forwarding channel *)

let test_mailbox_fifo () =
  let m = Bamboo.Mailbox.create () in
  Helpers.check_bool "fresh mailbox empty" true (Bamboo.Mailbox.is_empty m);
  for i = 1 to 100 do
    Bamboo.Mailbox.push m i
  done;
  Helpers.check_int "length counts pending" 100 (Bamboo.Mailbox.length m);
  Alcotest.(check (list int)) "drain is FIFO" (List.init 100 (fun i -> i + 1))
    (Bamboo.Mailbox.drain m);
  Helpers.check_bool "drained mailbox empty" true (Bamboo.Mailbox.is_empty m);
  Alcotest.(check (list int)) "second drain empty" [] (Bamboo.Mailbox.drain m)

(* Single-threaded push/drain interleavings match a plain queue model:
   each drained batch returns exactly the pending messages, oldest
   first. *)
let mailbox_matches_queue =
  QCheck.Test.make ~name:"mailbox drains in push order (queue model)" ~count:200
    QCheck.(list (option (int_bound 1000)))
    (fun ops ->
      let m = Bamboo.Mailbox.create () in
      let q = Queue.create () in
      List.for_all
        (fun op ->
          match op with
          | Some x ->
              Bamboo.Mailbox.push m x;
              Queue.add x q;
              true
          | None ->
              let batch = Bamboo.Mailbox.drain m in
              let expect = List.of_seq (Queue.to_seq q) in
              Queue.clear q;
              batch = expect)
        ops)

(** Four producer domains push tagged sequences concurrently while the
    main domain drains: every message arrives exactly once and each
    producer's messages arrive in its push order (per-producer FIFO,
    the property the runtime's snapshot protocol relies on). *)
let test_mailbox_mpsc () =
  let m = Bamboo.Mailbox.create () in
  let nproducers = 4 and nmsgs = 250 in
  let producers =
    Array.init nproducers (fun p ->
        Domain.spawn (fun () ->
            for seq = 0 to nmsgs - 1 do
              Bamboo.Mailbox.push m (p, seq)
            done))
  in
  let seen = Array.make nproducers (-1) in
  let received = ref 0 in
  let deadline = Unix.gettimeofday () +. 30.0 in
  while !received < nproducers * nmsgs && Unix.gettimeofday () < deadline do
    List.iter
      (fun (p, seq) ->
        if seq <= seen.(p) then
          Alcotest.failf "producer %d reordered: %d after %d" p seq seen.(p);
        seen.(p) <- seq;
        incr received)
      (Bamboo.Mailbox.drain m);
    Domain.cpu_relax ()
  done;
  Array.iter Domain.join producers;
  List.iter (fun (p, seq) -> seen.(p) <- max seen.(p) seq; incr received) (Bamboo.Mailbox.drain m);
  Helpers.check_int "every message delivered exactly once" (nproducers * nmsgs) !received;
  Array.iteri
    (fun p last -> Helpers.check_int (Printf.sprintf "producer %d complete" p) (nmsgs - 1) last)
    seen

(* ------------------------------------------------------------------ *)
(* Bounded mailbox: the serve runtime's admission waiting room *)

let test_bounded_capacity () =
  Alcotest.check_raises "capacity must be positive"
    (Invalid_argument "Mailbox.Bounded.create: capacity must be >= 1") (fun () ->
      ignore (Bamboo.Mailbox.Bounded.create ~capacity:0));
  let m = Bamboo.Mailbox.Bounded.create ~capacity:4 in
  Helpers.check_int "capacity recorded" 4 (Bamboo.Mailbox.Bounded.capacity m);
  Helpers.check_bool "fresh bounded mailbox empty" true (Bamboo.Mailbox.Bounded.is_empty m);
  for i = 1 to 4 do
    Helpers.check_bool (Printf.sprintf "push %d admitted" i) true
      (Bamboo.Mailbox.Bounded.try_push m i)
  done;
  Helpers.check_int "length at capacity" 4 (Bamboo.Mailbox.Bounded.length m);
  Helpers.check_bool "push over capacity rejected" false (Bamboo.Mailbox.Bounded.try_push m 5);
  Helpers.check_bool "still rejected" false (Bamboo.Mailbox.Bounded.try_push m 6);
  Helpers.check_int "rejection leaves length alone" 4 (Bamboo.Mailbox.Bounded.length m);
  Alcotest.(check (list int)) "drain is FIFO" [ 1; 2; 3; 4 ]
    (Bamboo.Mailbox.Bounded.drain m);
  Helpers.check_bool "drain frees space" true (Bamboo.Mailbox.Bounded.try_push m 7);
  Alcotest.(check (list int)) "reuse after drain" [ 7 ] (Bamboo.Mailbox.Bounded.drain m)

(** Four producers hammer a capacity-8 mailbox with [try_push] retry
    loops while the main domain drains: every message arrives exactly
    once, per-producer FIFO holds, and no drained batch ever exceeds
    the capacity (the bound is never transiently broken). *)
let test_bounded_mpsc () =
  let capacity = 8 in
  let m = Bamboo.Mailbox.Bounded.create ~capacity in
  let nproducers = 4 and nmsgs = 250 in
  let producers =
    Array.init nproducers (fun p ->
        Domain.spawn (fun () ->
            for seq = 0 to nmsgs - 1 do
              while not (Bamboo.Mailbox.Bounded.try_push m (p, seq)) do
                Domain.cpu_relax ()
              done
            done))
  in
  let seen = Array.make nproducers (-1) in
  let received = ref 0 in
  let deadline = Bamboo.Clock.now () +. 30.0 in
  while !received < nproducers * nmsgs && Bamboo.Clock.now () < deadline do
    let batch = Bamboo.Mailbox.Bounded.drain m in
    if List.length batch > capacity then
      Alcotest.failf "drained %d messages from a capacity-%d mailbox" (List.length batch)
        capacity;
    List.iter
      (fun (p, seq) ->
        if seq <= seen.(p) then
          Alcotest.failf "producer %d reordered: %d after %d" p seq seen.(p);
        seen.(p) <- seq;
        incr received)
      batch;
    Domain.cpu_relax ()
  done;
  Array.iter Domain.join producers;
  List.iter
    (fun (p, seq) -> seen.(p) <- max seen.(p) seq; incr received)
    (Bamboo.Mailbox.Bounded.drain m);
  Helpers.check_int "every message delivered exactly once" (nproducers * nmsgs) !received;
  Array.iteri
    (fun p last -> Helpers.check_int (Printf.sprintf "producer %d complete" p) (nmsgs - 1) last)
    seen

(* ------------------------------------------------------------------ *)
(* PRNG stream splitting (the per-domain jitter streams) *)

(** Streams split from one root never collide in their first 10k
    draws: with 62-bit outputs, any collision among 8x10k draws is
    overwhelmingly evidence of correlated streams. *)
let test_prng_split_independent () =
  let root = Prng.create ~seed:2026 in
  let streams = Array.init 8 (fun _ -> Prng.split root) in
  let seen = Hashtbl.create (8 * 10_000) in
  Array.iteri
    (fun i s ->
      for draw = 1 to 10_000 do
        let v = Prng.bits s in
        (match Hashtbl.find_opt seen v with
        | Some (j, d) ->
            Alcotest.failf "streams %d and %d collide (draws %d/%d)" j i d draw
        | None -> ());
        Hashtbl.replace seen v (i, draw)
      done)
    streams;
  Helpers.check_int "all draws distinct" (8 * 10_000) (Hashtbl.length seen)

(* ------------------------------------------------------------------ *)
(* Deque: the tombstone-lazy parameter-set representation *)

let int_deque () = Deque.create ~dummy:min_int

let test_deque_push_order () =
  let d = int_deque () in
  Helpers.check_bool "fresh deque empty" true (Deque.is_empty d);
  List.iter (Deque.push d) [ 3; 1; 4; 1; 5 ];
  Alcotest.(check (list int)) "insertion order" [ 3; 1; 4; 1; 5 ] (Deque.to_list d);
  Helpers.check_int "length counts slots" 5 (Deque.length d);
  Helpers.check_int "all live" 5 (Deque.live d);
  Helpers.check_int "get by slot" 4 (Deque.get d 2)

let test_deque_grows () =
  let d = int_deque () in
  for i = 0 to 99 do
    Deque.push d i
  done;
  Alcotest.(check (list int)) "order across growth" (List.init 100 Fun.id) (Deque.to_list d)

let test_deque_delete () =
  let d = int_deque () in
  List.iter (Deque.push d) [ 0; 1; 2; 3; 4 ];
  Deque.delete d 1;
  Deque.delete d 3;
  Alcotest.(check (list int)) "tombstones skipped" [ 0; 2; 4 ] (Deque.to_list d);
  Helpers.check_int "length keeps tombstones" 5 (Deque.length d);
  Helpers.check_int "live drops" 3 (Deque.live d);
  Helpers.check_bool "slot 1 dead" false (Deque.is_live d 1);
  Helpers.check_bool "slot 2 live" true (Deque.is_live d 2);
  (* idempotent: a second delete must not double-count *)
  Deque.delete d 1;
  Helpers.check_int "idempotent delete" 3 (Deque.live d);
  Helpers.check_bool "exists skips tombstones" false (Deque.exists (fun x -> x = 1) d);
  Helpers.check_bool "exists finds live" true (Deque.exists (fun x -> x = 2) d);
  Helpers.check_int "fold over live only" 6 (Deque.fold ( + ) 0 d)

let test_deque_compact () =
  let d = int_deque () in
  for i = 0 to 9 do
    Deque.push d i
  done;
  List.iter (fun i -> Deque.delete d i) [ 0; 2; 4; 6; 8 ];
  Deque.compact d;
  Helpers.check_int "compact drops tombstones" 5 (Deque.length d);
  Helpers.check_int "nothing dead after compact" 5 (Deque.live d);
  Alcotest.(check (list int)) "order preserved" [ 1; 3; 5; 7; 9 ] (Deque.to_list d);
  (* slots are re-numbered after compaction *)
  Helpers.check_int "slot 0 now holds 1" 1 (Deque.get d 0)

let test_deque_maybe_compact () =
  (* Below the size threshold: never compacts, slot indices stay valid. *)
  let small = int_deque () in
  for i = 0 to 9 do
    Deque.push small i
  done;
  for i = 0 to 7 do
    Deque.delete small i
  done;
  Deque.maybe_compact small;
  Helpers.check_int "small deque untouched" 10 (Deque.length small);
  (* Tombstone-dominated and big enough: compacts. *)
  let big = int_deque () in
  for i = 0 to 19 do
    Deque.push big i
  done;
  for i = 0 to 10 do
    Deque.delete big i
  done;
  Deque.maybe_compact big;
  Helpers.check_int "big deque compacted" 9 (Deque.length big);
  Alcotest.(check (list int)) "survivors in order" [ 11; 12; 13; 14; 15; 16; 17; 18; 19 ]
    (Deque.to_list big)

let test_deque_rejects_dummy () =
  let d = int_deque () in
  Alcotest.check_raises "dummy push rejected"
    (Invalid_argument "Deque.push: cannot push the dummy sentinel") (fun () ->
      Deque.push d min_int)

let test_deque_clear () =
  let d = int_deque () in
  List.iter (Deque.push d) [ 1; 2; 3 ];
  Deque.delete d 0;
  Deque.clear d;
  Helpers.check_bool "cleared" true (Deque.is_empty d);
  Helpers.check_int "no slots" 0 (Deque.length d);
  Deque.push d 9;
  Alcotest.(check (list int)) "reusable after clear" [ 9 ] (Deque.to_list d)

(* ------------------------------------------------------------------ *)
(* Chase-Lev deque: the work-stealing channel of --schedule steal *)

module Chase_lev = Bamboo.Chase_lev

let test_chase_lev_ends () =
  let q = Chase_lev.create ~dummy:(-1) () in
  Helpers.check_int "fresh size" 0 (Chase_lev.size q);
  Helpers.check_bool "empty pop" true (Chase_lev.pop q = None);
  Helpers.check_bool "empty steal" true (Chase_lev.steal q = Chase_lev.Empty);
  List.iter (Chase_lev.push q) [ 1; 2; 3; 4 ];
  Helpers.check_int "size counts pending" 4 (Chase_lev.size q);
  (match Chase_lev.steal q with
  | Chase_lev.Stolen v -> Helpers.check_int "steal takes the oldest" 1 v
  | _ -> Alcotest.fail "steal on non-empty deque");
  (match Chase_lev.pop q with
  | Some v -> Helpers.check_int "pop takes the newest" 4 v
  | None -> Alcotest.fail "pop on non-empty deque");
  Helpers.check_int "two taken" 2 (Chase_lev.size q)

let test_chase_lev_grows () =
  (* Push far past the initial capacity, then drain from both ends:
     growth must preserve the logical [top, bottom) window. *)
  let q = Chase_lev.create ~capacity:2 ~dummy:(-1) () in
  for i = 0 to 999 do
    Chase_lev.push q i
  done;
  for i = 0 to 499 do
    match Chase_lev.steal q with
    | Chase_lev.Stolen v -> Helpers.check_int "steals ascend from oldest" i v
    | _ -> Alcotest.fail "steal"
  done;
  for i = 999 downto 500 do
    match Chase_lev.pop q with
    | Some v -> Helpers.check_int "pops descend from newest" i v
    | None -> Alcotest.fail "pop"
  done;
  Helpers.check_int "drained" 0 (Chase_lev.size q)

(* Sequential model-equivalence: with no concurrent thieves a steal
   can never lose its CAS, so the deque must agree exactly with a
   double-ended list model — push at the back, pop from the back,
   steal from the front. *)
let chase_lev_matches_model =
  QCheck.Test.make ~name:"chase-lev matches double-ended list model" ~count:300
    QCheck.(list (int_range (-2) 1000))
    (fun cmds ->
      let q = Chase_lev.create ~dummy:(-1) () in
      let model = ref [] in
      let ok = ref true in
      List.iter
        (fun c ->
          if c >= 0 then begin
            Chase_lev.push q c;
            model := !model @ [ c ]
          end
          else if c = -1 then (
            match (Chase_lev.pop q, List.rev !model) with
            | None, [] -> ()
            | Some v, last :: rest_rev ->
                if v <> last then ok := false;
                model := List.rev rest_rev
            | _ -> ok := false)
          else
            match (Chase_lev.steal q, !model) with
            | Chase_lev.Empty, [] -> ()
            | Chase_lev.Stolen v, first :: rest ->
                if v <> first then ok := false;
                model := rest
            | _ -> ok := false)
        cmds;
      !ok && Chase_lev.size q = List.length !model)

(** One owner pushing/popping while three thief domains steal
    concurrently: every element must be dispatched to exactly one
    taker — the linearizability property the steal scheduler's
    quiescence accounting relies on.  Growth is forced (capacity 2)
    so thieves race against stale buffers too. *)
let test_chase_lev_steal_stress () =
  let n = 20_000 and nthieves = 3 in
  let q = Chase_lev.create ~capacity:2 ~dummy:(-1) () in
  let stop = Atomic.make false in
  let thieves =
    Array.init nthieves (fun _ ->
        Domain.spawn (fun () ->
            let mine = ref [] in
            let rec loop () =
              match Chase_lev.steal q with
              | Chase_lev.Stolen v ->
                  mine := v :: !mine;
                  loop ()
              | Chase_lev.Retry ->
                  Domain.cpu_relax ();
                  loop ()
              | Chase_lev.Empty ->
                  if Atomic.get stop then !mine
                  else begin
                    Domain.cpu_relax ();
                    loop ()
                  end
            in
            loop ()))
  in
  let popped = ref [] in
  for i = 0 to n - 1 do
    Chase_lev.push q i;
    (* occasional owner pops race the thieves at the bottom end *)
    if i land 7 = 0 then
      match Chase_lev.pop q with Some v -> popped := v :: !popped | None -> ()
  done;
  let rec drain () =
    match Chase_lev.pop q with
    | Some v ->
        popped := v :: !popped;
        drain ()
    | None -> ()
  in
  drain ();
  Atomic.set stop true;
  let stolen = Array.map Domain.join thieves in
  let counts = Array.make n 0 in
  List.iter (fun v -> counts.(v) <- counts.(v) + 1) !popped;
  Array.iter (List.iter (fun v -> counts.(v) <- counts.(v) + 1)) stolen;
  Array.iteri
    (fun i c -> if c <> 1 then Alcotest.failf "element %d dispatched %d times" i c)
    counts;
  Helpers.check_bool "some elements were stolen" true
    (Array.exists (fun l -> l <> []) stolen || Domain.recommended_domain_count () = 1)

(* ------------------------------------------------------------------ *)
(* Sharded concurrent memo table *)

let test_sharded_basic () =
  let t = Sharded_table.create ~shards:8 () in
  Helpers.check_int "shard count" 8 (Sharded_table.shard_count t);
  Helpers.check_bool "empty" true (Sharded_table.find t "a" = None);
  Sharded_table.set t "a" 1;
  Sharded_table.set t "b" 2;
  Sharded_table.set t "a" 3;
  Helpers.check_bool "replace" true (Sharded_table.find t "a" = Some 3)

let test_sharded_pow2_rounding () =
  Helpers.check_int "rounds up to a power of two" 16
    (Sharded_table.shard_count (Sharded_table.create ~shards:9 ()));
  Helpers.check_int "at least one shard" 1
    (Sharded_table.shard_count (Sharded_table.create ~shards:0 ()))

let test_sharded_counter_merge () =
  (* Bumps land on the key's shard; [counter] must report the sum over
     all shards, whatever the keys hashed to. *)
  let t = Sharded_table.create ~shards:4 ~counters:2 () in
  let keys = List.init 40 (fun i -> Printf.sprintf "key-%d" i) in
  List.iteri
    (fun i k ->
      Sharded_table.bump t k 0 1;
      Sharded_table.bump t k 1 i)
    keys;
  Helpers.check_int "slot 0 merges to the bump count" 40 (Sharded_table.counter t 0);
  Helpers.check_int "slot 1 merges the deltas" (40 * 39 / 2) (Sharded_table.counter t 1);
  Helpers.check_int "slots independent" 40 (Sharded_table.counter t 0)

let test_sharded_compute_exactly_once () =
  (* 8 domains race get-or-compute over the same key set (each in a
     different order); every key's computation must run exactly once
     and every caller must observe the winner's value. *)
  let t = Sharded_table.create ~shards:4 ~counters:1 () in
  let nkeys = 64 and ndomains = 8 in
  let keys = Array.init nkeys (fun i -> Printf.sprintf "k%03d" i) in
  let computes = Atomic.make 0 in
  let run d =
    Array.init nkeys (fun i ->
        let key = keys.((i + (11 * d)) mod nkeys) in
        let v, computed =
          Sharded_table.compute t key (fun () ->
              Atomic.incr computes;
              (* the computing domain's id is the witness value *)
              d)
        in
        if computed then Sharded_table.bump t key 0 1;
        (key, v))
  in
  let domains = Array.init ndomains (fun d -> Domain.spawn (fun () -> run d)) in
  let results = Array.map Domain.join domains in
  Helpers.check_int "each key computed exactly once" nkeys (Atomic.get computes);
  Helpers.check_int "winners' bumps merge to one per key" nkeys (Sharded_table.counter t 0);
  (* all domains agree on every key's value (the winner's) *)
  Array.iter
    (fun observed ->
      Array.iter
        (fun (key, v) ->
          if Sharded_table.find t key <> Some v then
            Alcotest.failf "stale value observed for %s" key)
        observed)
    results;
  Helpers.check_bool "contention is non-negative" true (Sharded_table.contention t >= 0)

(* Model-based property: any interleaving of push/delete/compact
   agrees with a simple list model on live contents and order. *)
let deque_matches_model =
  QCheck.Test.make ~name:"deque matches list model" ~count:300
    QCheck.(list (int_range (-30) 1000))
    (fun cmds ->
      let d = int_deque () in
      (* model: (value, alive) in insertion order, tombstones kept so
         model indices track deque slots between compactions *)
      let model = ref [] in
      let sync = ref true in
      List.iter
        (fun c ->
          if c >= 0 then begin
            Deque.push d c;
            model := !model @ [ (c, ref true) ]
          end
          else if c >= -20 then begin
            let n = List.length !model in
            if n > 0 then begin
              let i = -c mod n in
              Deque.delete d i;
              snd (List.nth !model i) := false
            end
          end
          else begin
            (if c = -21 then Deque.compact d else Deque.maybe_compact d);
            (* after a (possible) compaction, drop dead model slots *)
            if Deque.length d = Deque.live d then
              model := List.filter (fun (_, alive) -> !alive) !model
          end;
          let live_model =
            List.filter_map (fun (v, alive) -> if !alive then Some v else None) !model
          in
          if Deque.to_list d <> live_model || Deque.live d <> List.length live_model then
            sync := false)
        cmds;
      !sync)

let tests =
  [
    ( "support.unit",
      [
        Alcotest.test_case "prng deterministic" `Quick test_prng_deterministic;
        Alcotest.test_case "prng seeds differ" `Quick test_prng_seeds_differ;
        Alcotest.test_case "prng copy" `Quick test_prng_copy;
        Alcotest.test_case "prng unbiased" `Quick test_prng_unbiased;
        Alcotest.test_case "prng large bound" `Quick test_prng_large_bound;
        Alcotest.test_case "prng bounds exn" `Quick test_prng_bounds_exn;
        Alcotest.test_case "pqueue orders" `Quick test_pqueue_orders;
        Alcotest.test_case "pqueue fifo ties" `Quick test_pqueue_fifo_ties;
        Alcotest.test_case "pqueue peek" `Quick test_pqueue_peek;
        Alcotest.test_case "pool map ordering" `Quick test_pool_map_ordering;
        Alcotest.test_case "pool sequential" `Quick test_pool_sequential_degenerate;
        Alcotest.test_case "pool exceptions" `Quick test_pool_exception_propagation;
        Alcotest.test_case "pool nested rejected" `Quick test_pool_nested_rejected;
        Alcotest.test_case "pool shutdown" `Quick test_pool_shutdown_rejects_map;
        Alcotest.test_case "pool reuse" `Quick test_pool_reuse;
        Alcotest.test_case "pool release displaces" `Quick test_pool_release_displaces;
        Alcotest.test_case "pool acquire exclusive" `Quick test_pool_acquire_exclusive;
        Alcotest.test_case "pool reuse after failure" `Quick test_pool_reuse_after_failure;
        Alcotest.test_case "pool parked nested rejected" `Quick test_pool_parked_nested_rejected;
        Alcotest.test_case "searches share pool" `Quick test_searches_share_pool;
        Alcotest.test_case "pool acquire other size" `Quick test_pool_acquire_other_size;
        Alcotest.test_case "pool release twice" `Quick test_pool_release_twice;
        Alcotest.test_case "pool shutdown parked" `Quick test_pool_shutdown_parked;
        Alcotest.test_case "exec shuts parked pool" `Quick test_exec_shuts_parked_pool;
        Alcotest.test_case "union find" `Quick test_union_find;
        Alcotest.test_case "stats basics" `Quick test_stats_basics;
        Alcotest.test_case "stats histogram" `Quick test_stats_histogram;
        Alcotest.test_case "dot output" `Quick test_dot_output;
        Alcotest.test_case "table render" `Quick test_table_render;
        Alcotest.test_case "deque push order" `Quick test_deque_push_order;
        Alcotest.test_case "deque grows" `Quick test_deque_grows;
        Alcotest.test_case "deque delete" `Quick test_deque_delete;
        Alcotest.test_case "deque compact" `Quick test_deque_compact;
        Alcotest.test_case "deque maybe_compact" `Quick test_deque_maybe_compact;
        Alcotest.test_case "deque rejects dummy" `Quick test_deque_rejects_dummy;
        Alcotest.test_case "deque clear" `Quick test_deque_clear;
        Alcotest.test_case "mailbox fifo" `Quick test_mailbox_fifo;
        Alcotest.test_case "mailbox mpsc" `Quick test_mailbox_mpsc;
        Alcotest.test_case "bounded mailbox capacity" `Quick test_bounded_capacity;
        Alcotest.test_case "bounded mailbox mpsc" `Quick test_bounded_mpsc;
        Alcotest.test_case "chase-lev ends" `Quick test_chase_lev_ends;
        Alcotest.test_case "chase-lev grows" `Quick test_chase_lev_grows;
        Alcotest.test_case "chase-lev steal stress" `Quick test_chase_lev_steal_stress;
        Alcotest.test_case "prng split streams" `Quick test_prng_split_independent;
        Alcotest.test_case "sharded table basics" `Quick test_sharded_basic;
        Alcotest.test_case "sharded table pow2" `Quick test_sharded_pow2_rounding;
        Alcotest.test_case "sharded counter merge" `Quick test_sharded_counter_merge;
        Alcotest.test_case "sharded compute exactly-once" `Quick
          test_sharded_compute_exactly_once;
      ] );
    Helpers.qsuite "support.qcheck"
      [
        mailbox_matches_queue;
        chase_lev_matches_model;
        prng_int_in_bounds;
        prng_float_in_bounds;
        prng_shuffle_permutes;
        pqueue_sorts;
        pqueue_interleaved_oracle;
        pool_matches_array_map;
        union_find_transitive;
        histogram_conserves_count;
        deque_matches_model;
      ];
  ]
