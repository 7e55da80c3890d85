(** Tests for the parallel OCaml-domains execution backend.

    The central property is the equivalence oracle: for every
    benchmark and every domain count, [Exec.run] must produce the same
    canonical digest ({!Bamboo.Canon}) as the sequential deterministic
    runtime on the same layout.  On top of that: a randomized-schedule
    stress test (chaos jitter, many seeds) and a model test of the
    ordered Atomic-CAS try-lock protocol. *)

module Exec = Bamboo.Exec
module Canon = Bamboo.Canon
module Runtime = Bamboo.Runtime
module Machine = Bamboo.Machine
module Effects = Bamboo.Effects
module Registry = Bamboo_benchmarks.Registry
module Bench_def = Bamboo_benchmarks.Bench_def

(* ------------------------------------------------------------------ *)
(* Digest equivalence: exec vs the sequential runtime *)

let reference_digest prog layout ~args ~lock_groups =
  let r = Runtime.run ~args ~lock_groups prog layout in
  Canon.digest prog ~output:r.r_output ~objects:r.r_objects

(** Sequential runtime and parallel backend agree on the canonical
    digest for [bench] on an 8-core spread layout, for 1/2/4/8
    domains. *)
let test_equivalence (b : Bench_def.t) () =
  let args = Helpers.small_args b.b_name in
  let prog = Bamboo.compile b.b_source in
  let an = Bamboo.analyse prog in
  let machine = Machine.with_cores Machine.tilepro64 8 in
  let layout = Exec.spread_layout prog machine in
  let expected = reference_digest prog layout ~args ~lock_groups:an.lock_groups in
  List.iter
    (fun domains ->
      let r = Exec.run ~args ~domains ~seed:domains ~lock_groups:an.lock_groups prog layout in
      Helpers.check_string (Printf.sprintf "%s digest @ %d domains" b.b_name domains) expected
        r.x_digest;
      Helpers.check_bool
        (Printf.sprintf "%s executed work @ %d domains" b.b_name domains)
        true (r.x_invocations > 0))
    [ 1; 2; 4; 8 ]

let equivalence_cases =
  List.map
    (fun (b : Bench_def.t) ->
      Alcotest.test_case b.b_name `Quick (test_equivalence b))
    Registry.all

(* ------------------------------------------------------------------ *)
(* Work-stealing schedule: same oracle, steal placement *)

(** The equivalence oracle again, under [--schedule steal]: digests
    must stay bit-identical to the sequential runtime even when idle
    domains move invocations off their home cores.  [Exec.run] derives
    the BAM011 steal-safety contract itself here — this also covers
    the self-computation path the CLI relies on. *)
let test_steal_equivalence (b : Bench_def.t) () =
  let args = Helpers.small_args b.b_name in
  let prog = Bamboo.compile b.b_source in
  let an = Bamboo.analyse prog in
  let machine = Machine.with_cores Machine.tilepro64 8 in
  let layout = Exec.spread_layout prog machine in
  let expected = reference_digest prog layout ~args ~lock_groups:an.lock_groups in
  List.iter
    (fun domains ->
      let r =
        Exec.run ~args ~domains ~seed:domains ~schedule:Exec.Steal
          ~lock_groups:an.lock_groups prog layout
      in
      Helpers.check_string
        (Printf.sprintf "%s steal digest @ %d domains" b.b_name domains)
        expected r.x_digest;
      Helpers.check_bool
        (Printf.sprintf "%s steal ledger consistent @ %d domains" b.b_name domains)
        true
        (r.x_steals <= r.x_steal_attempts && r.x_steals >= 0
        && r.x_stolen_invocations <= r.x_invocations))
    [ 1; 2; 4; 8 ]

let steal_equivalence_cases =
  List.map
    (fun (b : Bench_def.t) ->
      Alcotest.test_case b.b_name `Quick (test_steal_equivalence b))
    Registry.all

(** Every benchmark's every task is steal-safe under the BAM011
    contract: the disjointness analysis arbitrates all their
    interference with shared locks, so the whole suite actually
    exercises stealing (nothing is pinned). *)
let test_steal_contract_benchmarks () =
  List.iter
    (fun (b : Bench_def.t) ->
      let prog = Bamboo.compile b.b_source in
      let an = Bamboo.analyse prog in
      let eff = Effects.analyse prog an.astgs in
      let sc = Effects.steal_contract eff ~lock_groups:an.lock_groups prog in
      Array.iteri
        (fun t safe ->
          if not safe then
            Alcotest.failf "%s: task %s not steal-safe" b.b_name
              prog.Bamboo.Ir.tasks.(t).t_name)
        sc.Effects.st_safe)
    Registry.all

(** Sanitizer stays clean under stealing: moving an invocation to a
    thief core must not change which locks protect which accesses
    (the dynamic lockset is carried by the invocation's lock set, not
    the executing core). *)
let test_steal_sanitize_clean (b : Bench_def.t) () =
  let args = Helpers.small_args b.b_name in
  let prog = Bamboo.compile b.b_source in
  let an = Bamboo.analyse prog in
  let eff = Effects.analyse prog an.astgs in
  let machine = Machine.with_cores Machine.tilepro64 8 in
  let layout = Exec.spread_layout prog machine in
  List.iter
    (fun domains ->
      let r =
        Exec.run ~args ~domains ~seed:domains ~schedule:Exec.Steal ~sanitize:eff
          ~lock_groups:an.lock_groups prog layout
      in
      if r.x_violations <> [] then
        Alcotest.failf "%s steal @ %d domains: %s" b.b_name domains
          (String.concat "; " r.x_violations))
    [ 2; 8 ]

let steal_sanitize_cases =
  List.map
    (fun (b : Bench_def.t) ->
      Alcotest.test_case ("sanitize " ^ b.b_name) `Quick (test_steal_sanitize_clean b))
    Registry.all

(* ------------------------------------------------------------------ *)
(* Randomized-schedule stress test *)

(** 500 parallel runs of the counter program under chaos jitter (each
    with a different seed, so a different schedule) all produce the
    sequential digest.  This is the no-data-race check we can run
    without TSan: any unlocked state mutation or stale-snapshot
    execution shows up as a digest mismatch under some schedule. *)
let test_stress_chaos () =
  let prog = Helpers.compile Helpers.counter_src in
  let args = [ "6" ] in
  let machine = Machine.with_cores Machine.tilepro64 4 in
  let layout = Exec.spread_layout prog machine in
  let lock_groups = (Bamboo.analyse prog).lock_groups in
  let expected = reference_digest prog layout ~args ~lock_groups in
  for seed = 1 to 500 do
    let r = Exec.run ~args ~domains:4 ~seed ~chaos:0.3 ~lock_groups prog layout in
    if not (String.equal r.x_digest expected) then
      Alcotest.failf "digest diverged at seed %d" seed
  done

(** The same 500-seed chaos stress under steal placement: the jitter
    idles cores at random moments, so steal timing varies per seed —
    every schedule must still land on the sequential digest.  The
    contract is precomputed once; 500 effect analyses would dominate
    the test. *)
let test_steal_stress_chaos () =
  let prog = Helpers.compile Helpers.counter_src in
  let args = [ "6" ] in
  let machine = Machine.with_cores Machine.tilepro64 4 in
  let layout = Exec.spread_layout prog machine in
  let an = Bamboo.analyse prog in
  let lock_groups = an.lock_groups in
  let eff = Effects.analyse prog an.astgs in
  let steal_safe = (Effects.steal_contract eff ~lock_groups prog).Effects.st_safe in
  let expected = reference_digest prog layout ~args ~lock_groups in
  for seed = 1 to 500 do
    let r =
      Exec.run ~args ~domains:4 ~seed ~chaos:0.3 ~schedule:Exec.Steal ~steal_safe
        ~lock_groups prog layout
    in
    if not (String.equal r.x_digest expected) then
      Alcotest.failf "steal digest diverged at seed %d" seed
  done

(* ------------------------------------------------------------------ *)
(* Ordered try-lock protocol model test *)

(** Hammer [Exec.try_lock_all] from 4 domains over overlapping,
    globally ordered cell subsets.  Mutual exclusion is checked with a
    plain (non-atomic) counter per cell — only mutated while holding
    that cell — and the run terminating at all checks the protocol is
    deadlock-free (try-lock has no hold-and-wait). *)
let test_trylock_model () =
  let ncells = 6 in
  let cells = Array.init ncells (fun _ -> Atomic.make (-1)) in
  let owners = Array.make ncells (-1) in
  (* plain, deliberately *)
  let violations = Atomic.make 0 in
  let acquired = Atomic.make 0 in
  let worker did =
    let rng = Bamboo.Prng.create ~seed:(did + 1) in
    let got = ref 0 in
    while !got < 200 do
      (* a sorted random subset of the cells *)
      let subset =
        List.filter (fun _ -> Bamboo.Prng.bool rng) (List.init ncells Fun.id)
      in
      let subset = if subset = [] then [ Bamboo.Prng.int rng ncells ] else subset in
      match Exec.try_lock_all did (List.map (fun i -> cells.(i)) subset) with
      | None -> Domain.cpu_relax ()
      | Some held ->
          List.iter
            (fun i ->
              if owners.(i) <> -1 then Atomic.incr violations;
              owners.(i) <- did)
            subset;
          List.iter (fun i -> owners.(i) <- -1) subset;
          Exec.release_all held;
          incr got;
          Atomic.incr acquired
    done
  in
  let ds = Array.init 3 (fun i -> Domain.spawn (fun () -> worker (i + 1))) in
  worker 0;
  Array.iter Domain.join ds;
  Helpers.check_int "no mutual-exclusion violations" 0 (Atomic.get violations);
  Helpers.check_int "all rounds eventually acquired" 800 (Atomic.get acquired);
  Array.iter
    (fun c -> Helpers.check_int "all cells released" (-1) (Atomic.get c))
    cells

(* ------------------------------------------------------------------ *)
(* Canonical digest unit behaviour *)

let test_canon_insensitive () =
  let prog = Helpers.compile Helpers.counter_src in
  (* line order must not matter, content must *)
  let d1 = Canon.digest prog ~output:"a\nb\n" ~objects:[] in
  let d2 = Canon.digest prog ~output:"b\na\n" ~objects:[] in
  let d3 = Canon.digest prog ~output:"a\nc\n" ~objects:[] in
  Helpers.check_string "order-insensitive" d1 d2;
  Helpers.check_bool "content-sensitive" true (d1 <> d3)

(* ------------------------------------------------------------------ *)
(* Dynamic lockset sanitizer *)

(** Every benchmark runs clean under the sanitizer at 1/2/4/8 domains:
    the static effect analysis predicted every dynamic access, and no
    object's shadow lockset ever emptied with a write.  This is the
    soundness cross-check of the effects analysis — an unpredicted
    access here means the static pass under-approximated. *)
let test_sanitize_clean (b : Bench_def.t) () =
  let args = Helpers.small_args b.b_name in
  let prog = Bamboo.compile b.b_source in
  let an = Bamboo.analyse prog in
  let eff = Bamboo.Effects.analyse prog an.astgs in
  let machine = Machine.with_cores Machine.tilepro64 8 in
  let layout = Exec.spread_layout prog machine in
  List.iter
    (fun domains ->
      let r =
        Exec.run ~args ~domains ~seed:domains ~sanitize:eff ~lock_groups:an.lock_groups prog
          layout
      in
      if r.x_violations <> [] then
        Alcotest.failf "%s @ %d domains: %s" b.b_name domains
          (String.concat "; " r.x_violations))
    [ 1; 2; 4; 8 ]

let sanitize_cases =
  List.map
    (fun (b : Bench_def.t) -> Alcotest.test_case b.b_name `Quick (test_sanitize_clean b))
    Registry.all

(* Creator-wired sharing: two handles to one Data object, written by
   two single-parameter tasks holding only their own locks.  The
   shadow lockset for the shared object empties on the second writer,
   so the violation is detected deterministically — even at 1 domain,
   where no physical race can happen. *)
let racy_src =
  {|
  class Data {
    int v;
    Data() { this.v = 0; }
  }
  class H { flag go; Data child; }
  class K { flag go; Data child; }
  task startup(StartupObject s in initialstate) {
    Data d = new Data();
    H h = new H(){go := true};
    h.child = d;
    K k = new K(){go := true};
    k.child = d;
    taskexit(s: initialstate := false);
  }
  task th(H h in go) {
    h.child.v = h.child.v + 1;
    taskexit(h: go := false);
  }
  task tk(K k in go) {
    k.child.v = k.child.v + 2;
    taskexit(k: go := false);
  }
  |}

let test_sanitize_detects_race () =
  let prog = Helpers.compile racy_src in
  let an = Bamboo.analyse prog in
  let eff = Bamboo.Effects.analyse prog an.astgs in
  let layout = Exec.spread_layout prog (Machine.with_cores Machine.tilepro64 4) in
  List.iter
    (fun domains ->
      let r = Exec.run ~domains ~sanitize:eff ~lock_groups:an.lock_groups prog layout in
      match r.x_violations with
      | [ v ] ->
          Helpers.check_bool
            (Printf.sprintf "lockset violation named @ %d domains" domains)
            true
            (String.length v >= 17 && String.sub v 0 17 = "lockset violation");
          Helpers.check_bool "names the field" true
            (Str_find.contains v "Data.v")
      | vs ->
          Alcotest.failf "expected one violation @ %d domains, got %d" domains
            (List.length vs))
    [ 1; 4 ]

(** The steal-safety contract refuses to expose tasks with unprotected
    conflicts: in [racy_src] the creator-wired writers [th]/[tk] are
    pinned to their home cores while the conflict-free [startup] stays
    stealable — and the program still runs to the sequential digest
    under steal placement, because pinned tasks never enter a deque. *)
let test_steal_contract_gates_racy () =
  let prog = Helpers.compile racy_src in
  let an = Bamboo.analyse prog in
  let eff = Effects.analyse prog an.astgs in
  let sc = Effects.steal_contract eff ~lock_groups:an.lock_groups prog in
  let id name =
    match Bamboo.Ir.find_task prog name with Some t -> t.t_id | None -> -1
  in
  Helpers.check_bool "startup steal-safe" true sc.Effects.st_safe.(id "startup");
  Helpers.check_bool "th pinned" false sc.Effects.st_safe.(id "th");
  Helpers.check_bool "tk pinned" false sc.Effects.st_safe.(id "tk");
  let layout = Exec.spread_layout prog (Machine.with_cores Machine.tilepro64 4) in
  let expected = reference_digest prog layout ~args:[] ~lock_groups:an.lock_groups in
  List.iter
    (fun domains ->
      let r =
        Exec.run ~domains ~seed:domains ~schedule:Exec.Steal ~lock_groups:an.lock_groups
          prog layout
      in
      Helpers.check_string
        (Printf.sprintf "racy digest under steal @ %d domains" domains)
        expected r.x_digest)
    [ 1; 2; 4 ]

(* White-box unsoundness injection: blank one task's predicted access
   set and the sanitizer must flag its very real accesses as
   unpredicted. *)
let test_sanitize_unpredicted () =
  let prog = Helpers.compile Helpers.counter_src in
  let an = Bamboo.analyse prog in
  let eff = Bamboo.Effects.analyse prog an.astgs in
  let collect =
    match Bamboo.Ir.find_task prog "collect" with Some t -> t.t_id | None -> -1
  in
  eff.per_task.(collect) <-
    { (eff.per_task.(collect)) with ef_accesses = [] };
  let layout = Exec.spread_layout prog (Machine.with_cores Machine.tilepro64 4) in
  let r =
    Exec.run ~args:[ "4" ] ~domains:2 ~sanitize:eff ~lock_groups:an.lock_groups prog layout
  in
  Helpers.check_bool "unpredicted accesses reported" true
    (List.exists (fun v -> Str_find.contains v "unpredicted") r.x_violations)

(* The monitor observes only: cycle accounting and digests are
   bit-identical with the sanitizer on and off. *)
let test_sanitize_transparent () =
  let prog = Helpers.compile Helpers.counter_src in
  let an = Bamboo.analyse prog in
  let eff = Bamboo.Effects.analyse prog an.astgs in
  let layout = Exec.spread_layout prog (Machine.with_cores Machine.tilepro64 4) in
  let plain = Exec.run ~args:[ "5" ] ~domains:1 ~lock_groups:an.lock_groups prog layout in
  let san =
    Exec.run ~args:[ "5" ] ~domains:1 ~sanitize:eff ~lock_groups:an.lock_groups prog layout
  in
  Helpers.check_string "same digest" plain.x_digest san.x_digest;
  Helpers.check_int "same cycles" plain.x_cycles san.x_cycles;
  Helpers.check_int "no violations" 0 (List.length san.x_violations)

let tests =
  [
    ("exec.equivalence", equivalence_cases);
    ( "exec.steal",
      steal_equivalence_cases @ steal_sanitize_cases
      @ [
          Alcotest.test_case "benchmarks fully steal-safe" `Quick
            test_steal_contract_benchmarks;
          Alcotest.test_case "contract pins racy writers" `Quick
            test_steal_contract_gates_racy;
        ] );
    ("exec.sanitize", sanitize_cases
      @ [
          Alcotest.test_case "detects creator-wired race" `Quick test_sanitize_detects_race;
          Alcotest.test_case "flags unpredicted accesses" `Quick test_sanitize_unpredicted;
          Alcotest.test_case "observer transparency" `Quick test_sanitize_transparent;
        ]);
    ( "exec.protocol",
      [
        Alcotest.test_case "ordered try-lock model" `Quick test_trylock_model;
        Alcotest.test_case "canonical digest" `Quick test_canon_insensitive;
      ] );
    ( "exec.stress",
      [
        Alcotest.test_case "500 chaos schedules" `Slow test_stress_chaos;
        Alcotest.test_case "500 chaos schedules (steal)" `Slow test_steal_stress_chaos;
      ] );
  ]
