(** Tests for the shared parameter-set core ({!Bamboo.Pset}): hand-written
    assembly, delivery, routing-key and lock-order cases, and a QCheck
    property that drives random parameter sets through {!Bamboo.Pset}
    and through the pre-merge search kept in {!Assembly_oracle}. *)

module Ir = Bamboo.Ir
module Pset = Bamboo.Pset
module Layout = Bamboo.Layout
module Machine = Bamboo.Machine
module Deque = Bamboo.Support.Deque
module Oracle = Assembly_oracle
open Bamboo.Value

(* ------------------------------------------------------------------ *)
(* Builders: tasks, objects and tags without a source program *)

let pos = Bamboo.Ast.dummy_pos

let param ?(cls = 0) ?(guard = Ir.FTrue) ?(tags = []) () : Ir.paraminfo =
  { p_class = cls; p_name = "p"; p_guard = guard; p_tags = tags; p_pos = pos }

(* Task 0 of a one-task program. *)
let task params : Ir.taskinfo =
  {
    t_id = 0;
    t_name = "t";
    t_params = Array.of_list params;
    t_nslots = 8;
    t_body = [];
    t_exits = [||];
    t_pos = pos;
  }

let obj_ids = ref 0

let obj ?(cls = 0) ?(flags = 0) ?(tags = []) () : obj =
  incr obj_ids;
  {
    o_id = !obj_ids;
    o_class = cls;
    o_site = -1;
    o_fields = [||];
    o_flags = flags;
    o_tags = tags;
    o_lock = Atomic.make (-1);
    o_lock_until = 0;
    o_gen = Atomic.make 0;
  }

let tag ~ty id = { tg_id = id; tg_ty = ty; tg_bound = [] }

let sets (t : Ir.taskinfo) : Pset.sets =
  [| Array.init (Array.length t.t_params) (fun _ -> Deque.create ~dummy:Pset.dummy_entry) |]

let consumers_of (t : Ir.taskinfo) cls : Pset.consumer list =
  List.filter_map
    (fun pidx ->
      let p = t.t_params.(pidx) in
      if p.p_class = cls then Some (t, pidx, p) else None)
    (List.init (Array.length t.t_params) Fun.id)

let offer s (t : Ir.taskinfo) pidx ?req o = Deque.push s.(t.t_id).(pidx) (Pset.snapshot ?req o)

(* Live entries of one parameter set, as object ids in arrival order. *)
let live_ids s pidx = List.map (fun (e : Pset.entry) -> e.obj.o_id) (Deque.to_list s.(0).(pidx))

let param_ids (inv : Pset.invocation) =
  Array.to_list (Array.map (fun (e : Pset.entry) -> e.obj.o_id) inv.iv_params)

let assemble s t =
  match Pset.try_assemble s ~home:3 t with
  | Some inv -> inv
  | None -> Alcotest.fail "expected an invocation"

let check_ids = Alcotest.(check (list int))

(* ------------------------------------------------------------------ *)
(* Hand-written cases *)

(* The first candidate of parameter 0 binds a tag that no entry of
   parameter 1 carries; the search must move on to the second. *)
let test_backtracks_past_tag_conflict () =
  let t1 = tag ~ty:0 1 and t2 = tag ~ty:0 2 in
  let t = task [ param ~tags:[ (0, 5) ] (); param ~cls:1 ~tags:[ (0, 5) ] () ] in
  let s = sets t in
  let a1 = obj ~tags:[ t1 ] () and a2 = obj ~tags:[ t2 ] () in
  let b = obj ~cls:1 ~tags:[ t2 ] () in
  offer s t 0 a1;
  offer s t 0 a2;
  offer s t 1 b;
  let inv = assemble s t in
  check_ids "chosen objects" [ a2.o_id; b.o_id ] (param_ids inv);
  check_ids "bound tag" [ 2 ] (List.map (fun (_, tg) -> tg.tg_id) inv.iv_tags);
  check_ids "a1 stays" [ a1.o_id ] (live_ids s 0);
  check_ids "parameter 1 consumed" [] (live_ids s 1)

(* An object that satisfies both parameters of one task lands in both
   sets but never fills two slots of one invocation. *)
let test_one_object_two_parameters () =
  let t = task [ param (); param () ] in
  let s = sets t in
  let hosted = consumers_of t 0 in
  let got = ref [] in
  let enqueue inv = got := param_ids inv :: !got in
  let o = obj () in
  Helpers.check_bool "inserted" true
    (Pset.deliver s ~home:0 hosted (Pset.snapshot o) ~enqueue);
  check_ids "in parameter 0" [ o.o_id ] (live_ids s 0);
  check_ids "in parameter 1" [ o.o_id ] (live_ids s 1);
  Helpers.check_int "no invocation from one object" 0 (List.length !got);
  let o2 = obj () in
  ignore (Pset.deliver s ~home:0 hosted (Pset.snapshot o2) ~enqueue);
  Alcotest.(check (list (list int)))
    "each invocation takes two distinct objects"
    [ [ o2.o_id; o.o_id ]; [ o.o_id; o2.o_id ] ]
    (List.rev !got)

(* Entries of different serve requests never meet in one invocation. *)
let test_requests_never_mixed () =
  let t = task [ param (); param ~cls:1 () ] in
  let s = sets t in
  let a = obj () and b = obj ~cls:1 () and b' = obj ~cls:1 () in
  offer s t 0 ~req:1 a;
  offer s t 1 ~req:2 b;
  Helpers.check_bool "requests 1 and 2 do not combine" true (Pset.try_assemble s ~home:0 t = None);
  offer s t 1 ~req:1 b';
  let inv = assemble s t in
  check_ids "request 1's objects" [ a.o_id; b'.o_id ] (param_ids inv);
  Helpers.check_int "request id" 1 inv.iv_req;
  check_ids "request 2's entry stays" [ b.o_id ] (live_ids s 1)

(* A consumed object's entry is tombstoned by the next search that
   scans it, even when that search assembles nothing. *)
let test_stale_tombstoned () =
  let t = task [ param (); param ~cls:1 () ] in
  let s = sets t in
  let a = obj () and a' = obj () in
  offer s t 0 a;
  offer s t 0 a';
  Atomic.incr a.o_gen;
  Helpers.check_bool "nothing to pair with" true (Pset.try_assemble s ~home:0 t = None);
  check_ids "stale entry gone" [ a'.o_id ] (live_ids s 0);
  Helpers.check_int "one tombstone" 1 (Deque.length s.(0).(0) - Deque.live s.(0).(0))

(* Success deletes the chosen slots and nothing else, keeping the
   arrival order of what remains. *)
let test_exactly_chosen_deleted () =
  let t1 = tag ~ty:0 1 and t2 = tag ~ty:0 2 in
  let t = task [ param ~tags:[ (0, 0) ] (); param ~cls:1 ~tags:[ (0, 0) ] () ] in
  let s = sets t in
  let a1 = obj ~tags:[ t1 ] () and a2 = obj ~tags:[ t2 ] () and a3 = obj ~tags:[ t1 ] () in
  let b1 = obj ~cls:1 ~tags:[ t2 ] () and b2 = obj ~cls:1 ~tags:[ t1 ] () in
  List.iter (offer s t 0) [ a1; a2; a3 ];
  List.iter (offer s t 1) [ b1; b2 ];
  let inv = assemble s t in
  check_ids "first unifying pair" [ a1.o_id; b2.o_id ] (param_ids inv);
  check_ids "parameter 0 keeps order" [ a2.o_id; a3.o_id ] (live_ids s 0);
  check_ids "parameter 1 keeps the rest" [ b1.o_id ] (live_ids s 1)

(* Bindings come out sorted by slot, whatever order the parameters
   bind them in. *)
let test_bindings_sorted () =
  let t =
    task [ param ~tags:[ (0, 3) ] (); param ~cls:1 ~tags:[ (1, 1); (0, 3) ] () ]
  in
  let s = sets t in
  let x = tag ~ty:0 10 and y = tag ~ty:1 11 in
  offer s t 0 (obj ~tags:[ x ] ());
  offer s t 1 (obj ~cls:1 ~tags:[ y; x ] ());
  let inv = assemble s t in
  Alcotest.(check (list (pair int int)))
    "slot, tag id" [ (1, 11); (3, 10) ]
    (List.map (fun (slot, tg) -> (slot, tg.tg_id)) inv.iv_tags)

(* The same object and generation offered twice is inserted once; a new
   generation is a new entry. *)
let test_duplicates_dropped () =
  let t = task [ param ~guard:(Ir.FFlag 0) (); param ~cls:1 () ] in
  let s = sets t in
  let hosted = consumers_of t 0 in
  let enqueue _ = Alcotest.fail "nothing to assemble" in
  let o = obj ~flags:1 () in
  Helpers.check_bool "first offer" true (Pset.deliver s ~home:0 hosted (Pset.snapshot o) ~enqueue);
  Helpers.check_bool "same generation again" false
    (Pset.deliver s ~home:0 hosted (Pset.snapshot o) ~enqueue);
  Helpers.check_int "one entry" 1 (Deque.live s.(0).(0));
  Atomic.incr o.o_gen;
  Helpers.check_bool "next generation" true
    (Pset.deliver s ~home:0 hosted (Pset.snapshot o) ~enqueue);
  (* the search the insertion ran tombstoned the stale generation *)
  Alcotest.(check (list int))
    "only the new generation lives" [ 1 ]
    (List.map (fun (e : Pset.entry) -> e.gen) (Deque.to_list s.(0).(0)));
  o.o_flags <- 0;
  Atomic.incr o.o_gen;
  Helpers.check_bool "guard no longer holds" false
    (Pset.deliver s ~home:0 hosted (Pset.snapshot o) ~enqueue);
  let stale = Pset.snapshot o in
  Atomic.incr o.o_gen;
  Helpers.check_bool "a stale snapshot is not inserted" false
    (Pset.deliver s ~home:0 hosted stale ~enqueue)

(* Keys come out once each, groups before objects, each by id. *)
let test_lock_keys_ordered () =
  (* classes 1 and 2 share group 1; classes 0 and 3 lock per object *)
  let group_of = Pset.lock_group_of [| 0; 1; 1; 3 |] in
  Alcotest.(check (array int)) "group per class" [| -1; 1; 1; -1 |] group_of;
  let o9 = obj ~cls:3 () and o4 = obj () and g1 = obj ~cls:1 () and g2 = obj ~cls:2 () in
  let o9 = { o9 with o_id = 9 } and o4 = { o4 with o_id = 4 } in
  let inv =
    {
      Pset.dummy_invocation with
      iv_params = Array.map Pset.snapshot [| o9; g1; o4; g2; o4 |];
    }
  in
  let show = function
    | Pset.Group g -> Printf.sprintf "g%d" g
    | Pset.Obj o -> Printf.sprintf "o%d" o.o_id
  in
  Alcotest.(check (list string))
    "order" [ "g1"; "o4"; "o9" ]
    (List.map show (Pset.lock_keys group_of inv))

(* A multi-parameter task routes on the bound tag's id; an object
   without that tag goes nowhere; a single-parameter task round-robins. *)
let test_route_key () =
  let t = task [ param ~tags:[ (0, 0) ] (); param ~cls:1 ~tags:[ (0, 0) ] () ] in
  let l = Layout.create Machine.quad ~ntasks:1 in
  Layout.set_cores l 0 [| 1; 2; 3 |];
  let rr = [| [| 0; 0 |] |] in
  let routed o = Pset.route l ~rr t 1 (Pset.snapshot o) in
  Helpers.check_int "tag 7 -> cores.(7 mod 3)" 2 (routed (obj ~cls:1 ~tags:[ tag ~ty:0 7 ] ()));
  Helpers.check_int "untagged -> nowhere" (-1) (routed (obj ~cls:1 ()));
  let single = task [ param () ] in
  let rr = [| [| 0 |] |] in
  let next () = Pset.route l ~rr single 0 (Pset.snapshot (obj ())) in
  check_ids "round robin" [ 1; 2; 3; 1 ] (List.init 4 (fun _ -> next ()))

(* ------------------------------------------------------------------ *)
(* Random parameter sets against the oracle *)

type event =
  | Offer of int * int        (* object, request *)
  | Offer_stale of int * int  (* snapshot taken, then the object is consumed *)
  | Exit of int * int * int list  (* object, new flags, new tag indices *)

type scenario = {
  sc_params : (int * Ir.flagexp * (int * int) list) list;  (* class, guard, (tag type, slot) *)
  sc_objects : (int * int * int list) list;                (* class, flags, tag indices *)
  sc_events : event list;
}

let ntags = 4
let tag_pool () = Array.init ntags (fun i -> tag ~ty:(i mod 2) i)

let guards = Ir.[ FTrue; FFlag 0; FFlag 1; FNot (FFlag 0); FOr (FFlag 0, FFlag 1) ]

let gen_scenario =
  let open QCheck.Gen in
  let tag_idx = list_size (int_bound 2) (int_bound (ntags - 1)) in
  (* slot [s] holds tags of type [s mod 2], as a typed program's would *)
  let ptags =
    map (List.sort_uniq compare) (list_size (int_bound 2) (int_bound 3))
    >|= List.map (fun slot -> (slot mod 2, slot))
  in
  let guard = frequency [ (3, return Ir.FTrue); (4, oneofl guards) ] in
  let gparam = triple (int_bound 1) guard ptags in
  let nobj = 5 in
  let gobj = triple (int_bound 1) (int_bound 3) tag_idx in
  let req = frequency [ (4, return (-1)); (1, return 0); (1, return 1) ] in
  let gevent =
    frequency
      [
        (6, map2 (fun o r -> Offer (o, r)) (int_bound (nobj - 1)) req);
        (1, map2 (fun o r -> Offer_stale (o, r)) (int_bound (nobj - 1)) req);
        (2, map3 (fun o f ts -> Exit (o, f, ts)) (int_bound (nobj - 1)) (int_bound 3) tag_idx);
      ]
  in
  map3
    (fun ps os es -> { sc_params = ps; sc_objects = os; sc_events = es })
    (list_size (frequency [ (1, return 1); (2, return 2); (2, return 3) ]) gparam)
    (list_repeat nobj gobj)
    (list_size (int_range 4 40) gevent)

let print_scenario sc =
  let pr_list f l = "[" ^ String.concat "; " (List.map f l) ^ "]" in
  let rec pr_guard = function
    | Ir.FTrue -> "T"
    | FFalse -> "F"
    | FFlag f -> Printf.sprintf "f%d" f
    | FAnd (a, b) -> Printf.sprintf "(%s & %s)" (pr_guard a) (pr_guard b)
    | FOr (a, b) -> Printf.sprintf "(%s | %s)" (pr_guard a) (pr_guard b)
    | FNot a -> "!" ^ pr_guard a
  in
  let ints = pr_list string_of_int in
  Printf.sprintf "params %s\nobjects %s\nevents %s"
    (pr_list
       (fun (c, g, ts) ->
         Printf.sprintf "c%d %s %s" c (pr_guard g)
           (pr_list (fun (ty, slot) -> Printf.sprintf "ty%d@%d" ty slot) ts))
       sc.sc_params)
    (pr_list (fun (c, f, ts) -> Printf.sprintf "c%d f%d %s" c f (ints ts)) sc.sc_objects)
    (pr_list
       (function
         | Offer (o, r) -> Printf.sprintf "offer %d r%d" o r
         | Offer_stale (o, r) -> Printf.sprintf "stale %d r%d" o r
         | Exit (o, f, ts) -> Printf.sprintf "exit %d f%d %s" o f (ints ts))
       sc.sc_events)

(* What one invocation chose, comparable across both implementations:
   object ids, (slot, tag id) bindings, request id. *)
let shape objs binds req =
  ( Array.to_list (Array.map (fun o -> o.o_id) objs),
    List.map (fun (s, t) -> (s, t.tg_id)) binds,
    req )

(* Run [sc] through both implementations on shared objects; return each
   side's invocations and surviving live entries (object id,
   generation, request) per parameter. *)
let run_both sc =
  let tags = tag_pool () in
  let t = task (List.map (fun (cls, guard, tags) -> param ~cls ~guard ~tags ()) sc.sc_params) in
  let objs =
    Array.of_list
      (List.map
         (fun (cls, flags, ts) -> obj ~cls ~flags ~tags:(List.map (fun i -> tags.(i)) ts) ())
         sc.sc_objects)
  in
  let ps = sets t and os = Oracle.create_sets [| t |] in
  let p_invs = ref [] and o_invs = ref [] in
  let p_enqueue (inv : Pset.invocation) =
    let objs = Array.map (fun (e : Pset.entry) -> e.obj) inv.iv_params in
    p_invs := shape objs inv.iv_tags inv.iv_req :: !p_invs
  and o_enqueue (inv : Oracle.invocation) =
    let objs = Array.map (fun (e : Oracle.entry) -> e.x_obj) inv.iv_params in
    o_invs := shape objs inv.iv_tags inv.iv_req :: !o_invs
  in
  let offer o req ~stale =
    let pe = Pset.snapshot ~req o and oe = Oracle.snapshot ~req o in
    if stale then Atomic.incr o.o_gen;
    let hosted = consumers_of t o.o_class in
    ignore (Pset.deliver ps ~home:0 hosted pe ~enqueue:p_enqueue);
    Oracle.deliver os ~home:0 hosted oe ~enqueue:o_enqueue
  in
  List.iter
    (function
      | Offer (i, req) -> offer objs.(i) req ~stale:false
      | Offer_stale (i, req) -> offer objs.(i) req ~stale:true
      | Exit (i, flags, ts) ->
          let o = objs.(i) in
          o.o_flags <- flags;
          o.o_tags <- List.map (fun i -> tags.(i)) ts;
          Atomic.incr o.o_gen)
    sc.sc_events;
  (* one last search after the final exits, which tombstones on sight *)
  (match Pset.try_assemble ps ~home:0 t with Some inv -> p_enqueue inv | None -> ());
  (match Oracle.try_assemble os ~home:0 t with Some inv -> o_enqueue inv | None -> ());
  let live f sets = Array.map (fun set -> List.map f (Deque.to_list set)) sets.(0) in
  let p_live = live (fun (e : Pset.entry) -> (e.obj.o_id, e.gen, e.req)) ps
  and o_live = live (fun (e : Oracle.entry) -> (e.x_obj.o_id, e.x_gen, e.x_req)) os in
  ((List.rev !p_invs, p_live), (List.rev !o_invs, o_live))

let prop_matches_oracle =
  QCheck.Test.make ~name:"random sets: same choices, bindings and survivors as the oracle"
    ~count:2000
    (QCheck.make ~print:print_scenario gen_scenario)
    (fun sc ->
      let pset, oracle = run_both sc in
      pset = oracle)

(* The generator must reach the interesting cases, or the property
   shows little: invocations that bind tags, take several parameters,
   or both.  The floors are about half of what seed 7 reaches. *)
let test_generator_coverage () =
  let rand = Random.State.make [| 7 |] in
  let bound = ref 0 and multi = ref 0 and unified = ref 0 in
  for _ = 1 to 300 do
    let sc = gen_scenario rand in
    let (invs, _), _ = run_both sc in
    List.iter
      (fun (ids, binds, _) ->
        let multi_param = List.length ids > 1 in
        if binds <> [] then incr bound;
        if multi_param then incr multi;
        if multi_param && binds <> [] then incr unified)
      invs
  done;
  Printf.printf "with bindings %d, multi-parameter %d, both %d\n%!" !bound !multi !unified;
  Helpers.check_bool "invocations with tag bindings" true (!bound > 60);
  Helpers.check_bool "multi-parameter invocations" true (!multi > 40);
  Helpers.check_bool "multi-parameter invocations with bindings" true (!unified > 25)

let tests =
  [
    ( "runtime.pset",
      [
        Alcotest.test_case "backtracks past a tag conflict" `Quick
          test_backtracks_past_tag_conflict;
        Alcotest.test_case "one object, two parameters" `Quick test_one_object_two_parameters;
        Alcotest.test_case "requests never mixed" `Quick test_requests_never_mixed;
        Alcotest.test_case "stale entries tombstoned" `Quick test_stale_tombstoned;
        Alcotest.test_case "exactly the chosen slots deleted" `Quick test_exactly_chosen_deleted;
        Alcotest.test_case "bindings sorted by slot" `Quick test_bindings_sorted;
        Alcotest.test_case "duplicate offers dropped" `Quick test_duplicates_dropped;
        Alcotest.test_case "lock keys ordered" `Quick test_lock_keys_ordered;
        Alcotest.test_case "routing key" `Quick test_route_key;
        Alcotest.test_case "generator coverage" `Quick test_generator_coverage;
        QCheck_alcotest.to_alcotest prop_matches_oracle;
      ] );
  ]
