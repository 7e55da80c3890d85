(** Candidate implementation layouts (the paper's Figure 4).

    A layout assigns, for every task, the ordered list of cores that
    host an instantiation of that task.  Objects entering an abstract
    state that a task consumes are routed to one of the hosting cores
    — round-robin for single-parameter tasks, tag-hash for
    multi-instance tasks whose parameters share a tag constraint
    (§4.3.4). *)

module Ir = Bamboo_ir.Ir

type t = {
  machine : Machine.t;
  assignment : int array array;  (* task id -> cores hosting an instance *)
}

let create machine ~ntasks = { machine; assignment = Array.make ntasks [||] }

let copy l = { l with assignment = Array.map Array.copy l.assignment }

let cores_of l tid = l.assignment.(tid)

let set_cores l tid cores =
  Array.iter
    (fun c ->
      if c < 0 || c >= l.machine.Machine.cores then
        invalid_arg (Printf.sprintf "Layout.set_cores: core %d out of range" c))
    cores;
  l.assignment.(tid) <- cores

(** All cores that host at least one task. *)
let used_cores l =
  let seen = Hashtbl.create 16 in
  Array.iter (Array.iter (fun c -> Hashtbl.replace seen c ())) l.assignment;
  Hashtbl.fold (fun c () acc -> c :: acc) seen [] |> List.sort compare

(** Tasks hosted on a given core. *)
let tasks_on_core l core =
  let acc = ref [] in
  Array.iteri
    (fun tid cores -> if Array.exists (fun c -> c = core) cores then acc := tid :: !acc)
    l.assignment;
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Dispatch routing *)

(** [key] argument of {!route_core} when a multi-parameter dispatch
    has no routable tag key: the object lacks the required tag
    instance, so it cannot be delivered anywhere. *)
let no_key = min_int

(** The one placement policy (§4.3.4), shared by the sequential
    runtime, the parallel exec backend and the dense simulator so the
    three schedulers cannot silently diverge:

    - unhosted task → no destination;
    - a single instantiation takes everything;
    - multi-parameter multi-instance tasks hash [key] (the bound tag
      instance's id) so all co-tagged objects meet at the same core —
      [no_key] when the object carries no routable tag, and key [0]
      (first core) for the untagged-parameter corner validated away by
      {!multi_instance_ok};
    - single-parameter tasks round-robin over the instantiations via
      the caller-owned counter table [rr] (task → param), mutated in
      place — per-core in the parallel backend, global in the
      sequential schedulers.

    [cores] is the task's instantiation list ([cores_of], or the
    simulator's densified copy).  Returns the destination core id, or
    [-1] for "nowhere" (kept as an unboxed sentinel: the dense
    simulator routes on every dispatch event and must not allocate). *)
let route_core ~(cores : int array) ~nparams ~key ~(rr : int array array) ~tid pidx =
  let n = Array.length cores in
  if n = 0 then -1
  else if n = 1 then cores.(0)
  else if nparams > 1 then if key == no_key then -1 else cores.(key mod n)
  else begin
    let c = rr.(tid).(pidx) in
    rr.(tid).(pidx) <- c + 1;
    cores.(c mod n)
  end

(** A multi-parameter task may have several instantiations only when
    every parameter carries a tag constraint — otherwise objects for
    different parameters could be enqueued at different instantiations
    and the task would never fire (§4.3.4). *)
let multi_instance_ok (task : Ir.taskinfo) =
  Array.length task.t_params <= 1
  || Array.for_all (fun (p : Ir.paraminfo) -> p.p_tags <> []) task.t_params

(** Validate a layout against the program: every task hosted
    somewhere, on distinct cores, and the multi-instantiation
    restriction honoured.  Returns one message per problem, [[]] for a
    valid layout.  Duplicate cores are found in one pass with a stamp
    per core; only a task that fails it (or lists a core outside the
    machine, which has no stamp) is sorted to name the cores it lists
    twice. *)
let validate (prog : Ir.program) l =
  let ncores = l.machine.Machine.cores in
  let stamp = Array.make ncores (-1) in
  let rec distinct tid (cores : int array) i =
    i = Array.length cores
    || (let c = cores.(i) in
        c >= 0 && c < ncores && stamp.(c) <> tid
        && begin
          stamp.(c) <- tid;
          distinct tid cores (i + 1)
        end)
  in
  let problems = ref [] in
  Array.iter
    (fun (t : Ir.taskinfo) ->
      let cores = l.assignment.(t.t_id) in
      if Array.length cores = 0 then
        problems := Printf.sprintf "task %s is not mapped to any core" t.t_name :: !problems;
      if not (distinct t.t_id cores 0) then begin
        let sorted = Array.copy cores in
        Array.sort compare sorted;
        Array.iteri
          (fun i c ->
            if i > 0 && sorted.(i - 1) = c && (i = 1 || sorted.(i - 2) <> c) then
              problems := Printf.sprintf "task %s lists core %d twice" t.t_name c :: !problems)
          sorted
      end;
      if Array.length cores > 1 && not (multi_instance_ok t) then
        problems :=
          Printf.sprintf "multi-parameter task %s has %d untagged instantiations" t.t_name
            (Array.length cores)
          :: !problems)
    prog.tasks;
  List.rev !problems

(** Canonical key for isomorphism pruning: layouts that differ only by
    a permutation of core ids produce the same key.  Cores are renamed
    in order of first appearance across the task list; each task then
    contributes its instance count and its sorted renamed ids, every
    number a fixed-width 16-bit field.  Two keys are therefore equal
    exactly when the renamed layouts host every task on the same set
    of cores — the classes of the printed key this replaced, kept as a
    test oracle ([test/layout_oracle.ml]).  One pass renames through an
    [int] array indexed by core, so a key costs no hashing, printing or
    polymorphic comparison.  Raises [Invalid_argument] on a negative
    core id, or on a layout too large for 16-bit fields. *)
let canonical_key l =
  let tasks = l.assignment in
  let fields = ref 0 and top = ref (-1) in
  for tid = 0 to Array.length tasks - 1 do
    let cores = tasks.(tid) in
    fields := !fields + 1 + Array.length cores;
    if Array.length cores > 0xffff then invalid_arg "Layout.canonical_key: layout too large";
    for i = 0 to Array.length cores - 1 do
      let c = cores.(i) in
      if c < 0 then invalid_arg "Layout.canonical_key: negative core";
      if c > !top then top := c
    done
  done;
  if !top >= 0xffff then invalid_arg "Layout.canonical_key: layout too large";
  let rename = Array.make (!top + 1) (-1) in
  let next = ref 0 in
  let key = Bytes.create (2 * !fields) in
  let pos = ref 0 in
  for tid = 0 to Array.length tasks - 1 do
    let cores = tasks.(tid) in
    let n = Array.length cores in
    Bytes.set_uint16_le key !pos n;
    let first = !pos + 2 in
    for i = 0 to n - 1 do
      let c = cores.(i) in
      if rename.(c) < 0 then begin
        rename.(c) <- !next;
        incr next
      end;
      (* Insertion sort into this task's fields. *)
      let r = rename.(c) in
      let j = ref (first + (2 * i)) in
      while !j > first && Bytes.get_uint16_le key (!j - 2) > r do
        Bytes.set_uint16_le key !j (Bytes.get_uint16_le key (!j - 2));
        j := !j - 2
      done;
      Bytes.set_uint16_le key !j r
    done;
    pos := first + (2 * n)
  done;
  Bytes.unsafe_to_string key

let pp (prog : Ir.program) fmt l =
  List.iter
    (fun core ->
      let tasks = tasks_on_core l core in
      Format.fprintf fmt "core %2d: %s@." core
        (String.concat ", " (List.map (fun tid -> prog.tasks.(tid).Ir.t_name) tasks)))
    (used_cores l)

let to_string prog l = Format.asprintf "%a" (pp prog) l
