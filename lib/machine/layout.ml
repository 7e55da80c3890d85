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
    restriction honoured. *)
let validate (prog : Ir.program) l =
  let problems = ref [] in
  Array.iter
    (fun (t : Ir.taskinfo) ->
      let cores = l.assignment.(t.t_id) in
      if Array.length cores = 0 then
        problems := Printf.sprintf "task %s is not mapped to any core" t.t_name :: !problems;
      let sorted = Array.copy cores in
      Array.sort compare sorted;
      Array.iteri
        (fun i c ->
          if i > 0 && sorted.(i - 1) = c && (i = 1 || sorted.(i - 2) <> c) then
            problems := Printf.sprintf "task %s lists core %d twice" t.t_name c :: !problems)
        sorted;
      if Array.length cores > 1 && not (multi_instance_ok t) then
        problems :=
          Printf.sprintf "multi-parameter task %s has %d untagged instantiations" t.t_name
            (Array.length cores)
          :: !problems)
    prog.tasks;
  List.rev !problems

(** Canonical key for isomorphism pruning: layouts that differ only by
    a permutation of core ids produce the same key. *)
let canonical_key l =
  (* Rename cores in order of first appearance across the task list. *)
  let rename = Hashtbl.create 16 in
  let next = ref 0 in
  let buf = Buffer.create 64 in
  Array.iter
    (fun cores ->
      Buffer.add_char buf '[';
      let renamed =
        Array.map
          (fun c ->
            match Hashtbl.find_opt rename c with
            | Some r -> r
            | None ->
                let r = !next in
                incr next;
                Hashtbl.replace rename c r;
                r)
          cores
      in
      let renamed = Array.copy renamed in
      Array.sort compare renamed;
      Array.iter (fun r -> Buffer.add_string buf (string_of_int r); Buffer.add_char buf ',') renamed;
      Buffer.add_char buf ']')
    l.assignment;
  Buffer.contents buf

let pp (prog : Ir.program) fmt l =
  List.iter
    (fun core ->
      let tasks = tasks_on_core l core in
      Format.fprintf fmt "core %2d: %s@." core
        (String.concat ", " (List.map (fun tid -> prog.tasks.(tid).Ir.t_name) tasks)))
    (used_cores l)

let to_string prog l = Format.asprintf "%a" (pp prog) l
