(** Test oracle: [Layout.validate] and [Layout.canonical_key] as they
    stood before the linear, hash-free rewrite.  The key renames cores
    through a hash table and prints the renamed, sorted ids as text;
    validation sorts a copy of every task's cores to find duplicates
    and builds its messages as it goes.  Kept verbatim so that the
    [layout.oracle] suite can check the production functions against
    them. *)

module Ir = Bamboo.Ir
module Layout = Bamboo.Layout

(** Validate a layout against the program: every task hosted
    somewhere, on distinct cores, and the multi-instantiation
    restriction honoured. *)
let validate (prog : Ir.program) (l : Layout.t) =
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
      if Array.length cores > 1 && not (Layout.multi_instance_ok t) then
        problems :=
          Printf.sprintf "multi-parameter task %s has %d untagged instantiations" t.t_name
            (Array.length cores)
          :: !problems)
    prog.tasks;
  List.rev !problems

(** Canonical key for isomorphism pruning: layouts that differ only by
    a permutation of core ids produce the same key. *)
let canonical_key (l : Layout.t) =
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
