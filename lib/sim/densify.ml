(** One-time compilation of a program + profile into dense tables for
    the scheduling simulator's fast path.

    [Schedsim.simulate] runs hundreds of times per synthesis (once per
    candidate layout DSA scores), but almost everything it needs is a
    pure function of the program and the profile: consumer lists,
    parameter guards, tag masks, exit probabilities, per-exit
    durations and allocation averages, exit actions, message sizes.
    [prepare] interns all of it once into arrays indexed by the IR's
    dense task/class/site ids, so the per-event simulation path does
    zero [Hashtbl] lookups, zero list walks over the IR, and zero
    floating-point divisions:

    - guards compile to truth tables over their flag support
      ({!compile_guard}), so evaluation is a table load instead of an
      expression-tree walk;
    - tag constraints become a bitmask compared with [land];
    - exit actions become four masks (flag set/clear, tag add/clear)
      whose application is a few bitwise ops — replacing
      [Astg.apply_actions], which rebuilt slot-tag association lists
      on every call;
    - the Markov model's per-exit probabilities, rare-group shares,
      rounded durations, and allocation-site averages are computed
      once, with the {e same} float operations in the {e same} order
      as the reference path, so results stay bit-identical.

    [Schedsim] evaluates the compiled guards and actions itself, in
    the module whose event loop calls them.

    A prepared value is immutable and safe to share across domains;
    all mutable simulation state lives in [Schedsim]'s per-run
    record.  {!Bamboo_synth.Evaluator} prepares once and reuses the
    tables for every simulation of a synthesis run. *)

module Ir = Bamboo_ir.Ir
module Profile = Bamboo_profile.Profile
module Astg = Bamboo_analysis.Astg

(* ------------------------------------------------------------------ *)
(* Guards *)

(** A parameter guard compiled for O(1) evaluation: a truth table over
    the guard's flag support (the bit positions it mentions), or the
    original expression tree when the support is implausibly wide. *)
type guard =
  | Gtable of { bits : int array; tbl : Bytes.t }
  | Gtree of Ir.flagexp

let compile_guard (exp : Ir.flagexp) : guard =
  let support = Ir.flagexp_support exp in
  let bits = ref [] in
  for b = Sys.int_size - 2 downto 0 do
    if support land (1 lsl b) <> 0 then bits := b :: !bits
  done;
  let bits = Array.of_list !bits in
  let n = Array.length bits in
  if n > 12 then Gtree exp
  else begin
    let tbl = Bytes.make (1 lsl n) '\000' in
    for m = 0 to (1 lsl n) - 1 do
      let word = ref 0 in
      for k = 0 to n - 1 do
        if m land (1 lsl k) <> 0 then word := !word lor (1 lsl bits.(k))
      done;
      if Ir.eval_flagexp exp !word then Bytes.set tbl m '\001'
    done;
    Gtable { bits; tbl }
  end

(* ------------------------------------------------------------------ *)
(* Dense tables *)

type dparam = {
  dp_guard : guard;
  dp_tagmask : int;            (* required tag-type bits *)
}

(** Exit actions for one parameter, flattened to masks.  Application
    order matches [Astg.apply_actions]: flag sets/clears fold left to
    right (later writes win), tag adds before tag clears. *)
type dact = {
  da_fset : int;
  da_fclear : int;
  da_tadd : int;
  da_tclear : int;
}

let identity_act = { da_fset = 0; da_fclear = 0; da_tadd = 0; da_tclear = 0 }

type dexit = {
  dx_prob : float;             (* profiled exit probability *)
  dx_rare : bool;              (* 0 < p <= 1/2: member of the rare group *)
  dx_share : float;            (* p / p_rare for rare exits, else 0 *)
  dx_dur : int;                (* rounded average body cycles *)
  dx_alloc : (int * float) array; (* (site, profiled avg count), profile order *)
  dx_actions : dact array;     (* per parameter index *)
}

type dtask = {
  dt_info : Ir.taskinfo;       (* original task info, for traces *)
  dt_params : dparam array;
  dt_tag_unified : bool;       (* every parameter tag-constrained *)
  dt_exits : dexit array;
  dt_p_rare : float;           (* combined probability of the rare group *)
  dt_best_nonrare : int;       (* most probable exit with p > 1/2, or -1 *)
  dt_rare_fb : int;            (* most probable rare exit, or -1 *)
  dt_best_any : int;           (* most probable exit overall, or -1 *)
}

type dconsumer = { dc_task : int; dc_pidx : int }

type t = {
  d_prog : Ir.program;
  d_profile : Profile.t;
  d_tasks : dtask array;
  d_consumers : dconsumer array array; (* class -> consumers, declaration order *)
  d_words : int array;                 (* class -> message words (fields + 2) *)
  d_site_class : int array;            (* site -> class *)
  d_site_flags : int array;            (* site -> initial flag word *)
  d_site_tags : int array;             (* site -> initial tag bits *)
  d_boot_flags : int;                  (* startup token's initial flag word *)
  d_max_params : int;                  (* most parameters of any task *)
}

let ntasks d = Array.length d.d_tasks
let nsites d = Array.length d.d_site_class

(* ------------------------------------------------------------------ *)
(* Preparation *)

let compile_actions (task : Ir.taskinfo) slot_tags (exit : Ir.exitinfo) : dact array =
  Array.init (Array.length task.t_params) (fun pidx ->
      match List.assoc_opt pidx exit.x_actions with
      | None -> identity_act
      | Some (a : Ir.actions) ->
          (* Fold flag writes left to right so a later write to the
             same bit wins, as in [Ir.apply_flag_actions]. *)
          let fset, fclear =
            List.fold_left
              (fun (s, c) (f, v) ->
                let bit = 1 lsl f in
                if v then (s lor bit, c land lnot bit) else (s land lnot bit, c lor bit))
              (0, 0) a.a_set
          in
          let tag_mask slots =
            List.fold_left
              (fun bits slot ->
                match List.assoc_opt slot slot_tags with
                | Some ty -> bits lor (1 lsl ty)
                | None -> bits)
              0 slots
          in
          {
            da_fset = fset;
            da_fclear = fclear;
            da_tadd = tag_mask a.a_addtags;
            da_tclear = tag_mask a.a_cleartags;
          })

let prepare (prog : Ir.program) (profile : Profile.t) : t =
  let dtask (task : Ir.taskinfo) =
    let tid = task.t_id in
    let nexits = Array.length task.t_exits in
    let slot_tags = Astg.task_slot_tags task in
    (* Probabilities in exit order, with the same float operations as
       the reference path's [choose_exit]. *)
    let probs = Array.init nexits (fun e -> Profile.exit_prob profile tid e) in
    let p_rare = ref 0.0 in
    Array.iter (fun p -> if p > 0.0 && p <= 0.5 then p_rare := !p_rare +. p) probs;
    let p_rare = !p_rare in
    let best_nonrare = ref (-1) and bn_p = ref 0.0 in
    let rare_fb = ref (-1) and fb_p = ref 0.0 in
    let best_any = ref (-1) and ba_p = ref 0.0 in
    Array.iteri
      (fun e p ->
        if p > 0.5 && p > !bn_p then begin
          bn_p := p;
          best_nonrare := e
        end;
        if p > 0.0 && p <= 0.5 && p > !fb_p then begin
          fb_p := p;
          rare_fb := e
        end;
        if p > !ba_p then begin
          ba_p := p;
          best_any := e
        end)
      probs;
    let dexit e =
      let p = probs.(e) in
      let rare = p > 0.0 && p <= 0.5 in
      {
        dx_prob = p;
        dx_rare = rare;
        dx_share = (if rare then p /. p_rare else 0.0);
        dx_dur = int_of_float (Float.round (Profile.exit_avg_cycles profile tid e));
        dx_alloc =
          Array.of_list
            (List.map
               (fun (sid, _total) -> (sid, Profile.exit_avg_alloc profile tid e sid))
               profile.p_tasks.(tid).ts_exits.(e).xs_alloc);
        dx_actions = compile_actions task slot_tags task.t_exits.(e);
      }
    in
    {
      dt_info = task;
      dt_params =
        Array.map
          (fun (p : Ir.paraminfo) ->
            {
              dp_guard = compile_guard p.p_guard;
              dp_tagmask =
                List.fold_left (fun m (ty, _) -> m lor (1 lsl ty)) 0 p.p_tags;
            })
          task.t_params;
      dt_tag_unified =
        Array.length task.t_params > 1
        && Array.for_all (fun (p : Ir.paraminfo) -> p.p_tags <> []) task.t_params;
      dt_exits = Array.init nexits dexit;
      dt_p_rare = p_rare;
      dt_best_nonrare = !best_nonrare;
      dt_rare_fb = !rare_fb;
      dt_best_any = !best_any;
    }
  in
  (* Consumers per class, in the reference's construction order
     (tasks ascending, parameters ascending). *)
  let consumers = Array.make (Array.length prog.classes) [] in
  Array.iter
    (fun (t : Ir.taskinfo) ->
      Array.iteri
        (fun pidx (p : Ir.paraminfo) ->
          consumers.(p.p_class) <- { dc_task = t.t_id; dc_pidx = pidx } :: consumers.(p.p_class))
        t.t_params)
    prog.tasks;
  {
    d_prog = prog;
    d_profile = profile;
    d_tasks = Array.map dtask prog.tasks;
    d_consumers = Array.map (fun l -> Array.of_list (List.rev l)) consumers;
    d_words =
      Array.map (fun (c : Ir.classinfo) -> Array.length c.c_fields + 2) prog.classes;
    d_site_class = Array.map (fun (s : Ir.siteinfo) -> s.s_class) prog.sites;
    d_site_flags = Array.map Ir.site_initial_word prog.sites;
    d_site_tags = Array.map (Astg.site_tag_bits prog) prog.sites;
    d_boot_flags =
      (match Ir.flag_index (Ir.class_of prog prog.startup) "initialstate" with
      | Some bit -> 1 lsl bit
      | None -> 0);
    d_max_params =
      Array.fold_left (fun m (t : Ir.taskinfo) -> max m (Array.length t.t_params)) 0 prog.tasks;
  }
