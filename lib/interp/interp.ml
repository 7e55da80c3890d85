(** IR interpreter with cycle accounting.

    Two engines execute Bamboo task and method bodies over the shared
    {!Ctx} context: the direct-threaded closure engine in {!Closure}
    (the default) and the tree-walking oracle defined here, selected
    by [--engine tree|closure].  Both charge the {!Cost} model through
    the same tables and helpers, so their cycle and fuel totals are
    bit-identical (the [interp.equivalence] suite enforces it).  The
    runtime layers (profiling, single-core and many-core execution)
    drive either engine through {!invoke_task}, {!executor} and
    {!apply_exit}. *)

open Value
include Ctx

(* ------------------------------------------------------------------ *)
(* The tree-walking oracle *)

let rec eval ctx (frame : value array) (e : Ir.expr) : value =
  step ctx;
  match e with
  | Eint n -> charge ctx Cost.const; Vint n
  | Efloat f -> charge ctx Cost.const; Vfloat f
  | Ebool b -> charge ctx Cost.const; Vbool b
  | Estr s -> charge ctx Cost.const; Vstr s
  | Enull -> charge ctx Cost.const; Vnull
  | Elocal slot -> charge ctx Cost.local; frame.(slot)
  | Efield (r, _, fid) ->
      let o = as_obj (eval ctx frame r) in
      charge ctx Cost.field_access;
      Ctx.notify_read ctx o fid;
      o.o_fields.(fid)
  | Eindex (a, i) -> (
      let arr = as_arr (eval ctx frame a) in
      let idx = as_int (eval ctx frame i) in
      charge ctx (Cost.array_access + ctx.bounds_cost);
      let n = arr_length arr in
      if idx < 0 || idx >= n then bounds_error idx n;
      match arr with
      | Iarr a -> Vint a.(idx)
      | Farr a -> Vfloat a.(idx)
      | Oarr a -> a.(idx))
  | Ebin (op, a, b) -> eval_bin ctx frame op a b
  | Eun (op, a) -> (
      let v = eval ctx frame a in
      charge ctx Cost.iarith;
      match op with
      | INeg -> Vint (-as_int v)
      | FNeg -> Vfloat (-.as_float v)
      | BNot -> Vbool (not (as_bool v)))
  | Eand (a, b) ->
      charge ctx Cost.branch;
      if as_bool (eval ctx frame a) then eval ctx frame b else Vbool false
  | Eor (a, b) ->
      charge ctx Cost.branch;
      if as_bool (eval ctx frame a) then Vbool true else eval ctx frame b
  | Ecast (I2F, a) ->
      charge ctx Cost.cast;
      Vfloat (float_of_int (as_int (eval ctx frame a)))
  | Ecast (F2I, a) ->
      charge ctx Cost.cast;
      Vint (f2i (as_float (eval ctx frame a)))
  | Ecall (recv, cid, mid, args) ->
      let o = as_obj (eval ctx frame recv) in
      let argv = List.map (eval ctx frame) args in
      call_method ctx o cid mid argv
  | Ebuiltin (b, args) -> eval_builtin ctx frame b args
  | Enew (sid, args) ->
      let argv = List.map (eval ctx frame) args in
      Vobj (alloc_object ctx frame sid argv)
  | Enewarr (elem, dims) ->
      let ds = List.map (fun d -> as_int (eval ctx frame d)) dims in
      alloc_array ctx elem ds

and eval_bin ctx frame (op : Ir.binop) a b =
  let va = eval ctx frame a in
  let vb = eval ctx frame b in
  charge ctx (Cost.of_binop op);
  match op with
  | IAdd -> Vint (as_int va + as_int vb)
  | ISub -> Vint (as_int va - as_int vb)
  | IMul -> Vint (as_int va * as_int vb)
  | IDiv ->
      let d = as_int vb in
      if d = 0 then raise (Runtime_error "division by zero");
      Vint (as_int va / d)
  | IMod ->
      let d = as_int vb in
      if d = 0 then raise (Runtime_error "modulo by zero");
      Vint (as_int va mod d)
  | IBand -> Vint (as_int va land as_int vb)
  | IBor -> Vint (as_int va lor as_int vb)
  | IBxor -> Vint (as_int va lxor as_int vb)
  | IShl -> Vint (as_int va lsl as_int vb)
  | IShr -> Vint (as_int va asr as_int vb)
  | FAdd -> Vfloat (as_float va +. as_float vb)
  | FSub -> Vfloat (as_float va -. as_float vb)
  | FMul -> Vfloat (as_float va *. as_float vb)
  | FDiv -> Vfloat (as_float va /. as_float vb)
  | ICmp c -> Vbool (icmp c (as_int va) (as_int vb))
  | FCmp c -> Vbool (icmp c (fcompare (as_float va) (as_float vb)) 0)
  | SCmp c ->
      let x = as_str va and y = as_str vb in
      charge ctx (Cost.dyn_str_cmp x y);
      Vbool (icmp c (compare x y) 0)
  | BCmp c -> Vbool (icmp c (compare (as_bool va) (as_bool vb)) 0)
  | RCmp c -> (
      match c with
      | Ceq -> Vbool (equal_value va vb)
      | Cne -> Vbool (not (equal_value va vb))
      | _ -> raise (Runtime_error "reference comparison must be == or !="))
  | SConcat ->
      let x = as_str va and y = as_str vb in
      charge ctx (Cost.dyn_str_concat x y);
      Vstr (x ^ y)

and eval_builtin ctx frame (b : Ir.builtin) args =
  let argv = List.map (eval ctx frame) args in
  (* the constant part of the builtin's cost, from the shared table;
     string builtins add their dynamic part in their arm below *)
  charge ctx (Cost.of_builtin b);
  let f1 g =
    match argv with
    | [ a ] -> Vfloat (g (as_float a))
    | _ -> raise (Runtime_error "builtin arity/type mismatch")
  in
  let f2 g =
    match argv with
    | [ a; b ] -> Vfloat (g (as_float a) (as_float b))
    | _ -> raise (Runtime_error "builtin arity/type mismatch")
  in
  match (b, argv) with
  | MathSin, _ -> f1 sin
  | MathCos, _ -> f1 cos
  | MathTan, _ -> f1 tan
  | MathAtan, _ -> f1 atan
  | MathSqrt, _ -> f1 sqrt
  | MathLog, _ -> f1 log
  | MathExp, _ -> f1 exp
  | MathFloor, _ -> f1 floor
  | MathCeil, _ -> f1 ceil
  | MathAbs, _ -> f1 abs_float
  | MathPow, _ -> f2 ( ** )
  | MathMin, _ -> f2 fmin
  | MathMax, _ -> f2 fmax
  | MathIAbs, [ Vint n ] -> Vint (abs n)
  | MathIMin, [ Vint a; Vint b ] -> Vint (min a b)
  | MathIMax, [ Vint a; Vint b ] -> Vint (max a b)
  | StrLen, [ s ] -> Vint (String.length (as_str s))
  | StrCharAt, [ s; Vint i ] -> Vint (str_char_at (as_str s) i)
  | StrSubstring, [ s; Vint i; Vint j ] ->
      charge ctx (Cost.dyn_str_substring i j);
      Vstr (str_substring (as_str s) i j)
  | StrEquals, [ a; b ] ->
      let x = as_str a and y = as_str b in
      charge ctx (Cost.dyn_str_cmp x y);
      Vbool (String.equal x y)
  | StrIndexOf, [ s; pat; Vint from ] ->
      let s = as_str s in
      charge ctx (Cost.dyn_str_scan s);
      Vint (str_index_of s (as_str pat) from)
  | StrHash, [ s ] ->
      let s = as_str s in
      charge ctx (Cost.dyn_str_scan s);
      Vint (str_hash s)
  | IntToString, [ Vint n ] -> Vstr (string_of_int n)
  | DoubleToString, [ Vfloat f ] -> Vstr (format_double f)
  | ParseInt, [ s ] -> Vint (parse_int (as_str s))
  | ParseDouble, [ s ] -> Vfloat (parse_double (as_str s))
  | PrintStr, [ s ] ->
      print_line ctx (as_str s);
      Vnull
  | PrintInt, [ Vint n ] ->
      print_line ctx (string_of_int n);
      Vnull
  | PrintDouble, [ Vfloat f ] ->
      print_line ctx (print_double f);
      Vnull
  | RandomNew, [ Vint seed ] -> Vrng (rng_create seed)
  | RandomNextInt, [ r; Vint bound ] -> Vint (rng_next_int (as_rng r) bound)
  | RandomNextDouble, [ r ] -> Vfloat (rng_next_double (as_rng r))
  | RandomNextGaussian, [ r ] -> Vfloat (rng_next_gaussian (as_rng r))
  | ArrayLength, [ a ] -> Vint (arr_length (as_arr a))
  | _ -> raise (Runtime_error "builtin arity/type mismatch")

and alloc_object ctx frame sid argv =
  let site = ctx.prog.sites.(sid) in
  let cls = ctx.prog.classes.(site.s_class) in
  charge ctx (Cost.alloc_object (Array.length cls.c_fields));
  let o = make_object ctx sid in
  (* Bind tags whose variables are in the *current* frame. *)
  List.iter
    (fun slot ->
      match frame.(slot) with
      | Vtag t -> bind_tag o t
      | _ -> raise (Runtime_error "allocation tag slot does not hold a tag"))
    site.s_addtags;
  (* Run the constructor, if any. *)
  (match cls.c_ctor with
  | Some mid -> ignore (call_method ctx o site.s_class mid argv)
  | None -> ());
  ctx.created <- o :: ctx.created;
  if ctx.retain then ctx.objects <- o :: ctx.objects;
  o

and call_method ctx (recv : obj) cid mid argv =
  let m = ctx.prog.classes.(cid).c_methods.(mid) in
  charge ctx Cost.call_overhead;
  let frame = Array.make m.m_nslots Vnull in
  frame.(0) <- Vobj recv;
  List.iteri (fun i v -> frame.(i + 1) <- v) argv;
  try
    exec_stmts ctx frame m.m_body;
    Vnull
  with Return_exc v -> v

and exec_stmts ctx frame stmts = List.iter (exec_stmt ctx frame) stmts

and exec_stmt ctx frame (s : Ir.stmt) =
  step ctx;
  match s with
  | Sassign (Llocal slot, e) ->
      let v = eval ctx frame e in
      charge ctx Cost.local;
      frame.(slot) <- v
  | Sassign (Lfield (r, _, fid), e) ->
      let o = as_obj (eval ctx frame r) in
      let v = eval ctx frame e in
      charge ctx Cost.field_access;
      Ctx.notify_write ctx o fid;
      o.o_fields.(fid) <- v
  | Sassign (Lindex (a, i), e) -> (
      let arr = as_arr (eval ctx frame a) in
      let idx = as_int (eval ctx frame i) in
      let v = eval ctx frame e in
      charge ctx (Cost.array_access + ctx.bounds_cost);
      let n = arr_length arr in
      if idx < 0 || idx >= n then bounds_error idx n;
      match arr with
      | Iarr a -> a.(idx) <- as_int v
      | Farr a -> a.(idx) <- as_float v
      | Oarr a -> a.(idx) <- v)
  | Sif (c, a, b) ->
      charge ctx Cost.branch;
      if as_bool (eval ctx frame c) then exec_stmts ctx frame a else exec_stmts ctx frame b
  | Swhile (c, body) ->
      let rec loop () =
        charge ctx Cost.branch;
        if as_bool (eval ctx frame c) then begin
          (try exec_stmts ctx frame body with Continue_exc -> ());
          loop ()
        end
      in
      (try loop () with Break_exc -> ())
  | Sreturn (Some e) -> raise (Return_exc (eval ctx frame e))
  | Sreturn None -> raise (Return_exc Vnull)
  | Sexpr e -> ignore (eval ctx frame e)
  | Sbreak -> raise Break_exc
  | Scontinue -> raise Continue_exc
  | Staskexit exit_id -> raise (Taskexit_exc exit_id)
  | Snewtag (slot, ty) ->
      charge ctx Cost.alloc_base;
      frame.(slot) <- Vtag (fresh_tag ctx ty)

(* ------------------------------------------------------------------ *)
(* Task invocation API used by the runtimes *)

(** Run one task invocation through the tree-walking oracle.
    [tag_binds] supplies the tag instances matched by dispatch for the
    task's [with]-bound tag variables. *)
let invoke_task_tree ctx (task : Ir.taskinfo) (params : obj array)
    ~(tag_binds : (Ir.slot * tag_inst) list) : invocation_result =
  if Array.length params <> Array.length task.t_params then
    invalid_arg "invoke_task: parameter count mismatch";
  let frame = Array.make task.t_nslots Vnull in
  Array.iteri (fun i o -> frame.(i) <- Vobj o) params;
  List.iter (fun (slot, t) -> frame.(slot) <- Vtag t) tag_binds;
  let saved_created = ctx.created in
  ctx.created <- [];
  let out_start = Buffer.length ctx.out in
  let start = ctx.cycles in
  let exit_id =
    try
      exec_stmts ctx frame task.t_body;
      Array.length task.t_exits - 1 (* implicit exit *)
    with Taskexit_exc id -> id
  in
  let created = List.rev ctx.created in
  ctx.created <- saved_created;
  let output = Buffer.sub ctx.out out_start (Buffer.length ctx.out - out_start) in
  {
    tr_exit = exit_id;
    tr_cycles = ctx.cycles - start;
    tr_created = created;
    tr_frame = frame;
    tr_output = output;
  }

(* ------------------------------------------------------------------ *)
(* Engine selection *)

(** The two interpreter engines: the tree-walking oracle above and the
    {!Closure} direct-threaded closure engine.  They are bit-identical
    on cycles, fuel, output and errors; [interp.equivalence] and
    [interp.fuzz] check the closure engine against the tree walker. *)
type engine = Tree | Closure

(** The engine every subsequently created context executes with: the
    closure engine unless [--engine tree] (or an equivalence test)
    selects the tree walker. *)
let engine = ref Closure

(** Compile [prog] for the selected engine without creating a context.
    The parallel backend calls this on the main domain before spawning
    workers so no domain ever races the first compile (the cache in
    {!Closure} is mutex-guarded anyway; this keeps the compile cost
    off the timed parallel section). *)
let precompile prog = match !engine with Tree -> () | Closure -> ignore (Closure.get prog)

(** Build an interpreter context and attach the selected engine's
    compiled code, shared via the per-program cache. *)
let create ?bounds_check ?max_steps ?id_base ?id_stride prog =
  let ctx = create ?bounds_check ?max_steps ?id_base ?id_stride prog in
  (match !engine with Tree -> () | Closure -> ctx.code <- Eclos (Closure.get prog));
  ctx

(** The invocation engine bound to [ctx], resolved from the code
    representation the context carries.  Runtimes resolve this once
    per context and thread the resulting function through their
    schedulers. *)
let executor ctx :
    Ir.taskinfo -> obj array -> tag_binds:(Ir.slot * tag_inst) list -> invocation_result
    =
  match ctx.code with
  | Eclos cc -> fun task params ~tag_binds -> Closure.invoke_task ctx cc task params ~tag_binds
  | Etree -> fun task params ~tag_binds -> invoke_task_tree ctx task params ~tag_binds

(** Run one task invocation on the given parameter objects through
    [ctx]'s engine. *)
let invoke_task ctx (task : Ir.taskinfo) (params : obj array)
    ~(tag_binds : (Ir.slot * tag_inst) list) : invocation_result =
  executor ctx task params ~tag_binds

(** Apply a task exit's flag and tag actions to the parameter objects.
    Returns the parameters whose flag word changed (their indices),
    which is what drives re-dispatch in the runtimes. *)
let apply_exit (task : Ir.taskinfo) exit_id (params : obj array) (frame : value array) =
  let exit = task.t_exits.(exit_id) in
  let changed = ref [] in
  List.iter
    (fun (pidx, (actions : Ir.actions)) ->
      let o = params.(pidx) in
      let before = o.o_flags in
      o.o_flags <- Ir.apply_flag_actions actions o.o_flags;
      List.iter
        (fun slot ->
          match frame.(slot) with
          | Vtag t -> bind_tag o t
          | _ -> raise (Runtime_error "taskexit tag slot does not hold a tag"))
        actions.a_addtags;
      List.iter
        (fun slot ->
          match frame.(slot) with
          | Vtag t -> unbind_tag o t
          | _ -> raise (Runtime_error "taskexit tag slot does not hold a tag"))
        actions.a_cleartags;
      if before <> o.o_flags || actions.a_addtags <> [] || actions.a_cleartags <> [] then
        changed := pidx :: !changed)
    exit.x_actions;
  List.rev !changed
